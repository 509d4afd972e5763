"""The wireless medium: per-link channels.

The medium owns the channel model.  For every (transmitter, receiver)
pair it draws a :class:`~repro.channel.cir.ChannelRealization` — either
from a stochastic indoor environment (Monte-Carlo experiments) or from a
geometric room model (deterministic figures).  Links are reciprocal
within one coherence interval: the INIT and RESP legs of a ranging
exchange see the same taps, as they do physically within a channel
coherence time.  A ranging round builds each reply's
:class:`~repro.radio.dw1000.SignalArrival` from its link's channel, and
the receiving radio superposes them in one CIR.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.channel.cir import ChannelRealization
from repro.channel.geometry import Room, image_source_taps
from repro.channel.stochastic import IndoorEnvironment
from repro.netsim.node import Node


class Medium:
    """Connects nodes through a channel model.

    Parameters
    ----------
    environment:
        Stochastic channel generator used for links (ignored when a
        ``room`` is given).
    room:
        Optional geometric room; when set, deterministic image-source
        taps are used instead of the stochastic environment.
    rng:
        Random generator for channel draws and noise.
    channel_transform:
        Optional injection seam: a callable ``(a_id, b_id, channel) ->
        channel`` applied to every freshly drawn link realization before
        it is cached for the coherence interval.  ``None`` (default) is
        a zero-cost pass-through; :mod:`repro.faults` uses this seam for
        NLOS onset and link perturbations.
    """

    def __init__(
        self,
        environment: IndoorEnvironment | None = None,
        room: Room | None = None,
        rng: np.random.Generator | None = None,
        channel_transform=None,
    ) -> None:
        self.environment = environment or IndoorEnvironment.office()
        self.room = room
        self.rng = rng or np.random.default_rng()
        self.channel_transform = channel_transform
        self._nodes: Dict[int, Node] = {}
        self._links: Dict[Tuple[int, int], ChannelRealization] = {}

    # -- topology ----------------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        for node in nodes:
            self.add_node(node)

    def node(self, node_id: int) -> Node:
        return self._nodes[node_id]

    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    # -- channels ----------------------------------------------------------

    def _link_key(self, a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    def channel_between(self, a_id: int, b_id: int) -> ChannelRealization:
        """The channel realization of a link (reciprocal, cached for the
        current coherence interval; see :meth:`new_coherence_interval`)."""
        if a_id == b_id:
            raise ValueError(f"node {a_id} cannot have a channel to itself")
        key = self._link_key(a_id, b_id)
        if key not in self._links:
            self._links[key] = self._draw_channel(a_id, b_id)
        return self._links[key]

    def _draw_channel(self, a_id: int, b_id: int) -> ChannelRealization:
        node_a = self._nodes[a_id]
        node_b = self._nodes[b_id]
        if self.room is not None:
            taps = image_source_taps(
                self.room, node_a.position, node_b.position
            )
            channel = ChannelRealization(taps)
        else:
            distance = node_a.distance_to(node_b)
            channel = self.environment.realize(distance, self.rng)
        if self.channel_transform is not None:
            channel = self.channel_transform(a_id, b_id, channel)
        return channel

    def new_coherence_interval(self) -> None:
        """Forget cached channels: the next draw is a fresh realization.

        Call between Monte-Carlo trials; within one ranging round the
        channel stays coherent.
        """
        self._links.clear()
