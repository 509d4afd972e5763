"""Stochastic channel realisations for Monte-Carlo experiments.

Two generators are provided:

* :class:`SalehValenzuelaModel` — the classical cluster/ray model behind
  the IEEE 802.15.4a UWB channel models, for users who want standard
  parametrisations.
* :class:`IndoorEnvironment` — a compact office/hallway abstraction used
  by the paper-reproduction experiments: a (possibly attenuated) LOS tap,
  a handful of specular reflections with random excess delays, and a
  diffuse exponential tail.  Its defaults are tuned to the environments
  the paper measures in (hallway with 3–10 m links, office with strong
  wall reflections).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from repro.channel.cir import (
    ChannelRealization,
    DIFFUSE_DECAY_NS,
    KIND_DIFFUSE,
    KIND_LOS,
    KIND_REFLECTION,
    diffuse_tail,
)
from repro.channel.propagation import PathLossModel, propagation_delay_s
from repro.channel.geometry import CHANNEL7_CARRIER_HZ


def _random_phasor(rng: np.random.Generator) -> complex:
    """A unit-magnitude complex number with uniform random phase."""
    return complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


@dataclass
class SalehValenzuelaModel:
    """Saleh–Valenzuela cluster/ray channel generator.

    Parameters follow the classical formulation: clusters arrive as a
    Poisson process with rate ``cluster_rate``; rays within a cluster
    arrive with rate ``ray_rate``; mean powers decay exponentially with
    cluster constant ``cluster_decay_ns`` and ray constant
    ``ray_decay_ns``.  Defaults approximate the 802.15.4a CM1
    (residential LOS) parametrisation.
    """

    cluster_rate_per_ns: float = 0.047
    ray_rate_per_ns: float = 1.54
    cluster_decay_ns: float = 22.6
    ray_decay_ns: float = 12.5
    max_excess_delay_ns: float = 120.0

    def realize(
        self,
        distance_m: float,
        rng: np.random.Generator,
        path_loss: PathLossModel | None = None,
    ) -> ChannelRealization:
        """Draw one channel realization at a link distance.

        The first ray of the first cluster is the direct path; all taps
        are scaled so total power equals the path-loss power at
        ``distance_m``.
        """
        if path_loss is None:
            path_loss = PathLossModel.log_distance(CHANNEL7_CARRIER_HZ)
        base_delay = propagation_delay_s(distance_m)
        link_gain = path_loss.sample_amplitude_gain(distance_m, rng)

        delays = []
        amplitudes = []
        cluster_start_ns = 0.0
        while cluster_start_ns < self.max_excess_delay_ns:
            cluster_power = math.exp(-cluster_start_ns / self.cluster_decay_ns)
            ray_ns = 0.0
            while cluster_start_ns + ray_ns < self.max_excess_delay_ns:
                mean_power = cluster_power * math.exp(-ray_ns / self.ray_decay_ns)
                # Rayleigh amplitude around the exponential mean power.
                amplitudes.append(
                    math.sqrt(rng.exponential(mean_power)) * _random_phasor(rng)
                )
                delays.append(base_delay + (cluster_start_ns + ray_ns) * 1e-9)
                ray_ns += rng.exponential(1.0 / self.ray_rate_per_ns)
            cluster_start_ns += rng.exponential(1.0 / self.cluster_rate_per_ns)

        total = math.sqrt(sum(abs(amplitude) ** 2 for amplitude in amplitudes))
        scale = link_gain / total if total > 0 else 0.0
        # The first ray of the first cluster is the direct path.
        kinds = np.full(len(delays), KIND_REFLECTION)
        kinds[:1] = KIND_LOS
        orders = np.ones(len(delays), dtype=np.int64)
        orders[:1] = 0
        return ChannelRealization.from_arrays(
            delays, np.asarray(amplitudes, dtype=complex) * scale, kinds, orders
        )


@dataclass
class IndoorEnvironment:
    """Compact indoor channel generator used by the paper experiments.

    One realization consists of:

    * a LOS tap at the geometric delay, carrying ``k_factor`` of the
      combined specular power (Rician-style LOS dominance),
    * ``n_reflections`` specular taps at exponentially distributed excess
      delays (mean ``reflection_excess_ns``) sharing the remaining
      specular power (earlier reflections stronger),
    * a diffuse tail holding ``diffuse_power_ratio`` of the LOS power.

    ``los_attenuation`` below 1.0 creates the paper's challenge-IV
    situation where a reflection can out-power the direct path.
    """

    k_factor_db: float = 7.0
    n_reflections: int = 4
    reflection_excess_ns: float = 12.0
    diffuse_power_ratio: float = 0.15
    diffuse_decay_ns: float = DIFFUSE_DECAY_NS
    los_attenuation: float = 1.0
    path_loss: PathLossModel = field(
        default_factory=lambda: PathLossModel.log_distance(CHANNEL7_CARRIER_HZ)
    )

    def __post_init__(self) -> None:
        if self.n_reflections < 0:
            raise ValueError("n_reflections must be non-negative")
        if not 0.0 <= self.los_attenuation <= 1.0:
            raise ValueError("los_attenuation is an amplitude factor in [0, 1]")
        if self.diffuse_power_ratio < 0.0:
            raise ValueError("diffuse_power_ratio must be non-negative")

    @classmethod
    def hallway(cls) -> "IndoorEnvironment":
        """Long corridor: strong LOS, few but long-delay reflections.

        Matches the paper's Sect. III/IV measurement setting.
        """
        return cls(
            k_factor_db=14.0,
            n_reflections=3,
            reflection_excess_ns=18.0,
            diffuse_power_ratio=0.05,
        )

    @classmethod
    def office(cls) -> "IndoorEnvironment":
        """Furnished office: moderate LOS dominance, dense reflections.

        Matches the paper's Sect. V/VI measurement setting.
        """
        return cls(
            k_factor_db=7.0,
            n_reflections=5,
            reflection_excess_ns=10.0,
            diffuse_power_ratio=0.20,
        )

    @classmethod
    def multipath_rich(cls) -> "IndoorEnvironment":
        """Cluttered environment with a weak direct path — the
        challenge-IV stress case where MPCs rival the LOS."""
        return cls(
            k_factor_db=2.0,
            n_reflections=7,
            reflection_excess_ns=8.0,
            diffuse_power_ratio=0.35,
            los_attenuation=0.6,
        )

    @classmethod
    def nlos(cls) -> "IndoorEnvironment":
        """Blocked direct path (future-work scenario of the paper)."""
        return cls(
            k_factor_db=0.0,
            n_reflections=6,
            reflection_excess_ns=10.0,
            diffuse_power_ratio=0.40,
            los_attenuation=0.15,
        )

    def realize(
        self,
        distance_m: float,
        rng: np.random.Generator,
    ) -> ChannelRealization:
        """Draw one channel realization at a link distance."""
        base_delay = propagation_delay_s(distance_m)
        link_gain = self.path_loss.sample_amplitude_gain(distance_m, rng)

        k_linear = 10.0 ** (self.k_factor_db / 10.0)
        los_power = k_linear / (1.0 + k_linear)
        reflections_power = 1.0 / (1.0 + k_linear)

        los_amplitude = (
            math.sqrt(los_power)
            * self.los_attenuation
            * link_gain
            * _random_phasor(rng)
        )

        # Draw order (one seed, one channel): the LOS phase, the excess
        # delays, the reflection phases, then the diffuse tail.
        n = self.n_reflections
        excess = np.sort(rng.exponential(self.reflection_excess_ns, n))
        # Earlier reflections carry more power: exponential split.
        weights = np.exp(-excess / max(self.reflection_excess_ns, 1e-9))
        weights = weights / weights.sum() * reflections_power
        phasors = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
        # Enforce a minimum excess so reflections never precede LOS.
        reflection_delays = base_delay + np.maximum(excess, 0.5) * 1e-9
        reflection_amplitudes = np.sqrt(weights) * link_gain * phasors

        diffuse_power = self.diffuse_power_ratio * los_power * link_gain**2
        tail_delays, tail_amplitudes = diffuse_tail(
            onset_delay_s=base_delay + 1e-9,
            total_power=diffuse_power,
            rng=rng,
            decay_ns=self.diffuse_decay_ns,
        )
        m = tail_delays.shape[0]
        return ChannelRealization.from_arrays(
            np.concatenate([[base_delay], reflection_delays, tail_delays]),
            np.concatenate(
                [[los_amplitude], reflection_amplitudes, tail_amplitudes]
            ),
            np.repeat(
                [KIND_LOS, KIND_REFLECTION, KIND_DIFFUSE], [1, n, m]
            ),
            np.repeat([0, 1, 2], [1, n, m]),
        )
