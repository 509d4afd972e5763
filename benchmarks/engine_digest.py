"""SHA-256 over the engine's responses, to check a change keeps its bytes.

Runs :func:`repro.core.batch.detect_batch` and
:func:`repro.core.batch_id.classify_batch` in consecutive batches of B
on fixed sets of CIRs and hashes every response field with ``repr``
(index, delay, amplitude, template, scores; shape and confidence).
The first line covers banks that are their own cover
(:func:`repro.core.plan.bank_cover`), at B in {1, 8, 64} on 64 CIRs:

* the Table I shape: ``TemplateBank.paper_bank(4)``, 1016 taps, U=8,
  4 pulses at fractional positions, 4 responses;
* ``TemplateBank.spread(12)`` at U in {1, 4}: 1016 taps with one pulse
  within 12 taps of each edge (some hanging off it), one at an exact
  integer position and one fractional, 4 responses.

The second line covers the swarm shape, whose bank has templates
outside its cover, so its passes also score them on the residual:
``TemplateBank.spread(96)`` at U=4, 16 responses, at B in {1, 2, 8} on
16 CIRs of 1016 taps, each with the four pulses above plus 8 more at
fractional positions.  Run it from the repository root at two commits
and compare the lines::

    PYTHONPATH=src python benchmarks/engine_digest.py
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.constants import CIR_SAMPLING_PERIOD_S as TS
from repro.core.batch import detect_batch
from repro.core.batch_id import classify_batch
from repro.core.detection import SearchAndSubtractConfig
from repro.signal.sampling import place_pulse
from repro.signal.templates import TemplateBank

N_CIRS = 64
CIR_LENGTH = 1016
NOISE = 1e-3
BATCHES = (1, 8, 64)
SWARM_CIRS = 16
SWARM_BATCHES = (1, 2, 8)


def _cirs(bank, placements_fn, seed, count=N_CIRS):
    """``count`` CIRs of bank pulses at ``placements_fn(rng)`` + noise."""
    rng = np.random.default_rng(seed)
    cirs = np.zeros((count, CIR_LENGTH), dtype=complex)
    for cir in cirs:
        for position in placements_fn(rng):
            template = bank[int(rng.integers(len(bank)))]
            amplitude = rng.uniform(0.4, 1.0) * np.exp(2j * np.pi * rng.random())
            place_pulse(
                cir,
                template.samples.astype(complex),
                position,
                amplitude=amplitude,
                peak_index=template.peak_index,
            )
        cir += NOISE * (
            rng.standard_normal(CIR_LENGTH)
            + 1j * rng.standard_normal(CIR_LENGTH)
        ) / np.sqrt(2.0)
    return cirs


def _table1_positions(rng):
    return np.sort(rng.uniform(16.0, 1000.0, size=4))


def _edge_positions(rng):
    return [
        rng.uniform(-4.0, 12.0),
        float(rng.integers(40, CIR_LENGTH - 40)),
        rng.uniform(40.0, CIR_LENGTH - 40.0),
        rng.uniform(CIR_LENGTH - 12.0, CIR_LENGTH + 4.0),
    ]


def _swarm_positions(rng):
    return _edge_positions(rng) + list(
        rng.uniform(40.0, CIR_LENGTH - 40.0, size=8)
    )


def _hash_responses(hasher, rows):
    for responses in rows:
        for response in responses:
            detected = getattr(response, "response", response)
            hasher.update(
                repr(
                    (
                        detected.index,
                        detected.delay_s,
                        detected.amplitude,
                        detected.template_index,
                        detected.scores,
                        getattr(response, "shape_index", None),
                        getattr(response, "confidence", None),
                    )
                ).encode()
            )


def _digest(cases, batches, max_responses) -> str:
    hasher = hashlib.sha256()
    for bank, factor, cirs in cases:
        config = SearchAndSubtractConfig(
            max_responses=max_responses, upsample_factor=factor
        )
        for engine in (detect_batch, classify_batch):
            for batch in batches:
                for start in range(0, len(cirs), batch):
                    _hash_responses(
                        hasher,
                        engine(
                            cirs[start:start + batch], bank, TS, config,
                            noise_std=NOISE,
                        ),
                    )
    return hasher.hexdigest()


def digest() -> str:
    """The first line: banks that are their own cover."""
    cases = [
        (TemplateBank.paper_bank(4), 8, _cirs(
            TemplateBank.paper_bank(4), _table1_positions, 2018)),
    ]
    spread = TemplateBank.spread(12)
    edge_cirs = _cirs(spread, _edge_positions, 12)
    cases += [(spread, factor, edge_cirs) for factor in (1, 4)]
    return _digest(cases, BATCHES, 4)


def covered_digest() -> str:
    """The second line: the swarm shape, a bank larger than its cover."""
    bank = TemplateBank.spread(96)
    cirs = _cirs(bank, _swarm_positions, 96, count=SWARM_CIRS)
    return _digest([(bank, 4, cirs)], SWARM_BATCHES, 16)


if __name__ == "__main__":
    print(digest())
    print(covered_digest())
