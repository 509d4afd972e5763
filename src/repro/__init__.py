"""repro — reproduction of "Concurrent Ranging with Ultra-Wideband Radios:
From Experimental Evidence to a Practical Solution" (ICDCS 2018).

A full UWB concurrent-ranging stack in pure Python:

* :mod:`repro.signal` — pulse synthesis (``TC_PGDELAY`` shaping) and
  resampling.
* :mod:`repro.channel` — multipath channel models (geometric and
  stochastic).
* :mod:`repro.radio` — a behavioural Decawave DW1000 model (CIR
  accumulator, timestamps, frame timing, energy).
* :mod:`repro.netsim` — a network simulator: positioned nodes, a
  wireless medium with signal superposition, and city-scale swarms.
* :mod:`repro.protocol` — SS-TWR, scheduled ranging, and the concurrent
  ranging protocol.
* :mod:`repro.core` — the paper's contribution: search-and-subtract
  detection, pulse-shape identification, response position modulation,
  and the combined scalable scheme.
* :mod:`repro.localization` — anchor-based positioning on top of
  concurrent ranging (the paper's future-work direction).
* :mod:`repro.analysis` — metrics and result tables.
* :mod:`repro.experiments` — one module per paper table/figure.
* :mod:`repro.runtime` — deterministic trial runner (in-process or on
  a process pool), artifact caches, and runtime metrics.

Quickstart::

    from repro.protocol import ConcurrentRangingSession
    session = ConcurrentRangingSession.build(
        responder_distances_m=[3.0, 6.0, 10.0], seed=42
    )
    result = session.run_round()
    print(result.distances_m)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
