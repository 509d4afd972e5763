"""Benchmark-suite configuration.

Each benchmark module reproduces one table/figure of the paper: it runs
the experiment at a meaningful trial count, prints the reproduced table
next to the paper's reference values, asserts the *shape* criteria
(who wins, rough factors, monotonicities), and times the experiment's
computational kernel with pytest-benchmark.

Run the shape checks (CI's paper-claims job) with::

    PYTHONPATH=src python -m pytest benchmarks --ignore=benchmarks/perf --benchmark-disable

and add the kernel timings with ``--benchmark-only`` in place of
``--benchmark-disable``.
"""

import pytest


def pytest_configure(config):
    # Benchmarks print reproduction tables; force -s style output so the
    # tables are visible in the default invocation.
    config.option.capture = "no"
