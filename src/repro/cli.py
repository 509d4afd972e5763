"""Command-line interface: run paper experiments from the shell.

Examples::

    python -m repro list
    python -m repro run table1 --trials 1000
    python -m repro run fig7 sect5
    python -m repro run all --trials 100
    python -m repro run table1 --trials 1000 --workers 4 --seed 7
    python -m repro loadgen --sessions 200 --rate 800 --port 9100

This is the project's only command line: every experiment runs through
``run`` and the streaming-service soak through ``loadgen`` (its flags
are :func:`repro.serve.loadgen.add_arguments`).

Execution flags for ``run``.  Each maps to the keyword-only ``run()``
parameter of the same name, and an experiment gets only the flags its
``run()`` signature names (``list`` shows them); a given flag that an
experiment does not take is skipped with a note on stderr:

``--trials N``
    Monte-Carlo trial count.  Experiments that run a fixed set of
    deterministic trials take none.

``--seed SEED``
    Master seed for the Monte-Carlo trial loops.  Every experiment runs
    its trials on the :mod:`repro.runtime` executor, which derives each
    per-trial random stream from it via ``SeedSequence.spawn``, so a
    fixed seed gives bit-identical results at *any* ``--workers`` count.
    Defaults to each experiment's built-in seed.

``--workers N``
    Trial-loop parallelism (default 1, serial).  ``N >= 2`` dispatches
    chunks of trials onto a ``multiprocessing`` pool.  After a run the
    CLI prints the runtime metrics report: trials/sec, template-bank
    cache hit rate, and total wall-clock time.

``--batch-size B|auto``
    Trials per engine call, for the experiments with a batched engine.
    Results are identical for any value.

``--checkpoint DIR [--resume]``
    Persist finished trials to ``DIR``; re-run with ``--resume`` to pick
    up an interrupted run.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from types import ModuleType
from typing import Any, Dict, List, Tuple

from repro.experiments import (
    ablation_amplitude,
    ablation_bank,
    ablation_detectors,
    ablation_twr,
    ablation_upsampling,
    capacity_stress,
    chaos_sweep,
    fig1_bandwidth,
    fig2_cir,
    fig3_timing,
    fig4_detection,
    fig5_pulse_shapes,
    fig6_pulse_id,
    fig7_overlap,
    fig8_combined,
    localization_exp,
    nlos_study,
    sect5_precision,
    sect8_scalability,
    security_study,
    swarm_scale,
    table1_pulse_id,
)

#: name -> experiment module; ``module.run``'s signature says which
#: flags the experiment takes (:func:`route_flags`).
EXPERIMENTS: Dict[str, ModuleType] = {
    "fig1": fig1_bandwidth,
    "fig2": fig2_cir,
    "fig3": fig3_timing,
    "fig4": fig4_detection,
    "fig5": fig5_pulse_shapes,
    "fig6": fig6_pulse_id,
    "fig7": fig7_overlap,
    "fig8": fig8_combined,
    "table1": table1_pulse_id,
    "sect5": sect5_precision,
    "sect8": sect8_scalability,
    "nlos": nlos_study,
    "ablation-detectors": ablation_detectors,
    "ablation-bank": ablation_bank,
    "ablation-amplitude": ablation_amplitude,
    "ablation-twr": ablation_twr,
    "ablation-upsampling": ablation_upsampling,
    "capacity-stress": capacity_stress,
    "localization": localization_exp,
    "chaos": chaos_sweep,
    "security": security_study,
    "swarm": swarm_scale,
}

#: The ``run`` flags, by the ``run()`` parameter each one sets.
RUN_FLAGS = ("trials", "seed", "workers", "batch_size", "checkpoint")


def route_flags(
    module: ModuleType, flags: Dict[str, Any]
) -> Tuple[Dict[str, Any], List[str]]:
    """Split the flags a user gave into those ``module.run`` takes and the rest.

    ``flags`` maps ``run()`` parameter names to values; a ``None`` value
    was not given and is dropped, so the experiment's own default wins.
    Returns ``(kwargs, skipped)``: the keyword arguments for
    ``module.run``, and the names of the given flags its signature does
    not take.
    """
    parameters = inspect.signature(module.run).parameters
    kwargs: Dict[str, Any] = {}
    skipped: List[str] = []
    for name, value in flags.items():
        if value is None:
            continue
        if name in parameters:
            kwargs[name] = value
        else:
            skipped.append(name)
    return kwargs, skipped


def _option(name: str) -> str:
    """The command-line spelling of a ``run()`` parameter name."""
    return "--" + name.replace("_", "-")


def _run_one(name: str, flags: Dict[str, Any]) -> None:
    """Run one experiment with the flags it takes of those the user gave."""
    from repro.runtime import MetricsRegistry

    module = EXPERIMENTS[name]
    kwargs, skipped = route_flags(module, flags)
    for flag in skipped:
        print(
            f"note: {name} does not take {_option(flag)}; skipped",
            file=sys.stderr,
        )
    metrics = MetricsRegistry()
    result = module.run(metrics=metrics, **kwargs)
    print(result.render())
    if not metrics.is_empty():
        print()
        print(metrics.render(title=f"runtime metrics — {name}"))
    print()


def _parse_batch_size(value: str):
    """``--batch-size`` values: a positive integer or ``auto``."""
    if value == "auto":
        return "auto"
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        ) from None
    if parsed < 1:
        raise argparse.ArgumentTypeError(
            f"batch size must be >= 1, got {parsed}"
        )
    return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of 'Concurrent "
        "Ranging with Ultra-Wideband Radios' (ICDCS 2018).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    report_parser = subparsers.add_parser(
        "report", help="render experiments into a markdown report"
    )
    report_parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (default: all)",
    )
    report_parser.add_argument(
        "--trials", type=int, default=None, help="trial-count override"
    )
    report_parser.add_argument(
        "-o", "--output", default=None,
        help="write to a file instead of stdout",
    )

    run_parser = subparsers.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment names (see 'list'), or 'all'",
    )
    run_parser.add_argument(
        "--trials",
        type=int,
        default=None,
        help="Monte-Carlo trial count for experiments that accept one "
        "(default: each experiment's quick default; the paper's counts "
        "are 1000-5000)",
    )
    run_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed for the trial loops (default: each experiment's "
        "built-in seed); with the parallel runtime the same seed gives "
        "identical results at any --workers count",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel trial workers (default: 1, serial)",
    )
    run_parser.add_argument(
        "--batch-size",
        type=_parse_batch_size,
        default=None,
        metavar="B",
        help="trials per engine call for experiments with a batched "
        "engine: an integer, or 'auto' to let the runtime pick a batch "
        "from the workload shape (CIR length, filter channels the engine "
        "searches, worker count)",
    )
    run_parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="persist per-trial checkpoints to DIR for experiments that "
        "support it; an interrupted run re-invoked with --checkpoint "
        "DIR --resume picks up where it stopped",
    )
    run_parser.add_argument(
        "--resume",
        action="store_true",
        help="with --checkpoint: allow reusing checkpoints already in "
        "DIR (results are identical to an uninterrupted run)",
    )

    from repro.serve.loadgen import add_arguments as add_loadgen_arguments

    loadgen_parser = subparsers.add_parser(
        "loadgen",
        help="replay CIR ranging streams against the streaming service "
        "and report latency/throughput/accounting",
        description="Stand up the repro.serve micro-batching ranging "
        "service, drive it with a replayed CIR stream, and print the "
        "JSON report; --port also serves /metrics and /healthz for the "
        "length of the run.",
    )
    add_loadgen_arguments(loadgen_parser)
    return parser


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "report":
        from repro.analysis.reporting import generate_report

        names = args.experiments or None
        try:
            report = generate_report(names=names, trials=args.trials)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(report)
            print(f"wrote {args.output}")
        else:
            print(report)
        return 0

    if args.command == "loadgen":
        from repro.serve.loadgen import run_from_args

        return run_from_args(args)

    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, module in EXPERIMENTS.items():
            doc = (module.__doc__ or "").strip().splitlines()[0]
            taken, _ = route_flags(module, dict.fromkeys(RUN_FLAGS, True))
            options = " ".join(_option(flag) for flag in taken)
            print(f"{name.ljust(width)}  {doc} [{options}]")
        return 0

    names = list(args.experiments)
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)} — "
            "run 'python -m repro list'",
            file=sys.stderr,
        )
        return 2
    if args.workers is not None and args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    from repro.runtime import checkpoint_usage_error

    error = checkpoint_usage_error(args.checkpoint, args.resume)
    if error:
        print(error, file=sys.stderr)
        return 2
    flags = {flag: getattr(args, flag) for flag in RUN_FLAGS}
    for name in names:
        _run_one(name, flags)
    return 0
