"""Markdown report generation over the experiment suite.

``python -m repro report`` renders every experiment (or a chosen subset)
into one self-contained markdown document — the live-regenerated version
of EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.experiments.common import ExperimentResult


def _result_to_markdown(result: ExperimentResult) -> str:
    """One experiment as a markdown section (tables in code fences)."""
    parts = [f"## {result.experiment_id} — {result.description}", ""]
    for table in result.tables:
        parts.append("```")
        parts.append(table.render())
        parts.append("```")
        parts.append("")
    if result.comparisons:
        parts.append("| metric | measured | paper | unit |")
        parts.append("|---|---|---|---|")
        for c in result.comparisons:
            paper = "-" if c.paper is None else f"{c.paper:g}"
            parts.append(
                f"| {c.name} | {c.measured:g} | {paper} | {c.unit} |"
            )
        parts.append("")
    for note in result.notes:
        parts.append(f"*Note: {note}*")
        parts.append("")
    return "\n".join(parts)


def generate_report(
    names: Iterable[str] | None = None,
    trials: int | None = None,
) -> str:
    """Run experiments and render them as one markdown document.

    Parameters
    ----------
    names:
        Experiment names from the CLI registry (default: all).
    trials:
        Trial-count override for the experiments whose ``run()`` takes
        one (:func:`repro.cli.route_flags`).
    """
    # Imported here to avoid a circular import (cli imports experiments).
    from repro.cli import EXPERIMENTS, route_flags

    selected = list(names) if names is not None else list(EXPERIMENTS)
    unknown = [n for n in selected if n not in EXPERIMENTS]
    if unknown:
        raise ValueError(
            f"unknown experiment(s): {unknown}; known: {list(EXPERIMENTS)}"
        )

    sections: List[str] = [
        "# Concurrent-ranging reproduction report",
        "",
        "Generated by `python -m repro report`.  Paper: Großwindhager et "
        "al., *Concurrent Ranging with Ultra-Wideband Radios*, ICDCS 2018.",
        "",
    ]
    for name in selected:
        module = EXPERIMENTS[name]
        kwargs, _ = route_flags(module, {"trials": trials})
        result = module.run(**kwargs)
        sections.append(_result_to_markdown(result))
    return "\n".join(sections)
