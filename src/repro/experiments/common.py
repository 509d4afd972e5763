"""Shared experiment harness.

An :class:`ExperimentResult` couples an identifier (e.g. ``"Table I"``),
the reproduced table, and a flat dictionary of scalar metrics with their
paper reference values, so EXPERIMENTS.md and the benchmark printers can
treat every experiment uniformly.

Every experiment module exposes ``run(*, ...) -> ExperimentResult``
with keyword-only parameters, and takes only the ones it reads.  The
names that match a ``repro run`` flag carry that flag: ``trials``,
``seed``, ``workers``, ``batch_size`` (an int or ``"auto"``) and
``checkpoint`` (a directory for resumable runs); every ``run()`` also
takes a ``metrics`` registry.  The CLI reads each ``run()`` signature
to decide which of the given flags it passes
(:func:`repro.cli.route_flags`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.tables import Table


@dataclass(frozen=True)
class Comparison:
    """One measured-vs-paper scalar."""

    name: str
    measured: float
    paper: float | None = None
    unit: str = ""

    @property
    def ratio(self) -> float | None:
        if self.paper in (None, 0.0):
            return None
        return self.measured / self.paper


@dataclass
class ExperimentResult:
    """Outcome of one experiment run."""

    experiment_id: str
    description: str
    tables: List[Table] = field(default_factory=list)
    comparisons: List[Comparison] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_table(self, table: Table) -> None:
        self.tables.append(table)

    def compare(
        self,
        name: str,
        measured: float,
        paper: float | None = None,
        unit: str = "",
    ) -> None:
        self.comparisons.append(
            Comparison(name=name, measured=measured, paper=paper, unit=unit)
        )

    def note(self, text: str) -> None:
        self.notes.append(text)

    def metric(self, name: str) -> Comparison:
        """Look up a comparison by name; raises ``KeyError`` if absent."""
        for comparison in self.comparisons:
            if comparison.name == name:
                return comparison
        raise KeyError(f"no metric named {name!r} in {self.experiment_id}")

    def as_dict(self) -> Dict[str, float]:
        """Measured values keyed by metric name."""
        return {c.name: c.measured for c in self.comparisons}

    def render(self) -> str:
        """Human-readable report: tables, comparisons, notes."""
        parts = [f"== {self.experiment_id}: {self.description} =="]
        for table in self.tables:
            parts.append(table.render())
        if self.comparisons:
            comparison_table = Table(
                ["metric", "measured", "paper", "unit"], title="paper vs measured"
            )
            for c in self.comparisons:
                comparison_table.add_row(
                    [
                        c.name,
                        c.measured,
                        c.paper if c.paper is not None else "-",
                        c.unit,
                    ]
                )
            parts.append(comparison_table.render())
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)

    def print(self) -> None:
        print(self.render())
