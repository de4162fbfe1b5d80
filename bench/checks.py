"""Correctness checks the benchmark applies to every output it times.

Tolerances are those of the acceptance suite, never looser.
"""

from __future__ import annotations

import math

# Effective dynamics against the closed form (acceptance criterion 6).
EFFECTIVE_VS_CLOSED = 1e-6
# Full joint dynamics against the eliminated dynamics (criterion 6).
FULL_VS_EFFECTIVE = 0.02
# Reduced bath populations of a joint solve against the analytic state.
BATH_POPULATION = 1e-2
# Effective mode moments against the quadratic-moment oracle (criterion 8).
MODE_MOMENT = 1e-6
# Full V-system occupation against the effective mode, relative (criterion 8).
OSCILLATOR_FULL_RELATIVE = 0.02
# Numeric CSV cells against the reference tables, absolute.
CSV_CELL = 1e-9

TEXT_COLUMNS = ("mode", "regime", "flags")


class CsvMismatch(Exception):
    """A sweep table differs from its reference."""


def _number(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def compare_csv(text: str, reference: str, tol: float = CSV_CELL) -> float:
    """Largest numeric deviation of ``text`` from ``reference``.

    The header, the row count and the ``mode``, ``regime`` and ``flags``
    cells must be identical, an empty numeric cell must stay empty, and
    every numeric cell must lie within ``tol``; otherwise
    :class:`CsvMismatch` is raised.
    """
    got = text.splitlines()
    want = reference.splitlines()
    if not want or got[:1] != want[:1]:
        raise CsvMismatch(f"header {got[:1]} != {want[:1]}")
    if len(got) != len(want):
        raise CsvMismatch(f"{len(got) - 1} rows, reference has {len(want) - 1}")
    header = want[0].split(",")
    worst = 0.0
    for line_no, (row, ref_row) in enumerate(zip(got[1:], want[1:]), start=2):
        cells = row.split(",")
        ref_cells = ref_row.split(",")
        if len(cells) != len(header) or len(ref_cells) != len(header):
            raise CsvMismatch(f"line {line_no}: wrong number of cells")
        for column, cell, ref_cell in zip(header, cells, ref_cells):
            if column in TEXT_COLUMNS:
                if cell != ref_cell:
                    raise CsvMismatch(f"line {line_no}: {column} {cell!r} != {ref_cell!r}")
                continue
            value, ref_value = _number(cell), _number(ref_cell)
            if (value is None) != (ref_value is None):
                raise CsvMismatch(f"line {line_no}: {column} {cell!r} != {ref_cell!r}")
            if value is None:
                continue
            deviation = abs(value - ref_value)
            if not deviation <= tol:
                raise CsvMismatch(
                    f"line {line_no}: {column} {cell} differs from {ref_cell} by {deviation:.3e}"
                )
            worst = max(worst, deviation)
    return worst


def engine_efficiency_gap(text: str) -> float:
    """Largest |eta(mode) - eta(closed_form)| over the table's engine rows.

    Rows are matched by ``xi``; only points where the closed form runs as
    a heat engine and the other mode reports an efficiency count.
    """
    lines = text.splitlines()
    header = lines[0].split(",")
    col = {name: i for i, name in enumerate(header)}
    closed: dict[str, float] = {}
    others: list[tuple[str, float]] = []
    for line in lines[1:]:
        cells = line.split(",")
        if cells[col["eta"]] == "":
            continue
        eta = float(cells[col["eta"]])
        if cells[col["mode"]] == "closed_form":
            if cells[col["regime"]] == "heat_engine":
                closed[cells[col["xi"]]] = eta
        else:
            others.append((cells[col["xi"]], eta))
    gaps = [abs(eta - closed[xi]) for xi, eta in others if xi in closed]
    return max(gaps) if gaps else math.nan
