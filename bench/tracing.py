"""Out-of-tree span recorder for the traced benchmark passes.

The recorder wraps the public function at each ionotto module boundary by
rebinding every name under which a calling module looks it up (for example
both ``ionotto.lindblad.equilibrate`` and ``ionotto.cycle.equilibrate``),
plus ``scipy.sparse.linalg.splu`` and the ``solve`` method of the LU object
it returns.  Spans stay in memory; :func:`layer_metrics` turns them into the
per-layer figures.  Nothing here is installed during an untraced pass.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

# (module, function) pairs wrapped at each layer boundary; the span name is
# "<layer>.<function>", the layer being the defining module's short name.
TARGETS: tuple[tuple[str, str], ...] = (
    ("ionotto.cli", "main"),
    ("ionotto.sweep", "load_config"),
    ("ionotto.sweep", "run_sweep"),
    ("ionotto.sweep", "emit_csv"),
    ("ionotto.cycle", "run_cycle_closed_form"),
    ("ionotto.cycle", "run_cycle_effective"),
    ("ionotto.cycle", "run_cycle_full"),
    ("ionotto.cycle", "prepare_bath_equilibria"),
    ("ionotto.reservoirs", "match_rabi_frequencies"),
    ("ionotto.reservoirs", "full_joint_model"),
    ("ionotto.lindblad", "liouvillian_matrix"),
    ("ionotto.lindblad", "evolve"),
    ("ionotto.lindblad", "equilibrate"),
    ("ionotto.lindblad", "steady_state"),
    ("ionotto.operators", "partial_trace"),
    ("ionotto.oscillator", "match_rabi_for_mode"),
    ("ionotto.oscillator", "effective_mode_model"),
    ("ionotto.oscillator", "full_v_model"),
)

# The sparse LU is called from lindblad, so its spans carry that layer.
SPLU_SPAN = "lindblad.splu"
LU_SOLVE_SPAN = "lindblad.lu_solve"
# Benchmark-side work inside a traced pass; it counts as tracing overhead.
FACTOR_COUNT_SPAN = "bench.lu_factor_count"
# lindblad.splu_share is the LU's share of the library time in these spans.
BATH_SPAN = "cycle.prepare_bath_equilibria"

# Bytes per stored LU entry (complex128); lu_bytes is computed, not measured.
LU_ENTRY_BYTES = 16

# Counters: metric -> (span name, span attribute or None to count spans, reduction).
COUNTERS: dict[str, tuple[str, str | None, Callable[[list[int]], int]]] = {
    "lindblad.splu_calls": (SPLU_SPAN, None, sum),
    "lindblad.lu_fill": (SPLU_SPAN, "fill", max),
    "lindblad.lu_solves": (LU_SOLVE_SPAN, None, sum),
    "lindblad.evolve.steps": ("lindblad.evolve", "steps", sum),
    "lindblad.equilibrate.windows": ("lindblad.equilibrate", "windows", sum),
    "lindblad.liouvillian.nnz": ("lindblad.liouvillian_matrix", "nnz", max),
    "lindblad.liouvillian.dim": ("lindblad.liouvillian_matrix", "dim", max),
    "sweep.rows": ("sweep.run_sweep", "rows", sum),
    "sweep.rows_failed": ("sweep.run_sweep", "rows_failed", sum),
}


def _liouvillian_attrs(result: Any) -> dict[str, int]:
    nnz = result.nnz if hasattr(result, "nnz") else int((result != 0).sum())
    return {"nnz": int(nnz), "dim": int(result.shape[0])}


def _sweep_attrs(result: Any) -> dict[str, int]:
    return {"rows": len(result.rows), "rows_failed": len(result.failed_rows)}


RESULT_ATTRS: dict[str, Callable[[Any], dict[str, int]]] = {
    "lindblad.evolve": lambda report: {"steps": report.steps_taken},
    "lindblad.equilibrate": lambda report: {"windows": report.windows},
    "lindblad.liouvillian_matrix": _liouvillian_attrs,
    "sweep.run_sweep": _sweep_attrs,
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.attrs]

    @classmethod
    def from_json(cls, item: Sequence) -> "Span":
        name, start, end, parent, attrs = item
        return cls(name, start, end, parent, dict(attrs))


class SpanRecorder:
    """Collects nested spans of one thread in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.clock(), parent=parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        attrs_of = RESULT_ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if attrs_of is not None:
                record.attrs.update(attrs_of(result))
            return result

        return traced


class _TracedLU:
    """Stands in for a SuperLU object so that each ``solve`` is a span."""

    def __init__(self, lu: Any, recorder: SpanRecorder) -> None:
        self._lu = lu
        self._recorder = recorder

    def solve(self, *args, **kwargs):
        with self._recorder.span(LU_SOLVE_SPAN):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._lu, name)


def _traced_splu(recorder: SpanRecorder, splu: Callable) -> Callable:
    @functools.wraps(splu)
    def traced(*args, **kwargs):
        with recorder.span(SPLU_SPAN) as record:
            lu = splu(*args, **kwargs)
        # Extracting the factors costs time and memory.  A span of its own
        # keeps that cost out of the caller's self time.
        with recorder.span(FACTOR_COUNT_SPAN):
            record.attrs["fill"] = int(lu.L.nnz + lu.U.nnz)
        return _TracedLU(lu, recorder)

    return traced


def _ionotto_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "ionotto" or name.startswith("ionotto."))
    ]


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Rebind every traced name for the duration of the block.

    Each binding of a target function in any loaded ionotto module is
    replaced, so calls between modules and calls through the package
    namespace are both seen.  Every binding is restored on exit.
    """
    import scipy.sparse.linalg as spla

    modules = _ionotto_modules()
    patches: list[tuple[Any, str, Any]] = []
    try:
        for module_name, func_name in TARGETS:
            home = sys.modules.get(module_name)
            if home is None:
                continue
            original = getattr(home, func_name)
            wrapper = recorder.wrap(f"{module_name.split('.')[-1]}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        patches.append((spla, "splu", spla.splu))
        spla.splu = _traced_splu(recorder, spla.splu)
        yield recorder
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        clipped = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(index, ())
        )
        covered = 0.0
        cursor = span.start
        for lo, hi in clipped:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span.end - span.start) - covered)
    return out


def _within(spans: Sequence[Span], index: int | None, name: str) -> bool:
    """Whether the span at ``index`` or one of its ancestors is called ``name``."""
    while index is not None:
        if spans[index].name == name:
            return True
        index = spans[index].parent
    return False


def layer_metrics(span_lists: Iterable[Sequence[Span]]) -> dict[str, float]:
    """Per-layer self time (``<span>_s``) and counters over one pass.

    A pass may span several processes, each with its own span list; times
    and summed counters add across lists, maximum counters take the largest.
    """
    times: dict[str, float] = {}
    values: dict[str, list[int]] = {metric: [] for metric in COUNTERS}
    bath_total = 0.0  # library time inside bath solves, bench spans excluded
    bath_splu = 0.0
    for spans in span_lists:
        for index, (span, own) in enumerate(zip(spans, self_times(spans))):
            key = f"{span.name}_s"
            times[key] = times.get(key, 0.0) + own
            if not span.name.startswith("bench.") and _within(spans, index, BATH_SPAN):
                bath_total += own
                if span.name == SPLU_SPAN:
                    bath_splu += own
        for metric, (name, attr, _) in COUNTERS.items():
            for span in spans:
                if span.name == name:
                    values[metric].append(1 if attr is None else span.attrs[attr])
    metrics: dict[str, float] = {}
    for module_name, func_name in TARGETS:
        key = f"{module_name.split('.')[-1]}.{func_name}_s"
        metrics[key] = times.get(key, 0.0)
    metrics[f"{SPLU_SPAN}_s"] = times.get(f"{SPLU_SPAN}_s", 0.0)
    metrics[f"{LU_SOLVE_SPAN}_s"] = times.get(f"{LU_SOLVE_SPAN}_s", 0.0)
    for metric, (_, _, reduce) in COUNTERS.items():
        metrics[metric] = float(reduce(values[metric])) if values[metric] else 0.0
    metrics["lindblad.lu_bytes"] = metrics["lindblad.lu_fill"] * LU_ENTRY_BYTES
    metrics["lindblad.splu_share"] = bath_splu / bath_total if bath_total > 0 else 0.0
    return metrics


def median_metrics(per_pass: Sequence[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes."""
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
