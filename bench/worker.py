"""One benchmark process: set up a workload, then time its passes.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                               --started T [--cold-start]

``bench/run.py`` starts this script in fresh interpreters with ``src`` on
``PYTHONPATH`` and prints the figures; run it directly only to debug.  The
last line of standard output is one JSON object.  ``--started`` is the
CLOCK_MONOTONIC reading taken just before this interpreter was launched;
that clock is shared by every process on the machine, so set-up is timed
from before the interpreter started.

``--cold-start`` stops after the first pass.  Otherwise passes are timed
for ``--seconds`` after the first one: all untraced with ``--trace 0``;
alternating untraced and traced with ``--trace 1``, where the traced
passes give the per-layer figures and the untraced ones the baseline for
the tracing overhead.

The speed probe runs after set-up, at the workload's ticks inside a pass
and at the end of every pass, once per PROBE_EVERY_S of work since the
last tick; its time is not pass time.  Set-up and each pass are converted
to reference seconds with the probes taken during and right after them:
``raw * PROBE_REF_S / median(probes)``.  This takes out the drift of a
shared machine's speed, which the probe and the workload feel alike.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# No new pass starts after this many seconds, so a run ends well inside 180 s.
PASS_DEADLINE_S = 100.0
# Median probe time on the 2-core x86-64 VM (Python 3.11.7) the benchmark
# was built on, so that reference seconds read as seconds there.
PROBE_REF_S = 0.015
# One probe per this much work; a single probe scatters by about 25 %, so
# the median needs several.  Set-up and every pass get at least PROBES_MIN.
PROBE_EVERY_S = 0.25
PROBES_MIN = 5


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _versions() -> dict[str, str]:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop that touches no ionotto code.

    On a shared machine the time of this loop follows the slowdowns that
    the workloads see (correlation 0.87-0.93 between 12-second medians on
    the 2-core VM the benchmark was built on), so it measures how fast the
    machine was running while a process was timed.
    """
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - start


def reference_seconds(raw_s: float, probes: list[float]) -> float:
    return raw_s * PROBE_REF_S / statistics.median(probes)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--cold-start", action="store_true")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    start = time.perf_counter()
    import ionotto  # noqa: F401  (timed: the import is part of set-up)

    import_s = time.perf_counter() - start
    import tracing
    import workloads

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp-") as tmp:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, Path(tmp))
        setup_raw_s = _monotonic() - args.started
        runner = _Runner(workload, workloads, tracing)
        setup_probes = [speed_probe() for _ in range(PROBES_MIN)]
        runner.probe_s += setup_probes
        first = runner.timed_pass(traced=False)
        result = {
            "setup_s": reference_seconds(setup_raw_s, setup_probes),
            "setup_raw_s": setup_raw_s,
            "first_pass_s": first.ref_s,
            "first_pass_raw_s": first.raw_s,
        }
        if not args.cold_start:
            result.update(_measure(runner, args))
        if "per_layer" in result:
            child_import_s = result.pop("child_import_s")
            result["per_layer"]["cli.import_s"] = (
                statistics.median(child_import_s) if child_import_s else import_s
            )
    result.update(runner.totals())
    result["versions"] = _versions()
    print(json.dumps(result))
    return 0


class _Pass:
    def __init__(self, raw_s: float, ref_s: float, ledger) -> None:
        self.raw_s = raw_s
        self.ref_s = ref_s
        self.ledger = ledger


class _Runner:
    """Times passes of one workload, sampling the machine's speed at ticks."""

    def __init__(self, workload, workloads, tracing) -> None:
        self.workload = workload
        self.workloads = workloads
        self.tracing = tracing
        self.ledgers = []
        self.probe_s: list[float] = []

    def timed_pass(self, traced: bool) -> _Pass:
        probes: list[float] = []
        probe_time = 0.0
        last_tick = time.perf_counter()

        def tick() -> None:
            nonlocal probe_time, last_tick
            start = time.perf_counter()
            count = max(1, int((start - last_tick) / PROBE_EVERY_S))
            probes.extend(speed_probe() for _ in range(count))
            last_tick = time.perf_counter()
            probe_time += last_tick - start

        ledger = self.workloads.Ledger(tick=tick)
        recorder = self.tracing.SpanRecorder()
        hook = self.tracing.installed(recorder) if traced else contextlib.nullcontext()
        with hook:
            begin = last_tick = time.perf_counter()
            self.workload.run_pass(ledger, traced)
            raw_s = time.perf_counter() - begin - probe_time
        if traced:
            ledger.span_lists.append(recorder.spans)
        tick()
        probes += [speed_probe() for _ in range(PROBES_MIN - len(probes))]
        self.ledgers.append(ledger)
        self.probe_s += probes
        return _Pass(raw_s, reference_seconds(raw_s, probes), ledger)

    def totals(self) -> dict:
        ledgers = self.ledgers
        return {
            "attempted": sum(ledger.attempted for ledger in ledgers),
            "failed": sum(ledger.failed for ledger in ledgers),
            "ref_err": max(ledger.ref_err for ledger in ledgers),
            "problems": [p for ledger in ledgers for p in ledger.problems][:20],
            "probe_s": self.probe_s,
        }


def _measure(runner: _Runner, args: argparse.Namespace) -> dict:
    run_start = time.perf_counter()
    plain: list = []
    traced: list = []
    while True:
        elapsed = time.perf_counter() - run_start
        enough = elapsed >= args.seconds and plain and (traced or not args.trace)
        if enough or (plain and elapsed > PASS_DEADLINE_S):
            break
        take_traced = bool(args.trace) and len(traced) < len(plain)
        (traced if take_traced else plain).append(runner.timed_pass(take_traced))

    result = {
        "pass_raw_s": [p.raw_s for p in plain],
        "traced_pass_raw_s": [p.raw_s for p in traced],
    }
    if not args.trace:
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        wall_s = statistics.median(p.ref_s for p in plain)
        result["wall_s"] = wall_s
        result["rows_per_s"] = statistics.median(p.ledger.completed for p in plain) / wall_s
        result["peak_rss_mb"] = rss_kb / 1024.0
        return result

    ledgers = runner.ledgers
    row_ms = [ms for p in plain for ms in p.ledger.row_ms]
    bath_solve_s = [s for p in plain for s in p.ledger.bath_solve_s]
    attempted = sum(ledger.attempted for ledger in ledgers)
    per_layer = runner.tracing.median_metrics(
        [runner.tracing.layer_metrics(p.ledger.span_lists) for p in traced]
    )
    per_layer.update({
        "row_ms.p50": percentile(row_ms, 50),
        "row_ms.p99": percentile(row_ms, 99),
        "row_ms.samples": float(len(row_ms)),
        "bath_solve_s.p50": statistics.median(bath_solve_s) if bath_solve_s else 0.0,
        "failed_frac": sum(ledger.failed for ledger in ledgers) / attempted,
        "sweep.csv_byte_identical": float(min(ledger.csv_byte_identical for ledger in ledgers)),
        "sweep.csv_max_dev": max(ledger.csv_max_dev for ledger in ledgers),
        "trace_overhead_s": (statistics.median(p.raw_s for p in traced)
                             - statistics.median(p.raw_s for p in plain)),
    })
    result["per_layer"] = per_layer
    result["child_import_s"] = [s for p in traced for s in p.ledger.import_s]
    spans = [[span.to_json() for span in spans] for p in traced for spans in p.ledger.span_lists]
    out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(spans), encoding="utf-8")
    result["spans_file"] = str(out.relative_to(ROOT))
    return result


if __name__ == "__main__":
    sys.exit(main())
