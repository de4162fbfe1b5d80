"""ionotto benchmark: one workload, timed, checked, printed as JSON.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: figures_cli, effective_dense, joint_bath, mode_oscillator (see
bench/README.md).  The seed draws the xi points of the in-process sweeps.
With ``--trace 0``, COLD_STARTS fresh interpreters each set up and run one
pass, then one more sets up, runs its first pass and times passes for
``--seconds``; ``setup_s`` and ``first_pass_s`` are medians over all of
them.  With ``--trace 1`` only the measuring process runs.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is a record of the run: seed, machine,
versions, thread settings, load average and every raw time.

End-to-end times are in reference seconds (see ``worker.py``); the raw
times stay in the record.  Per-layer times are raw seconds.

Exit codes: 0 with a result, 1 when a run fails, 2 when the directory is
not an ionotto checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("figures_cli", "effective_dense", "joint_bath", "mode_oscillator")
REQUIRED = ("src/ionotto/__init__.py", "src/ionotto/cli.py",
            "configs/fig2a.json", "configs/fig2b.json", "configs/fig2c.json")
COLD_STARTS = 2
RUN_LIMIT_S = 170.0
# One BLAS thread: the shared 2-core machine keeps the figures steadier that
# way, and SuperLU, the hot path, is single-threaded regardless.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "first_pass_s": "s",
    "wall_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ref_err": "dimensionless",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.main_s": "s",
    "sweep.load_config_s": "s",
    "sweep.run_sweep_s": "s",
    "sweep.emit_csv_s": "s",
    "sweep.rows": "count",
    "sweep.rows_failed": "count",
    "sweep.csv_byte_identical": "count",
    "sweep.csv_max_dev": "dimensionless",
    "cycle.run_cycle_closed_form_s": "s",
    "cycle.run_cycle_effective_s": "s",
    "cycle.run_cycle_full_s": "s",
    "cycle.prepare_bath_equilibria_s": "s",
    "reservoirs.match_rabi_frequencies_s": "s",
    "reservoirs.full_joint_model_s": "s",
    "lindblad.liouvillian_matrix_s": "s",
    "lindblad.liouvillian.nnz": "count",
    "lindblad.liouvillian.dim": "count",
    "lindblad.evolve_s": "s",
    "lindblad.evolve.steps": "count",
    "lindblad.equilibrate_s": "s",
    "lindblad.equilibrate.windows": "count",
    "lindblad.steady_state_s": "s",
    "lindblad.splu_s": "s",
    "lindblad.splu_calls": "count",
    "lindblad.splu_share": "ratio",
    "lindblad.lu_fill": "count",
    "lindblad.lu_bytes": "B",
    "lindblad.lu_solve_s": "s",
    "lindblad.lu_solves": "count",
    "operators.partial_trace_s": "s",
    "oscillator.match_rabi_for_mode_s": "s",
    "oscillator.effective_mode_model_s": "s",
    "oscillator.full_v_model_s": "s",
    "row_ms.p50": "ms",
    "row_ms.p99": "ms",
    "row_ms.samples": "count",
    "bath_solve_s.p50": "s",
    "failed_frac": "ratio",
    "trace_overhead_s": "s",
}


class RunError(Exception):
    """A worker failed, timed out or printed no result."""


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text(encoding="ascii").strip()
    except OSError:
        return "unavailable"


def _machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "threads_found": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "threads_set": {var: "1" for var in THREAD_VARS},
    }


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill the worker and anything it started, then wait for all of them."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _run_worker(args: argparse.Namespace, env: dict, deadline: float,
                cold_start: bool = False) -> dict:
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if cold_start:
        command.append("--cold-start")
    started = _monotonic()
    command += ["--started", repr(started)]
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - _monotonic()))
    except subprocess.TimeoutExpired:
        _stop_group(proc)
        raise RunError("worker timed out")
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}:\n{err[-4000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunError("worker printed nothing")
    return json.loads(lines[-1])


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"bench: {ROOT} is not an ionotto checkout; missing {missing}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": _machine(), "loadavg_start": _loadavg()}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **record["machine"]["threads_set"])
    deadline = _monotonic() + RUN_LIMIT_S
    workers = []
    try:
        for _ in range(0 if args.trace else COLD_STARTS):
            workers.append(_run_worker(args, env, deadline, cold_start=True))
        workers.append(_run_worker(args, env, deadline))
    except RunError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    record["loadavg_end"] = _loadavg()
    result = workers[-1]
    attempted = sum(out["attempted"] for out in workers)
    failed = sum(out["failed"] for out in workers)
    record.update(
        {key: [out[key] for out in workers] for key in ("setup_raw_s", "first_pass_raw_s")},
        probe_median_s=[statistics.median(out["probe_s"]) for out in workers],
        problems=[p for out in workers for p in out["problems"]][:20],
        **{key: result[key] for key in ("pass_raw_s", "traced_pass_raw_s", "versions")},
    )
    if args.trace:
        values, units = result["per_layer"], PER_LAYER
        record["spans_file"] = result["spans_file"]
    else:
        values = {key: result[key] for key in ("wall_s", "rows_per_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(out["setup_s"] for out in workers)
        values["first_pass_s"] = statistics.median(out["first_pass_s"] for out in workers)
        values["ref_err"] = max(out["ref_err"] for out in workers)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
