"""The repository benchmark: simulated ops per host CPU-second.

    python3 perfbench/run.py --workload kvaccel-fill --seed 1 --seconds 20 \\
        --trace 0

Runs from the root of a source checkout.  Each repetition is one fresh
``perfbench/cell.py`` process that builds the workload's cell from
``src/``, runs it, and checks its outputs.  Repetitions of the same seed
run back to back until ``--seconds`` of wall time have been spent (at
least :data:`MIN_REPS`).  Each repetition samples the host's speed
(:mod:`hostspeed`) and reports its host times net of the probes and
scaled to the reference speed; every end-to-end metric is the median
over the repetitions.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` then adds
one repetition with the per-layer trace of :mod:`layers` and prints the
per-layer metrics; the untraced repetitions' median CPU time is the base
of ``trace.overhead``.

The run is correct only if every repetition's outputs check, every
repetition of the seed gives identical simulated metrics and kernel
event counts (the traced one included), the trace's self times partition
its CPU time, and every wrapped method is restored afterwards.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without a simulator source
tree under ``src/`` it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402  (stdlib-only at import time)

WORKLOADS = ("kvaccel-fill", "rocksdb-stall", "kvaccel-scan",
             "cluster-mixed")
MIN_REPS = 3
# Each repetition is killed past this; a run must end within 180 s.
REP_TIMEOUT_S = 120.0

END_TO_END_UNITS = {"ops_per_cpu_s": "op/cpu-s", "wall_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB",
                    "sim_kops": "kop/s"}
# Simulated metrics and the failure share, reported by the traced run:
# each reads zero on some workload (no reads on workload A, no writes on
# D, no failures), and end-to-end metrics must never read zero.
SIM_UNITS = {"sim_write_kops": "kop/s", "sim_read_kops": "kop/s",
             "sim_write_p50_us": "us", "sim_write_p99_us": "us",
             "sim_write_lat_samples": "count", "sim_read_p99_us": "us",
             "sim_read_lat_samples": "count", "sim_stall_s": "sim-s",
             "sim_efficiency": "MB/s/%cpu", "fail_share": "ratio"}


def run_rep(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """One repetition in a fresh process; its JSON document."""
    cmd = [sys.executable, str(HERE / "cell.py"), "--workload", workload,
           "--seed", str(seed)] + (["--trace"] if trace else [])
    timeout = max(1.0, min(REP_TIMEOUT_S, deadline - time.monotonic()))
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} repetition failed "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _sim_signature(rep: dict) -> tuple:
    return tuple(sorted(rep["sim"].items())) + (rep["sim_events"],)


def summarize(reps: list, traced: dict | None) -> dict:
    """Fold repetitions into the result line."""
    every = reps + ([traced] if traced is not None else [])
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    problems = []
    if failed:
        problems.append(f"{failed} output checks failed")
    if len({_sim_signature(r) for r in reps}) != 1:
        problems.append("simulated metrics differ between repetitions")
    if traced is not None:
        if (_sim_signature(traced) != _sim_signature(reps[0])
                or traced["layers"]["sim.events"] != reps[0]["sim_events"]):
            problems.append("traced run changed the simulated metrics")
        if traced["leftover_wrappers"]:
            problems.append(f"trace left wrappers installed: "
                            f"{traced['leftover_wrappers']}")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    def median(key):
        return statistics.median(r[key] for r in reps)

    if traced is None:
        values = {
            "ops_per_cpu_s": statistics.median(r["ops"] / r["cpu_ref_s"]
                                               for r in reps),
            "wall_s": median("wall_ref_s"),
            "setup_s": median("setup_ref_s"),
            "peak_rss_mb": median("peak_rss_mb"),
            "sim_kops": reps[0]["sim"]["sim_kops"],
        }
        units = END_TO_END_UNITS
    else:
        values = layers.with_untraced(traced["layers"], traced["cpu_s"],
                                      median("cpu_s"))
        values.update({k: traced["sim"][k] for k in SIM_UNITS
                       if k != "fail_share"})
        values["fail_share"] = failed / attempted
        units = {**layers.LAYER_METRICS, **SIM_UNITS}
    return {"correct": not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]}
                        for k in units}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="KVACCEL simulator benchmark (one workload, one seed)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + 170.0
    reps, traced = [], None
    try:
        while len(reps) < MIN_REPS or time.monotonic() - start < args.seconds:
            reps.append(run_rep(args.workload, args.seed, False, deadline))
        if args.trace:
            traced = run_rep(args.workload, args.seed, True, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summarize(reps, traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
