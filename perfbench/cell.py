"""One benchmark repetition, in a fresh process.

    python3 perfbench/cell.py --workload kvaccel-fill --seed 1 [--trace]

Builds one cell through ``repro.bench.runner.run_workload`` (single
db_bench driver process, closed loop, ``jobs=1``), times its set-up and
its measured phase with host CPU and wall clocks, checks the outputs
through the system's public ``get()``/``scan()``, and prints one JSON
document on stdout.  With ``--trace`` the per-layer trace of
:mod:`layers` is installed for the whole run and reported for the
measured phase.

The measured phase starts when the workload driver starts (after system
construction and, for the scan workload, the preload fill) and ends when
``run_workload`` has collected the cell's results and closes the db.

Without ``--trace`` the host's speed is sampled for the whole process by
:mod:`hostspeed`; set-up and phase times are also reported scaled to the
reference speed (``*_ref_s``).  The traced run is not sampled.
"""

from __future__ import annotations

import argparse
import bisect
import json
import random
import resource
import sys
import time
from pathlib import Path

import hostspeed

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parents[1]

PROFILE = "mini256"

# name -> RunSpec fields and the sim-time horizon of the measured phase.
# Horizons are shorter than the profile's 2.34 s so that one run of the
# benchmark holds several repetitions; every cell still reaches its
# steady state (stall cycles on rocksdb-stall, redirection on the KVACCEL
# cells) well inside it.
WORKLOADS = {
    "kvaccel-fill": dict(system="kvaccel", workload="A", duration=1.2),
    "rocksdb-stall": dict(system="rocksdb", workload="A", slowdown=False,
                          duration=1.2),
    "kvaccel-scan": dict(system="kvaccel", workload="D", duration=0.8),
    "cluster-mixed": dict(system="cluster", workload="C", shards=2,
                          rollback="lazy", duration=0.5),
}

# Acknowledged keys read back after the measured phase, and seeks
# replayed against a reference on the scan workload.
CHECK_GETS = 200
CHECK_SEEKS = 8


def _acked_keys(profile, cfg, kind: str, write_ops: int) -> list:
    """Keys whose writes were acknowledged, in write order.  The drivers
    and the preload draw keys from ``RandomKeys(seed)`` and every issued
    batch completes before ``run_workload`` returns."""
    from repro.workload.keygen import RandomKeys
    keys = RandomKeys(cfg.key_space, cfg.key_size, seed=cfg.seed)
    if kind == "seekrandom":
        # Mirror of fill_database's batching: the preload is the only
        # writer on this workload.
        per_entry = cfg.key_size + cfg.value_size + 8
        remaining, n_keys = profile.seekrandom_fill_bytes, 0
        while remaining > 0:
            n = min(cfg.batch_size, max(1, remaining // per_entry))
            n_keys += n
            remaining -= n * per_entry
        write_ops = n_keys
    return [keys.next_key() for _ in range(write_ops)]


def check_outputs(env, db, profile, cfg, kind: str, write_ops: int,
                  seed: int) -> tuple[int, int]:
    """Read back a seeded sample of acknowledged keys (and, on the scan
    workload, replay seeded seeks against a sorted reference).  Returns
    (checks attempted, checks failed)."""
    from repro.types import encode_key
    from repro.workload.keygen import value_for
    acked = sorted(set(_acked_keys(profile, cfg, kind, write_ops)))
    rng = random.Random(f"perfbench-check-{seed}")
    sample = rng.sample(acked, min(CHECK_GETS, len(acked)))
    seeks = ([encode_key(rng.randrange(cfg.key_space), cfg.key_size)
              for _ in range(CHECK_SEEKS)] if kind == "seekrandom" else [])
    nexts = profile.seekrandom_nexts
    failed = [0]

    def reader():
        for key in sample:
            try:
                value = yield from db.get(key)
            except Exception:
                failed[0] += 1
                continue
            if value != value_for(key, cfg.value_size):
                failed[0] += 1
        for start in seeks:
            i = bisect.bisect_left(acked, start)
            want = [(k, value_for(k, cfg.value_size))
                    for k in acked[i:i + nexts]]
            try:
                got = yield from db.scan(start, nexts)
            except Exception:
                failed[0] += 1
                continue
            if list(got) != want:
                failed[0] += 1

    env.run(until=env.process(reader(), name="perfbench-check"))
    return len(sample) + len(seeks), failed[0]


def sim_metrics(result) -> dict:
    """Simulated-time results of the measured phase; deterministic for a
    given seed."""
    wl = result.write_latency or {}
    rl = result.read_latency or {}
    dur = result.duration
    return {
        "sim_kops": (result.write_ops + result.read_ops) / dur / 1e3,
        "sim_write_kops": result.write_ops / dur / 1e3,
        "sim_read_kops": result.read_ops / dur / 1e3,
        "sim_write_p50_us": wl.get("p50", 0.0),
        "sim_write_p99_us": wl.get("p99", 0.0),
        "sim_write_lat_samples": wl.get("count", 0),
        "sim_read_p99_us": rl.get("p99", 0.0),
        "sim_read_lat_samples": rl.get("count", 0),
        "sim_stall_s": result.total_stall_time,
        "sim_efficiency": result.efficiency,
    }


class _PhaseHook:
    """Brackets the measured phase inside ``run_workload``.

    The phase starts at the driver's ``start()`` and ends when
    ``run_workload`` closes the db, after it has collected the results.
    ``on_end`` runs at that point, before the real ``close()``, so the
    output checks read a system that is still open: a rollback or
    compaction left in flight finishes beside the checking reads.  On the
    scan workload every seek of the phase is also checked to return keys
    in ascending order from its start key."""

    def __init__(self, on_start, on_end):
        self.driver = self.env = self.db = None
        self.cpu0 = self.wall0 = self.cpu1 = self.wall1 = None
        self.events0 = self.events1 = None
        self.unordered_seeks = 0
        self._on_start, self._on_end = on_start, on_end
        self._patched = []

    def install(self):
        from repro.workload import db_bench
        for cls in (db_bench.FillRandomDriver,
                    db_bench.ReadWhileWritingDriver,
                    db_bench.SeekRandomDriver):
            original = cls.start
            self._patched.append((cls, original))
            cls.start = self._wrap_start(original)
        return self

    def uninstall(self):
        for cls, original in self._patched:
            cls.start = original
        self._patched.clear()

    def _wrap_start(self, original):
        hook = self

        def start(driver):
            hook.driver, hook.env, hook.db = driver, driver.env, driver.db
            hook._on_start(hook.env, hook.db)
            if hasattr(driver, "nexts_per_seek"):
                hook._check_scan_order(hook.db)
            hook.db.close = hook._wrap_close(hook.db)
            hook.events0 = hook.env.events_scheduled
            hook.cpu0, hook.wall0 = time.process_time(), time.perf_counter()
            return original(driver)

        return start

    def _wrap_close(self, db):
        def close():
            self.cpu1, self.wall1 = time.process_time(), time.perf_counter()
            self.events1 = self.env.events_scheduled
            del db.close
            self._on_end(self.env, db)
            db.close()

        return close

    def _check_scan_order(self, db):
        scan = db.scan

        def ordered_scan(start_key, count):
            out = yield from scan(start_key, count)
            keys = [k for k, _ in out]
            if (keys and keys[0] < start_key) or any(
                    a >= b for a, b in zip(keys, keys[1:])):
                self.unordered_seeks += 1
            return out

        db.scan = ordered_scan


def run_cell(workload: str, seed: int, trace: bool,
             speed=None, started: float | None = None) -> dict:
    """One cell.  ``speed`` is an installed :class:`hostspeed.HostSpeed`
    sampling since ``started`` (a ``perf_counter`` reading)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no simulator source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {ROOT / 'src'}")
    from repro.bench.profiles import get_profile
    from repro.bench.runner import RunSpec, run_workload
    from repro.workload import WORKLOADS as TABLE_IV, DriverConfig

    profile = get_profile(PROFILE)
    spec = RunSpec(seed=seed, **WORKLOADS[workload])
    kind = TABLE_IV[spec.workload].kind
    cfg = DriverConfig(duration=spec.duration, key_space=profile.key_space,
                       key_size=profile.key_size,
                       value_size=profile.value_size,
                       batch_size=profile.batch_size, seed=seed)
    tracer = None
    counters = {}
    checked = {}
    if trace:
        import layers
        tracer = layers.LayerTrace().install()

    def on_start(env, db):
        if tracer is not None:
            counters["before"] = layers.model_counters(env, db)
            tracer.reset()

    def on_end(env, db):
        if tracer is not None:
            tracer.stop()
            counters["after"] = layers.model_counters(env, db)
        checked["attempted"], checked["failed"] = check_outputs(
            env, db, profile, cfg, kind, hook.driver.write_ops, seed)

    hook = _PhaseHook(on_start, on_end).install()
    try:
        result = run_workload(spec, profile)
    finally:
        hook.uninstall()
        if tracer is not None:
            tracer.uninstall()

    ops = result.write_ops + result.read_ops
    setup = phase = (0, 0.0, 1.0)
    if speed is not None:
        setup = speed.window(started, hook.wall0)
        phase = speed.window(hook.wall0, hook.wall1)
    # Host times net of the probes, and scaled to the reference speed.
    setup_s = hook.cpu0 - setup[1]
    cpu_s = hook.cpu1 - hook.cpu0 - phase[1]
    wall_s = hook.wall1 - hook.wall0 - phase[1]
    doc = {
        "workload": workload,
        "seed": seed,
        "ops": ops,
        "attempted": ops + checked["attempted"],
        "failed": checked["failed"] + hook.unordered_seeks,
        "setup_cpu_s": setup_s,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "setup_ref_s": setup_s * setup[2],
        "cpu_ref_s": cpu_s * phase[2],
        "wall_ref_s": wall_s * phase[2],
        "host_samples": setup[0] + phase[0],
        "sim": sim_metrics(result),
        "sim_events": hook.events1 - hook.events0,
    }
    if tracer is not None:
        doc["layers"] = layers.layer_metrics(tracer, counters["before"],
                                             counters["after"], ops)
        doc["leftover_wrappers"] = layers.leftover_wrappers()
    # ru_maxrss is in KiB on Linux.
    doc["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    speed = None if args.trace else hostspeed.HostSpeed().install()
    try:
        doc = run_cell(args.workload, args.seed, args.trace, speed, STARTED)
    finally:
        if speed is not None:
            speed.uninstall()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
