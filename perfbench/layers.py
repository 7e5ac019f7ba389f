"""Per-layer host-time trace for the benchmark's traced run.

The simulator is left untouched: :class:`LayerTrace` wraps the public
entry points of each layer (plus the daemon generators whose host time
would otherwise land in the kernel's run loop) from the outside, and
restores every one of them on :meth:`LayerTrace.uninstall`.

Accounting model.  A span opens when a wrapped call starts and closes
when it returns.  A wrapped *generator* is timed per resumption: its span
opens when the kernel (or a ``yield from`` caller) resumes it and closes
at its next ``yield``, so sim-time spent suspended is never host time.
Spans nest as a call stack; a span's self time is its duration minus the
durations of the spans opened inside it, and CPU time spent with no span
open is "unattributed".  Self times plus unattributed time therefore
partition the traced interval exactly, which :meth:`LayerTrace.report`
checks.  Sim-time waiting is the simulated time a layer's generator entry
points spent suspended between resumptions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

__all__ = ["LAYERS", "LAYER_METRICS", "LayerTrace", "layer_metrics",
           "leftover_wrappers", "model_counters", "with_untraced"]

_MARK = "_perfbench_layer"

# layer -> entry points, as "module:Class.attr" or "module:function".
# A module-level function is patched in every ``repro`` module that
# imported it by name.
LAYERS: dict[str, tuple[str, ...]] = {
    "sim": ("repro.sim.core:Environment.run",
            "repro.sim.core:Environment.timeout",
            "repro.sim.core:Environment.process"),
    "workload": ("repro.workload.db_bench:FillRandomDriver._run",
                 "repro.workload.db_bench:ReadWhileWritingDriver._writer",
                 "repro.workload.db_bench:ReadWhileWritingDriver._reader",
                 "repro.workload.db_bench:SeekRandomDriver._run",
                 "repro.workload.db_bench:_DriverBase._make_batch"),
    "lsm.write": ("repro.lsm.db:DbImpl.put",
                  "repro.lsm.db:DbImpl.put_batch",
                  "repro.lsm.db:DbImpl.delete",
                  "repro.lsm.db:DbImpl.write_entries",
                  "repro.lsm.wal:Wal.append",
                  "repro.lsm.wal:Wal.sync"),
    "lsm.read": ("repro.lsm.db:DbImpl.get",
                 "repro.lsm.db:DbImpl.get_internal",
                 "repro.lsm.db:DbImpl.scan",
                 "repro.lsm.db:DbImpl.scan_internal"),
    "lsm.version": ("repro.lsm.version:Version.level_bytes",
                    "repro.lsm.version:Version.pending_compaction_bytes",
                    "repro.lsm.version:Version.level_targets"),
    "lsm.sstable": ("repro.lsm.sstable:SSTable.__init__",
                    "repro.lsm.sstable:SSTable.probe",
                    "repro.lsm.sstable:SSTable.lower_bound"),
    "lsm.bloom": ("repro.lsm.bloom:BloomFilter.__init__",
                  "repro.lsm.bloom:BloomFilter.add",
                  "repro.lsm.bloom:BloomFilter.add_all",
                  "repro.lsm.bloom:BloomFilter.may_contain"),
    "lsm.flush": ("repro.lsm.db:DbImpl._flush_worker",
                  "repro.lsm.db:DbImpl._flush_one"),
    "lsm.compaction": ("repro.lsm.db:DbImpl._compaction_scheduler",
                       "repro.lsm.db:DbImpl._compaction_entry",
                       "repro.lsm.db:DbImpl._run_compaction",
                       "repro.lsm.compaction:CompactionPicker.pick",
                       "repro.lsm.compaction:merge_for_compaction",
                       "repro.lsm.compaction:split_into_files"),
    "lsm.wc": ("repro.lsm.write_controller:WriteController.gate",
               "repro.lsm.write_controller:WriteController.refresh"),
    "lsm.fs": ("repro.lsm.fs:FileSystem.append",
               "repro.lsm.fs:FileSystem.read",
               "repro.lsm.fs:FileSystem.read_all"),
    "core": ("repro.core.kvaccel:KvaccelDb.put",
             "repro.core.kvaccel:KvaccelDb.put_batch",
             "repro.core.kvaccel:KvaccelDb.delete",
             "repro.core.kvaccel:KvaccelDb.get",
             "repro.core.kvaccel:KvaccelDb.scan",
             "repro.core.controller:KvaccelController.put",
             "repro.core.controller:KvaccelController.put_batch",
             "repro.core.controller:KvaccelController.delete",
             "repro.core.controller:KvaccelController.get",
             "repro.core.metadata:MetadataManager.insert",
             "repro.core.metadata:MetadataManager.contains",
             "repro.core.metadata:MetadataManager.remove"),
    "core.detector": ("repro.core.detector:WriteStallDetector._run",
                      "repro.core.detector:WriteStallDetector.evaluate"),
    "core.rollback": ("repro.core.rollback:RollbackManager._run",
                      "repro.core.rollback:RollbackManager.rollback_once"),
    "core.range_query": ("repro.core.range_query:range_query",
                         "repro.core.range_query:DualIterator.seek",
                         "repro.core.range_query:DualIterator.next"),
    "device.pcie": ("repro.device.pcie:PcieLink.transfer",
                    "repro.device.pcie:PcieLink.transfer_burst"),
    "device.nand": ("repro.device.nand:NandArray.io",
                    "repro.device.nand:NandArray.io_burst"),
    "device.ftl": ("repro.device.ftl:Ftl.write",
                   "repro.device.ftl:Ftl.write_batch",
                   "repro.device.ftl:Ftl.read",
                   "repro.device.ftl:Ftl.trim"),
    # Every block and KV command runs inside its device's ``_call``.
    "device.block": ("repro.device.block_dev:BlockDevice._call",),
    "device.kv": ("repro.device.kv_dev:KvDevice._call",
                  "repro.device.kv_dev:KvDevice.create_iterator",
                  "repro.device.kv_dev:KvDevice.iter_seek",
                  "repro.device.kv_dev:KvDevice.iter_next"),
    "device.devlsm": ("repro.device.devlsm:DevLsm.put",
                      "repro.device.devlsm:DevLsm.get",
                      "repro.device.devlsm:DevLsm._flush",
                      "repro.device.devlsm:DevLsm._compact",
                      "repro.device.devlsm:DevLsm.create_iterator",
                      "repro.device.devlsm:DevLsm.bulk_scan"),
    "device.cpu": ("repro.device.cpu:CpuModel.consume",
                   "repro.device.cpu:CpuModel.charge"),
    "cluster": ("repro.cluster.cluster:ClusterDb.put",
                "repro.cluster.cluster:ClusterDb.put_batch",
                "repro.cluster.cluster:ClusterDb.delete",
                "repro.cluster.cluster:ClusterDb.get",
                "repro.cluster.cluster:ClusterDb.scan"),
    "cluster.router": ("repro.cluster.router:HashRouter.route",
                       "repro.cluster.router:RangeRouter.route",
                       "repro.cluster.router:Router.split_batch"),
    "metrics": ("repro.metrics.collector:RunCollector.result",
                "repro.sim.samplers:PeriodicSampler._run",
                "repro.sim.samplers:RateMeter.add",
                "repro.metrics.histogram:LatencyHistogram.record",
                "repro.lsm.db:DbStats.record_write_latency",
                "repro.lsm.db:DbStats.record_read_latency",
                "repro.device.pcie:TrafficLedger.record"),
}

# Called ~10 times per written entry: counted, not timed, so the span
# bookkeeping does not dwarf the function it measures.
COUNTED = ("repro.types:entry_size",)

# Layers whose entry points include generators (they report sim waiting).
WAIT_LAYERS = ("workload", "lsm.write", "lsm.read", "lsm.flush",
               "lsm.compaction", "lsm.wc", "lsm.fs", "core", "core.detector",
               "core.rollback", "core.range_query", "device.pcie",
               "device.nand", "device.block", "device.kv", "device.devlsm",
               "device.cpu", "cluster", "metrics")

_clock = time.process_time_ns


def _transfer_args(_pipe, amount, direction="tx"):
    """Mirror of ``BandwidthPipe.transfer{,_burst}``'s parameters."""
    return amount, direction


def _resolve(target: str):
    """``"mod:Class.attr"`` -> (owner class, attr, function) or
    ``"mod:func"`` -> (module, name, function)."""
    modname, _, path = target.partition(":")
    owner = importlib.import_module(modname)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class LayerTrace:
    """Installs the span wrappers and accumulates per-layer host time."""

    def __init__(self):
        self.layers = list(LAYERS)
        self.self_ns = [0] * len(self.layers)
        self.wait_s = [0.0] * len(self.layers)
        self.targets = [t for ts in LAYERS.values() for t in ts] + list(COUNTED)
        self.calls = [0] * len(self.targets)
        # Observed values that no call count gives: keyed by name.
        self.observed = {"timeout_pool_hits": 0, "bloom_negatives": 0,
                         "pcie_tx_bytes": 0.0, "pcie_rx_bytes": 0.0,
                         "fanout_calls": 0}
        self.env = None
        self._stack: list = []          # [layer, start_ns, child_ns]
        self._idle_ns = 0
        self._t0 = self._idle_since = _clock()
        self._frozen: dict = {}
        self._patches: list = []        # (owner, name, original, had_own)

    # -- span bookkeeping ----------------------------------------------------
    def _enter(self, layer: int) -> None:
        now = _clock()
        stack = self._stack
        if not stack:
            self._idle_ns += now - self._idle_since
        stack.append([layer, now, 0])

    def _exit(self) -> None:
        now = _clock()
        stack = self._stack
        layer, start, child = stack.pop()
        dur = now - start
        self.self_ns[layer] += dur - child
        if stack:
            stack[-1][2] += dur
        else:
            self._idle_since = now

    def reset(self) -> None:
        """Start the measured interval: zero every accumulator.  Called
        between kernel runs, when no span is open."""
        if self._stack:
            raise RuntimeError("reset() with open spans")
        for acc in (self.self_ns, self.wait_s, self.calls):
            acc[:] = [0] * len(acc)
        for k in self.observed:
            self.observed[k] = 0
        self._idle_ns = 0
        self._t0 = self._idle_since = _clock()

    # -- wrappers --------------------------------------------------------------
    def _wrap_plain(self, fn, layer: int, idx: int, target: str):
        calls, enter, exit_ = self.calls, self._enter, self._exit
        before = after = None
        if target == "repro.sim.core:Environment.run":
            def before(args):
                self.env = args[0]
        elif target == "repro.sim.core:Environment.timeout":
            def before(args):
                if args[0]._timeout_pool:
                    self.observed["timeout_pool_hits"] += 1
        elif target == "repro.lsm.bloom:BloomFilter.may_contain":
            def after(args, result):
                if not result:
                    self.observed["bloom_negatives"] += 1
        elif target == "repro.cluster.router:Router.split_batch":
            def after(args, result):
                self.observed["fanout_calls"] += len(result)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[idx] += 1
            if before is not None:
                before(args)
            enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, layer: int, idx: int, target: str):
        calls, enter, exit_, wait_s = (self.calls, self._enter, self._exit,
                                       self.wait_s)
        on_call = None
        if target == "repro.device.pcie:PcieLink.transfer":
            def on_call(args, kwargs):
                nbytes, direction = _transfer_args(*args, **kwargs)
                self.observed[f"pcie_{direction}_bytes"] += nbytes
        elif target == "repro.device.pcie:PcieLink.transfer_burst":
            def on_call(args, kwargs):
                sizes, direction = _transfer_args(*args, **kwargs)
                # A one-chunk burst is forwarded to transfer(), which
                # counts it.
                if len(sizes) > 1:
                    self.observed[f"pcie_{direction}_bytes"] += sum(sizes)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[idx] += 1
            if on_call is not None:
                on_call(args, kwargs)
            inner = fn(*args, **kwargs)
            step, arg = inner.send, None
            while True:
                enter(layer)
                try:
                    # The one-slot list is popped at the yield so this
                    # frame holds no reference to the yielded event while
                    # suspended: the kernel recycles unreferenced events.
                    box = [step(arg)]
                except StopIteration as stop:
                    return stop.value
                finally:
                    exit_()
                t_wait = self.env.now if self.env is not None else 0.0
                try:
                    arg = yield box.pop()
                    step = inner.send
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # forwarded, e.g. Interrupt
                    step, arg = inner.throw, exc
                if self.env is not None:
                    wait_s[layer] += self.env.now - t_wait

        return wrapper

    def _wrap_counted(self, fn, idx: int):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[idx] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, name: str, original, wrapper) -> None:
        setattr(wrapper, _MARK, True)
        if inspect.ismodule(owner):
            # Patch the function wherever a repro module imported it.
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("repro")
                        and getattr(mod, name, None) is original):
                    self._patches.append((mod, name, original, True))
                    setattr(mod, name, wrapper)
            return
        self._patches.append((owner, name, original, name in vars(owner)))
        setattr(owner, name, wrapper)

    def install(self) -> "LayerTrace":
        """Wrap every entry point.  Call before the system is built, so
        daemon generators started at construction are wrapped too."""
        if self._patches:
            raise RuntimeError("already installed")
        for idx, target in enumerate(self.targets):
            owner, name, fn = _resolve(target)
            if target in COUNTED:
                wrapper = self._wrap_counted(fn, idx)
            else:
                layer = next(i for i, l in enumerate(self.layers)
                             if target in LAYERS[l])
                wrap = (self._wrap_generator if inspect.isgeneratorfunction(fn)
                        else self._wrap_plain)
                wrapper = wrap(fn, layer, idx, target)
            self._patch(owner, name, fn, wrapper)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, name, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches.clear()

    # -- results -----------------------------------------------------------------
    def stop(self) -> None:
        """End the measured interval (no span may be open) and freeze its
        figures: daemon generators wrapped before :meth:`uninstall` keep
        running in later kernel runs."""
        if self._stack:
            raise RuntimeError("stop() with open spans")
        now = _clock()
        self._frozen = {
            "self_ns": list(self.self_ns), "wait_s": list(self.wait_s),
            "calls": list(self.calls), "observed": dict(self.observed),
            "idle_ns": self._idle_ns + now - self._idle_since,
            "total_ns": now - self._t0}

    def report(self) -> dict:
        """Figures of the interval ended by :meth:`stop`: per-layer self
        CPU and sim waiting, call counts, observed values, unattributed
        CPU and the traced CPU.  Raises if self times and unattributed
        time do not partition the traced CPU."""
        f = self._frozen
        total, idle = f["total_ns"], f["idle_ns"]
        attributed = sum(f["self_ns"])
        if abs(attributed + idle - total) > 1_000_000:   # 1 ms
            raise RuntimeError(
                f"span accounting: {attributed} + {idle} ns "
                f"!= {total} ns traced")
        return {"self_cpu_s": {l: ns / 1e9 for l, ns
                               in zip(self.layers, f["self_ns"])},
                "sim_wait_s": dict(zip(self.layers, f["wait_s"])),
                "calls": dict(zip(self.targets, f["calls"])),
                "observed": f["observed"],
                "unattributed_cpu_s": idle / 1e9,
                "traced_cpu_s": total / 1e9}


def leftover_wrappers() -> list:
    """Names of any trace wrapper still reachable from a ``repro`` module
    or class (empty after a clean :meth:`LayerTrace.uninstall`)."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("repro"):
            continue
        for name, value in list(vars(mod).items()):
            if getattr(value, _MARK, False):
                out.append(f"{modname}.{name}")
            if (inspect.isclass(value)
                    and getattr(value, "__module__", "").startswith("repro")):
                for attr, member in vars(value).items():
                    if getattr(member, _MARK, False):
                        out.append(f"{modname}.{name}.{attr}")
    return sorted(set(out))


# -- model-side counters --------------------------------------------------------
def _stacks(db) -> list:
    """The per-node stores behind a facade: cluster shards, or the db."""
    shards = getattr(db, "shards", None)
    return [sh.db for sh in shards] if shards is not None else [db]


def model_counters(env, db) -> dict:
    """Cumulative counters the model keeps itself; the traced run takes
    their difference across the measured phase."""
    c: dict = {}

    def add(name, value):
        c[name] = c.get(name, 0) + value

    add("sim.events", env.events_scheduled)
    add("sim.macro_ops", env.macro.ops)
    add("sim.macro_events", env.macro.events)
    for node in _stacks(db):
        kvaccel = getattr(node, "controller", None) is not None
        main = node.main if kvaccel else node
        st = main.stats
        add("lsm.user_write_bytes", st.user_write_bytes)
        add("lsm.flush.count", st.flushes)
        add("lsm.flush.bytes", st.flush_bytes_written)
        add("lsm.compaction.count", st.compactions)
        add("lsm.compaction.bytes_read", st.compaction_bytes_read)
        add("lsm.compaction.bytes_written", st.compaction_bytes_written)
        wc = main.write_controller
        add("lsm.wc.stall_events", wc.stall_events)
        add("lsm.wc.slowdown_events", wc.slowdown_events)
        add("lsm.wc.delayed_s", wc.total_delayed_time)
        add("lsm.page_cache.hits", main.page_cache.hits)
        add("lsm.page_cache.misses", main.page_cache.misses)
        dev = main.fs.device
        add("device.pcie.busy_s", dev.pcie.busy_time)
        add("device.nand.busy_s", dev.nand.busy_time)
        for gc in dev.ftl.gc_stats.values():
            add("device.ftl.gc_invocations", gc.invocations)
            add("device.ftl.pages_moved", gc.pages_moved)
        add("device.cpu.host_busy_s", main.host_cpu.total_busy)
        if kvaccel:
            ctl = node.controller
            add("core.redirected", ctl.redirected_writes)
            add("core.normal", ctl.normal_writes)
            add("core.detector.checks", node.detector.checks)
            add("core.detector.transitions", node.detector.transitions)
            add("core.rollback.count", node.rollback_manager.rollback_count)
            add("core.rollback.entries",
                node.rollback_manager.total_entries_rolled_back)
            add("device.devlsm.flushes", node.ssd.devlsm.flush_count)
            add("device.devlsm.compactions",
                node.ssd.devlsm.compaction_count)
    shards = getattr(db, "shards", None)
    c["cluster.shard_ops"] = ([sh.write_ops + sh.read_ops for sh in shards]
                              if shards is not None else [])
    return c


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS: dict[str, str] = {}


def _declare(names, unit):
    for n in names:
        LAYER_METRICS[n] = unit


_declare(["sim.events", "workload.ops_issued", "lsm.version.calls",
          "lsm.sstable.builds", "lsm.entry_size.calls", "lsm.flush.count",
          "lsm.compaction.count", "lsm.wc.stall_events",
          "lsm.wc.slowdown_events", "lsm.wc.gate_calls", "lsm.read.gets",
          "core.detector.checks", "core.detector.transitions",
          "core.rollback.count", "core.rollback.entries",
          "device.ftl.gc_invocations", "device.ftl.pages_moved",
          "device.devlsm.flushes", "device.devlsm.compactions",
          "cluster.routed_ops", "cluster.fanout_calls"], "count")
_declare(["lsm.flush.bytes", "lsm.compaction.bytes_read",
          "lsm.compaction.bytes_written", "device.pcie.tx_bytes",
          "device.pcie.rx_bytes"], "B")
_declare(["sim.events_per_cpu_s"], "1/s")
_declare(["sim.timeout_pool_hit_rate", "sim.macro_coalesce", "lsm.write_amp",
          "lsm.read.sst_probes_per_get", "lsm.bloom.useful_ratio",
          "lsm.page_cache.hit_rate", "core.redirect_share",
          "cluster.shard_imbalance", "trace.overhead"], "ratio")
_declare(["lsm.wc.delayed_s", "device.pcie.busy_s", "device.nand.busy_s",
          "device.cpu.host_busy_s"], "sim-s")
_declare([f"{l}.self_cpu_s" for l in LAYERS] + ["trace.unattributed_cpu_s"],
         "s")
_declare([f"{l}.sim_wait_s" for l in WAIT_LAYERS], "sim-s")


# Metrics whose base is the untraced run's CPU time (see with_untraced).
UNTRACED_BASED = ("sim.events_per_cpu_s", "trace.overhead")


def layer_metrics(trace: LayerTrace, before: dict, after: dict,
                  ops_issued: int) -> dict:
    """Every name in :data:`LAYER_METRICS` but :data:`UNTRACED_BASED`
    -> value, for one traced run.  ``before``/``after`` are
    :func:`model_counters` at the start and end of the measured phase."""
    rep = trace.report()
    observed = rep["observed"]

    def calls(*targets):
        return sum(rep["calls"][t] for t in targets)

    d = {k: after[k] - before.get(k, 0) for k in after
         if k != "cluster.shard_ops"}
    m = {}
    m["sim.events"] = d["sim.events"]
    m["sim.timeout_pool_hit_rate"] = _ratio(
        observed["timeout_pool_hits"],
        calls("repro.sim.core:Environment.timeout"))
    m["sim.macro_coalesce"] = _ratio(d["sim.macro_ops"], d["sim.macro_events"])
    m["workload.ops_issued"] = ops_issued
    m["lsm.version.calls"] = calls(*LAYERS["lsm.version"])
    m["lsm.sstable.builds"] = calls("repro.lsm.sstable:SSTable.__init__")
    m["lsm.entry_size.calls"] = calls(*COUNTED)
    for k in ("lsm.flush.count", "lsm.flush.bytes", "lsm.compaction.count",
              "lsm.compaction.bytes_read", "lsm.compaction.bytes_written",
              "lsm.wc.stall_events", "lsm.wc.slowdown_events",
              "lsm.wc.delayed_s", "device.pcie.busy_s", "device.nand.busy_s",
              "device.ftl.gc_invocations", "device.ftl.pages_moved",
              "device.cpu.host_busy_s"):
        m[k] = d[k]
    # Bytes the Main-LSM wrote to storage per byte its users wrote.
    m["lsm.write_amp"] = _ratio(
        d["lsm.flush.bytes"] + d["lsm.compaction.bytes_written"],
        d["lsm.user_write_bytes"])
    m["lsm.wc.gate_calls"] = calls(
        "repro.lsm.write_controller:WriteController.gate")
    gets = calls("repro.lsm.db:DbImpl.get_internal")
    m["lsm.read.gets"] = gets
    m["lsm.read.sst_probes_per_get"] = _ratio(
        calls("repro.lsm.sstable:SSTable.probe"), gets)
    m["lsm.bloom.useful_ratio"] = _ratio(
        observed["bloom_negatives"],
        calls("repro.lsm.bloom:BloomFilter.may_contain"))
    m["lsm.page_cache.hit_rate"] = _ratio(
        d["lsm.page_cache.hits"],
        d["lsm.page_cache.hits"] + d["lsm.page_cache.misses"])
    m["core.redirect_share"] = _ratio(
        d.get("core.redirected", 0),
        d.get("core.redirected", 0) + d.get("core.normal", 0))
    for k in ("core.detector.checks", "core.detector.transitions",
              "core.rollback.count", "core.rollback.entries",
              "device.devlsm.flushes", "device.devlsm.compactions"):
        m[k] = d.get(k, 0)
    m["device.pcie.tx_bytes"] = observed["pcie_tx_bytes"]
    m["device.pcie.rx_bytes"] = observed["pcie_rx_bytes"]
    m["cluster.routed_ops"] = calls(
        "repro.cluster.router:HashRouter.route",
        "repro.cluster.router:RangeRouter.route")
    m["cluster.fanout_calls"] = observed["fanout_calls"]
    shard_ops = [a - b for a, b in zip(after["cluster.shard_ops"],
                                       before["cluster.shard_ops"])]
    m["cluster.shard_imbalance"] = (
        _ratio(max(shard_ops), sum(shard_ops) / len(shard_ops))
        if shard_ops else 0.0)
    for layer, s in rep["self_cpu_s"].items():
        m[f"{layer}.self_cpu_s"] = s
    for layer in WAIT_LAYERS:
        m[f"{layer}.sim_wait_s"] = rep["sim_wait_s"][layer]
    m["trace.unattributed_cpu_s"] = rep["unattributed_cpu_s"]
    missing = set(LAYER_METRICS) - set(m) - set(UNTRACED_BASED)
    if missing:
        raise KeyError(f"layer metrics not computed: {sorted(missing)}")
    return m


def with_untraced(metrics: dict, traced_cpu_s: float,
                  untraced_cpu_s: float) -> dict:
    """Add the metrics based on the untraced run's CPU time of the same
    measured phase: kernel events per untraced CPU-second, and the
    tracing overhead (traced CPU / untraced CPU)."""
    out = dict(metrics)
    out["sim.events_per_cpu_s"] = _ratio(metrics["sim.events"],
                                         untraced_cpu_s)
    out["trace.overhead"] = _ratio(traced_cpu_s, untraced_cpu_s)
    return out
