"""Lockstep equivalence of the kernel's dispatch paths.

``Environment.run`` has two dispatch loops: the inlined fast loop, and
one instrumented loop that runs while the kernel profiler, the journal,
or both are installed.  ``step()`` is the cold reference dispatcher.
All of them must execute the *same events in the same order* on the
same workload, under each of ``run()``'s three stop conditions (drain,
an exclusive deadline, a stop event) — the fast paths are allowed to
change how fast the simulator runs, never what it computes.  The
journal's per-event records give an exact event-stream fingerprint; a
workload-level trace covers the loops that do not journal, and the
profiler's pop count must match the journaled stream's length.
"""

import pytest

from repro.obs import Journal
from repro.sim import (
    AllOf,
    Environment,
    Interrupt,
    Resource,
    install_kernel_profiler,
)

# The interrupter's timeout fires exactly here, so an exclusive deadline
# must leave it (and the interrupt it sends) pending.
DEADLINE = 1.5
STOPS = ("drain", "deadline", "process")


def build_workload(env: Environment, trace: list):
    """A deterministic mix of every hot event pattern: timeouts (incl.
    zero-delay), event signalling (the now lane), priority interrupts,
    resource handoffs, schedule_at, AllOf joins and spawn churn.  Returns
    the interrupted sleeper, the process ``until=<process>`` joins."""
    res = Resource(env, capacity=2)
    gate = env.event()

    def ticker(name, delay, n):
        for i in range(n):
            yield env.timeout(delay)
            trace.append((env.now, name, i))

    def zero_delay(name, n):
        for i in range(n):
            yield env.timeout(0)
            trace.append((env.now, name, i))

    def signaller():
        yield env.timeout(0.5)
        gate.succeed("open")
        trace.append((env.now, "signalled", 0))

    def waiter(name):
        v = yield gate
        trace.append((env.now, name, v))
        with res.request() as req:
            yield req
            yield env.timeout(0.25)
        trace.append((env.now, name, "released"))

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            trace.append((env.now, "interrupted", exc.cause))

    def interrupter(victim):
        yield env.timeout(1.5)
        victim.interrupt("wake")

    def spawner(n):
        children = [env.process(ticker(f"child{i}", 0.1 + i * 0.01, 3),
                                name=f"child{i}")
                    for i in range(n)]
        yield AllOf(env, children)
        trace.append((env.now, "joined", n))

    def scheduled():
        ev = env.event()
        env.schedule_at(ev, 2.0)
        yield ev
        trace.append((env.now, "at", None))

    for i in range(4):
        env.process(ticker(f"t{i}", 0.3 + i * 1e-3, 8), name=f"t{i}")
    env.process(zero_delay("z", 5))
    env.process(signaller())
    # Distinct names, so the journal's owner field tells the gate's three
    # waiters (one fast slot, two callbacks) apart.
    for i in range(3):
        env.process(waiter(f"w{i}"), name=f"w{i}")
    victim = env.process(sleeper())
    env.process(interrupter(victim))
    env.process(spawner(4))
    env.process(scheduled())
    return victim


def _journal_events(journal):
    return [rec for rec in journal.records if rec[0] == "event"]


def _run(stop, profiled=False, journaled=False):
    """One run()-driven run; returns (env, trace, journal, profile, result)."""
    env, trace = Environment(), []
    victim = build_workload(env, trace)
    jr = Journal(period=0.5).install(env) if journaled else None
    prof = install_kernel_profiler(env) if profiled else None
    until = {"drain": None, "deadline": DEADLINE, "process": victim}[stop]
    result = env.run(until=until)
    return env, trace, jr, prof, result


def _run_stepped(stop):
    """The same run driven by step(), the reference dispatcher."""
    env, trace = Environment(), []
    victim = build_workload(env, trace)
    jr = Journal(period=0.5).install(env)
    result = None
    if stop == "drain":
        while len(env._queue):
            env.step()
    elif stop == "deadline":
        while env.peek() < DEADLINE:
            env.step()
        env._now = DEADLINE   # run(until=t) leaves the clock on t
    else:
        while not victim.processed:
            env.step()
        result = victim.value
    return env, trace, jr, None, result


def _all_paths(stop):
    return {
        "plain": _run(stop),
        "profiled": _run(stop, profiled=True),
        "journaled": _run(stop, journaled=True),
        "profiled+journaled": _run(stop, profiled=True, journaled=True),
        "stepped": _run_stepped(stop),
    }


@pytest.mark.parametrize("stop", STOPS)
def test_dispatch_paths_execute_identical_event_sequences(stop):
    runs = _all_paths(stop)

    ref_env, ref_trace, _, _, ref_result = runs["plain"]
    for name, (env, trace, _jr, _prof, result) in runs.items():
        assert trace == ref_trace, f"{name} diverged from the plain loop"
        assert env.now == ref_env.now, name
        assert env.events_scheduled == ref_env.events_scheduled, name
        assert len(env._queue) == len(ref_env._queue), name
        assert env.peek() == ref_env.peek(), name
        assert result == ref_result, name
    if stop == "deadline":
        assert ref_env.now == DEADLINE
        assert ref_env.peek() == DEADLINE, "deadline is not exclusive"
    elif stop == "process":
        assert len(ref_env._queue), "the stop event did not stop the run"

    # Event-by-event: the journal-capable paths must produce the exact
    # same (idx, t, proc, class) stream, and the profiler must pop
    # exactly that many events.
    ref_events = _journal_events(runs["journaled"][2])
    assert ref_events, "journal recorded no events"
    for name in ("profiled+journaled", "stepped"):
        assert _journal_events(runs[name][2]) == ref_events, name
    for name in ("profiled", "profiled+journaled"):
        assert runs[name][3].heap_pops == len(ref_events), name


@pytest.mark.parametrize("stop", STOPS)
def test_lockstep_holds_under_forced_calendar_mode(monkeypatch, stop):
    ref = _run(stop, journaled=True)
    monkeypatch.setenv("REPRO_SCHED", "cal")
    forced = _all_paths(stop)
    for name, (env, trace, jr, _prof, result) in forced.items():
        assert trace == ref[1], f"forced-cal {name} diverged"
        assert env.now == ref[0].now
        assert result == ref[4], name
        if jr is not None:
            assert _journal_events(jr) == _journal_events(ref[2]), name
