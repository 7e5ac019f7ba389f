"""Edge-case tests for the DES kernel (failure paths, composites)."""

import pytest

from repro.obs import Journal
from repro.sim import (
    Environment,
    Interrupt,
    SimulationError,
    install_kernel_profiler,
)

INF = float("inf")
# run()'s inlined loop, and the instrumented loop in each configuration.
LOOPS = ("plain", "profiled", "journaled", "profiled+journaled")


def _env(loop):
    env = Environment()
    if "profiled" in loop:
        install_kernel_profiler(env)
    if "journaled" in loop:
        Journal(period=1.0).install(env)
    return env


def test_anyof_failing_child_propagates():
    env = Environment()
    caught = []

    def failer():
        yield env.timeout(1)
        raise ValueError("child failed")

    def waiter():
        p = env.process(failer())
        t = env.timeout(5)
        try:
            yield env.any_of([p, t])
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter())
    env.run()
    assert caught == ["child failed"]


def test_allof_failing_child_propagates():
    env = Environment()
    caught = []

    def failer():
        yield env.timeout(1)
        raise KeyError("boom")

    def waiter():
        try:
            yield env.all_of([env.process(failer()), env.timeout(3)])
        except KeyError:
            caught.append(env.now)

    env.process(waiter())
    env.run()
    assert caught == [1]


def test_allof_empty_fires_immediately():
    env = Environment()
    done = []

    def waiter():
        result = yield env.all_of([])
        done.append((env.now, result))

    env.process(waiter())
    env.run()
    assert done == [(0, {})]


def test_yield_already_failed_processed_event():
    env = Environment()
    ev = env.event()
    caught = []

    def observer():
        # let the failure get processed first
        yield env.timeout(2)
        try:
            yield ev
        except RuntimeError:
            caught.append(env.now)

    def failer():
        yield env.timeout(1)
        ev.defuse()
        ev.fail(RuntimeError("late"))

    env.process(observer())
    env.process(failer())
    env.run()
    assert caught == [2]


def test_interrupt_cause_accessible():
    env = Environment()
    causes = []

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            causes.append(intr.cause)

    p = env.process(sleeper())

    def interrupter():
        yield env.timeout(1)
        p.interrupt({"reason": "crash"})

    env.process(interrupter())
    env.run()
    assert causes == [{"reason": "crash"}]


def test_interrupted_process_can_keep_running():
    env = Environment()
    log = []

    def resilient():
        for _ in range(3):
            try:
                yield env.timeout(10)
                log.append(("slept", env.now))
            except Interrupt:
                log.append(("poked", env.now))

    p = env.process(resilient())

    def poker():
        yield env.timeout(1)
        p.interrupt()

    env.process(poker())
    env.run()
    assert log[0] == ("poked", 1)
    assert log[1] == ("slept", 11)


def test_process_is_alive_lifecycle():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_container_multiple_waiters_fifo():
    from repro.sim import Container
    env = Environment()
    c = Container(env, capacity=100, init=0)
    order = []

    def getter(name, amount):
        yield c.get(amount)
        order.append(name)

    env.process(getter("first", 10))
    env.process(getter("second", 10))

    def feeder():
        yield env.timeout(1)
        yield c.put(10)
        yield env.timeout(1)
        yield c.put(10)

    env.process(feeder())
    env.run()
    assert order == ["first", "second"]


def test_interrupt_racing_triggered_target_no_double_resume():
    """Interrupting a process whose target timeout is already in the heap
    (triggered, same timestamp) must deliver the Interrupt exactly once and
    never resume the process again when the stale timeout pops."""
    env = Environment()
    log = []
    victim = None

    def interrupter():
        yield env.timeout(1)
        victim.interrupt("race")

    def victim_proc():
        try:
            yield env.timeout(1)
            log.append("timeout")
        except Interrupt as exc:
            assert exc.cause == "race"
            log.append("interrupt")
        # If the stale timeout resumed us a second time, this yield would
        # receive the wrong event and the trailing marker would misorder.
        yield env.timeout(10)
        log.append("done")

    env.process(interrupter())
    victim = env.process(victim_proc())
    env.run()
    assert log == ["interrupt", "done"]
    assert env.now == 11.0


def test_interrupt_dead_process_raises():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    assert not p.is_alive
    with pytest.raises(SimulationError):
        p.interrupt("too late")


@pytest.mark.parametrize("loop", LOOPS)
def test_run_until_processed_event_returns_at_once(loop):
    """Joining an event that already fired must not dispatch anything:
    with a live ticker (or any perpetual daemon) the run would otherwise
    drain the queue, or never return."""
    env = _env(loop)

    def ticker():
        for _ in range(1000):
            yield env.timeout(1.0)

    def short():
        yield env.timeout(0.5)
        return "done"

    def crash():
        yield env.timeout(0.5)
        raise KeyError("boom")

    tick = env.process(ticker())
    ok = env.process(short())
    bad = env.process(crash())
    assert env.run(until=ok) == "done"
    with pytest.raises(KeyError):
        env.run(until=bad)
    assert env.now == 0.5

    assert env.run(until=ok) == "done"
    with pytest.raises(KeyError):
        env.run(until=bad)
    assert env.now == 0.5
    assert tick.is_alive
    assert len(env._queue) == 1 and env.peek() == 1.0


@pytest.mark.parametrize("loop", LOOPS)
def test_run_until_event_that_a_process_already_joined(loop):
    """The stop event's first waiter holds its fast slot (it joined
    before this run() call, as in a multi-phase cell), so the stop
    sentinel rides in the callbacks list behind the inline resume."""
    env = _env(loop)
    log = []

    def ticker():
        for _ in range(1000):
            yield env.timeout(1.0)

    def worker():
        yield env.timeout(1.5)
        return "w"

    def joiner(p):
        log.append((yield p))

    tick = env.process(ticker())
    p = env.process(worker())
    env.process(joiner(p))
    env.run(until=1.0)
    assert p._proc is not None
    assert env.run(until=p) == "w"
    assert env.now == 1.5 and log == ["w"]
    # Left pending: the joiner's own termination and the next tick.
    assert tick.is_alive and len(env._queue) == 2 and env.peek() == 1.5


@pytest.mark.parametrize("loop", LOOPS + ("stepped",))
@pytest.mark.parametrize("until", ("drain", "inf", "process"))
def test_events_at_infinity_are_dispatched(loop, until):
    """A drain, an explicit ``until=inf`` and a join on a process that
    wakes at +inf all dispatch events scheduled at t=+inf, on every path,
    as step() does."""
    env = _env("plain" if loop == "stepped" else loop)
    woke = []

    def sleeper():
        yield env.timeout(INF)
        woke.append(env.now)
        return "late"

    p = env.process(sleeper())
    if loop == "stepped":
        while len(env._queue):
            env.step()
    else:
        result = env.run(until={"drain": None, "inf": INF,
                                "process": p}[until])
        assert result == ("late" if until == "process" else None)
    assert woke == [INF]
    assert len(env._queue) == 0
    assert p.value == "late"
