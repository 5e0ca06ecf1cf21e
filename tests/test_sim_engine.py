"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Event, Interrupt, SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []

    def proc():
        yield 1.5
        fired.append(sim.now)
        yield 2.5
        fired.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert fired == [1.5, 4.0]


def test_process_result_delivered_to_joiner():
    sim = Simulator()

    def child():
        yield 1.0
        return 42

    def parent():
        result = yield sim.spawn(child())
        return result + 1

    process = sim.spawn(parent())
    assert sim.run_process(process) == 43


def test_event_value_passed_through_yield():
    sim = Simulator()
    event = sim.event()
    got = []

    def waiter():
        value = yield event
        got.append(value)

    sim.spawn(waiter())
    sim.call_soon(event.succeed, "hello")
    sim.run()
    assert got == ["hello"]


def test_event_failure_raises_in_waiter():
    sim = Simulator()
    event = sim.event()

    def waiter():
        with pytest.raises(ValueError):
            yield event
        return "handled"

    process = sim.spawn(waiter())
    sim.call_soon(event.fail, ValueError("boom"))
    assert sim.run_process(process) == "handled"


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_already_triggered_event_resumes_waiter():
    sim = Simulator()
    event = sim.event()
    event.succeed("early")

    def waiter():
        value = yield event
        return value

    process = sim.spawn(waiter())
    assert sim.run_process(process) == "early"


def test_process_exception_propagates_to_joiner():
    sim = Simulator()

    def child():
        yield 0.1
        raise RuntimeError("child failed")

    def parent():
        try:
            yield sim.spawn(child())
        except RuntimeError as exc:
            return str(exc)

    process = sim.spawn(parent())
    assert sim.run_process(process) == "child failed"


def test_interrupt_is_raised_inside_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield 100.0
        except Interrupt as interrupt:
            log.append((sim.now, interrupt.cause))

    process = sim.spawn(sleeper())

    def interrupter():
        yield 3.0
        process.interrupt("wake up")

    sim.spawn(interrupter())
    sim.run()
    assert log == [(3.0, "wake up")]


def test_kill_terminates_without_resuming():
    sim = Simulator()
    log = []

    def victim():
        yield 100.0
        log.append("should not happen")

    process = sim.spawn(victim())

    def killer():
        yield 1.0
        process.kill()

    sim.spawn(killer())
    sim.run()
    assert process.finished
    assert log == []


def test_run_until_stops_clock():
    sim = Simulator()

    def ticker():
        while True:
            yield 1.0

    sim.spawn(ticker())
    sim.run(until=5.0)
    assert sim.now == 5.0


def test_any_of_triggers_on_first():
    sim = Simulator()
    results = []

    def waiter():
        value = yield sim.any_of([sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")])
        results.append((sim.now, value))

    sim.spawn(waiter())
    sim.run()
    assert results == [(1.0, "fast")]


def test_all_of_collects_every_result():
    sim = Simulator()
    results = []

    def waiter():
        values = yield sim.all_of([sim.timeout(2.0, "a"), sim.timeout(1.0, "b")])
        results.append((sim.now, values))

    sim.spawn(waiter())
    sim.run()
    assert results == [(2.0, ["a", "b"])]


def test_deterministic_rng_with_same_seed():
    draws_a = [Simulator(seed=7).rng.random() for _ in range(1)]
    draws_b = [Simulator(seed=7).rng.random() for _ in range(1)]
    assert draws_a == draws_b


def test_fifo_ordering_of_simultaneous_callbacks():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.call_soon(order.append, i)
    sim.run()
    assert order == list(range(10))


def test_deadlock_detection_in_run_process():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never triggered

    process = sim.spawn(stuck())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(process)


def test_yielding_garbage_fails_process():
    sim = Simulator()

    def bad():
        yield "not an event"

    process = sim.spawn(bad())
    sim.run()
    with pytest.raises(SimulationError):
        _ = process.result


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_event_add_callback_after_trigger_still_fires():
    sim = Simulator()
    event = sim.event()
    event.succeed("v")
    seen = []
    event.add_callback(lambda ev: seen.append(ev.value))
    sim.run()
    assert seen == ["v"]


def test_finished_unreferenced_process_is_collectable():
    """The simulator keeps no registry of what it spawned: a process that
    ran to completion — one per TCP segment in a live chain — is garbage
    once its caller drops it, generator and ``_done`` event with it."""
    import gc
    import weakref

    sim = Simulator()

    def segment():
        yield 0.001

    # Process is slotted without __weakref__; its generator is the canary
    # (the process holds the only other reference to it).
    refs = []
    for _ in range(50):
        gen = segment()
        refs.append(weakref.ref(gen))
        sim.spawn(gen)
    del gen
    sim.run(until=0.0005)
    gc.collect()
    assert all(ref() is not None for ref in refs)   # parked on the heap
    sim.run()
    gc.collect()
    assert [ref() for ref in refs] == [None] * 50
