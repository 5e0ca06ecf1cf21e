"""``repro.sim.engine`` ≡ the frozen pre-rewrite engine on random programs.

A *program* is plain data — a list of processes, each a list of ops — and
``_run`` interprets it over whichever engine module it is handed, so the
two runs differ in nothing but the engine.  What must agree: the
``(sim.now, label, ...)`` log (which op of which process saw which value
or exception, at which simulated instant), every process's result or
exception, exceptions escaping ``sim.run()`` (negative sleeps raise
there, not in the process), the final clock, ``sim._seq`` and
``len(sim._heap)`` — the two counters the end-to-end benchmark's
``sim_events`` is made of.

Domain: ``interrupt()`` targets a process that is parked in a wait (or
already finished) and has no Interrupt in flight.  Interrupting a process
that is running or not yet started throws into a wait that was never
detached; both engines then leave that wait registered, and the old one
additionally resumed early off a stale ``Timeout`` where the new one
ignores a superseded wake token (DESIGN.md, sim engine).
"""

from hypothesis import given, settings, strategies as st

from repro.sim import engine
from repro.sim.queue import Queue, QueueClosed
from tests import sim_engine_oracle as oracle

N_PROCESSES = 4
N_EVENTS = 3
N_QUEUES = 2


class Delay(float):
    """A float subclass: numeric, but not a *plain* float."""


class Boom(Exception):
    """Failure value for shared events."""


SLEEPS = [0, 1, 2, 3, 0.0, 0.25, 0.5, 1.5, True, False, Delay(0.5),
          -1, -0.5]
GARBAGE = [None, "junk", (1, 2)]

targets = st.integers(0, N_PROCESSES - 1)
events = st.integers(0, N_EVENTS - 1)
queues = st.integers(0, N_QUEUES - 1)
small = st.integers(0, 9)

leaf_op = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from(SLEEPS)),
    st.tuples(st.just("wait"), events),
    st.tuples(st.just("succeed"), events, small),
    st.tuples(st.just("fail"), events),
    st.tuples(st.just("timeout"), st.sampled_from([0, 0.5, 1, 2.0, -1]),
              small),
    st.tuples(st.just("interrupt"), targets, small),
    st.tuples(st.just("kill"), targets),
    st.tuples(st.just("join"), targets),
    st.tuples(st.just("any_of"), st.lists(events, max_size=3)),
    st.tuples(st.just("all_of"), st.lists(events, max_size=3)),
    st.tuples(st.just("any_sleep"), events,
              st.sampled_from([0, 0.5, 1.0])),
    st.tuples(st.just("get"), queues),
    st.tuples(st.just("put"), queues, small),
    st.tuples(st.just("close"), queues),
    st.tuples(st.just("garbage"), st.sampled_from(GARBAGE)),
    st.tuples(st.just("soon"), small),
    st.tuples(st.just("return"), small),
    st.tuples(st.just("raise")),
)
op = st.one_of(
    leaf_op,
    st.tuples(st.just("spawn_join"), st.lists(leaf_op, max_size=3)),
    st.tuples(st.just("spawn"), st.lists(leaf_op, max_size=3)),
)
programs = st.lists(st.lists(op, max_size=7), min_size=N_PROCESSES,
                    max_size=N_PROCESSES)


def _outcome(process):
    if not process.finished:
        return ("unfinished",)
    try:
        return ("result", process.result)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("raised", type(exc).__name__, str(exc))


def _run(mod, program, until):
    """Interpret *program* on engine module *mod*; returns what must be
    equal between engines."""
    sim = mod.Simulator(seed=7)
    log = []
    shared = [sim.event() for _ in range(N_EVENTS)]
    fifo = [Queue(sim, name=f"q{i}") for i in range(N_QUEUES)]
    top = []
    #: label → "new" | "running" | "parked" | "done", kept by the
    #: interpreter so interrupt ops stay inside the stated domain.
    state = {}
    in_flight = set()

    def body(label, ops):
        state[label] = "running"
        children = 0
        try:
            for index, step in enumerate(ops):
                kind = step[0]
                where = f"{label}#{index}:{kind}"
                try:
                    if kind in ("sleep", "garbage"):
                        waited = step[1]
                    elif kind == "wait":
                        waited = shared[step[1]]
                    elif kind == "timeout":
                        waited = sim.timeout(step[1], step[2])
                    elif kind == "join":
                        waited = top[step[1]]
                    elif kind == "any_of":
                        waited = sim.any_of(shared[k] for k in step[1])
                    elif kind == "all_of":
                        waited = sim.all_of(shared[k] for k in step[1])
                    elif kind == "any_sleep":
                        waited = sim.any_of([shared[step[1]],
                                             sim.timeout(step[2], "late")])
                    elif kind == "get":
                        waited = fifo[step[1]].get()
                    elif kind == "spawn_join":
                        children += 1
                        waited = sim.spawn(
                            body(f"{label}.{children}", step[1]))
                    else:
                        waited = None
                        if kind == "succeed":
                            shared[step[1]].succeed(step[2])
                        elif kind == "fail":
                            shared[step[1]].fail(Boom(where))
                        elif kind == "put":
                            log.append((sim.now, where,
                                        fifo[step[1]].put(step[2])))
                        elif kind == "close":
                            fifo[step[1]].close()
                        elif kind == "soon":
                            sim.call_soon(log.append,
                                          (sim.now, where, "soon", step[1]))
                        elif kind == "spawn":
                            children += 1
                            sim.spawn(body(f"{label}.{children}", step[1]))
                        elif kind == "kill":
                            top[step[1]].kill()
                        elif kind == "interrupt":
                            name = f"p{step[1]}"
                            if (state[name] in ("parked", "done")
                                    and name not in in_flight):
                                if state[name] == "parked":
                                    in_flight.add(name)
                                top[step[1]].interrupt(step[2])
                            else:
                                log.append((sim.now, where, "skipped"))
                        elif kind == "return":
                            return step[1]
                        elif kind == "raise":
                            raise Boom(where)
                        continue
                    state[label] = "parked"
                    try:
                        value = yield waited
                    finally:
                        state[label] = "running"
                    if isinstance(value, list):
                        value = tuple(value)
                    log.append((sim.now, where, "got", value))
                except (mod.Interrupt, mod.SimulationError, QueueClosed,
                        Boom, ValueError) as exc:
                    if isinstance(exc, mod.Interrupt):
                        in_flight.discard(label)
                    if kind == "raise":
                        raise
                    log.append((sim.now, where, type(exc).__name__,
                                str(exc)))
            return f"{label}:end"
        finally:
            state[label] = "done"

    for index, ops in enumerate(program):
        state[f"p{index}"] = "new"
        top.append(sim.spawn(body(f"p{index}", ops), name=f"p{index}"))
    escaped = []
    for horizon in (until, None):
        for _attempt in range(4 * N_PROCESSES * 8):
            try:
                sim.run(until=horizon)
                break
            except mod.SimulationError as exc:
                escaped.append((sim.now, str(exc)))
    return {
        "log": log,
        "escaped": escaped,
        "outcomes": [_outcome(process) for process in top],
        "now": sim.now,
        "seq": sim._seq,
        "heap": len(sim._heap),
    }


@settings(max_examples=300, deadline=None)
@given(program=programs, until=st.sampled_from([0, 1, 2.5, 4]))
def test_random_programs_agree_with_the_frozen_engine(program, until):
    assert _run(engine, program, until) == _run(oracle, program, until)


def test_interpreter_reaches_every_wait_kind():
    """One hand-written program through both engines, so a strategy that
    silently stopped generating a wait kind cannot hollow the property."""
    program = [
        [("sleep", 1), ("sleep", 0.5), ("sleep", True), ("sleep", -1),
         ("garbage", "junk"), ("timeout", 1, 5), ("get", 0),
         ("spawn_join", [("sleep", 2), ("return", 3)]), ("return", 9)],
        [("wait", 0), ("wait", 0), ("wait", 1), ("all_of", [0, 1]),
         ("any_sleep", 2, 0.5), ("sleep", 50)],
        [("sleep", 0.25), ("succeed", 0, 4), ("fail", 1), ("put", 0, 8),
         ("interrupt", 3, 1), ("sleep", 3), ("kill", 1), ("kill", 1),
         ("interrupt", 0, 2), ("join", 0), ("join", 1)],
        [("sleep", 10), ("wait", 2), ("sleep", 10)],
    ]
    new = _run(engine, program, 2.5)
    assert new == _run(oracle, program, 2.5)
    seen = {entry[2] for entry in new["log"]}
    assert {"got", "Interrupt", "SimulationError", "Boom"} <= seen
    assert new["escaped"] and "negative" in new["escaped"][0][1]
    assert new["outcomes"][0] == ("result", 9)
    assert new["outcomes"][1] == ("result", None)        # killed
    assert new["outcomes"][3] == ("unfinished",)
    # p1 was killed 0.75 s into a 50 s sleep: the stale wake-up still
    # pops — one counted no-op event that moves the clock.
    assert new["heap"] == 0 and new["now"] == 50.75
