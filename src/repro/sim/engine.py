"""Core discrete-event simulation engine.

The engine is deliberately small: a binary heap of timestamped callbacks, a
virtual clock, and generator-based processes.  Determinism is a hard
requirement for the reproduction (DESIGN.md decision 1), so ties on the heap
are broken by a monotonically increasing sequence number and all random
choices are drawn from a single seeded ``random.Random``.

A heap entry is ``(when, seq, fn, args)`` and :meth:`Simulator.step` calls
``fn(*args)``: scheduling allocates the entry and nothing else.  Every
entry costs exactly one ``_seq`` increment and pops as exactly one step —
the end-to-end benchmark's ``sim_events`` is ``_seq - len(_heap)``.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional


class SimulationError(Exception):
    """Raised for misuse of the engine (e.g. running a finished simulator)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class ProcessKilled(Exception):
    """Raised inside a process when it is forcibly killed."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it is triggered exactly once via
    :meth:`succeed` or :meth:`fail`.  Processes waiting on it are resumed in
    FIFO order on the same virtual timestamp.
    """

    __slots__ = ("sim", "_callbacks", "triggered", "ok", "value")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._callbacks: list[Callable[[Event], None]] = []
        self.triggered = False
        self.ok = True
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering *value* to waiters."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.ok = True
        self.value = value
        self.sim.call_soon(self._run_callbacks)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, raised in each waiter."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.ok = False
        self.value = exception
        self.sim.call_soon(self._run_callbacks)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Invoke *callback* when the event triggers."""
        if self.triggered:
            # Already triggered: deliver on the current timestamp.
            self.sim.call_soon(callback, self)
        else:
            self._callbacks.append(callback)

    def _run_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that fires automatically after a delay."""

    __slots__ = ("_fire_value",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self._fire_value = value
        sim._schedule(delay, self._fire)

    def _fire(self) -> None:
        self.triggered = True
        self.ok = True
        self.value = self._fire_value
        self._run_callbacks()


class Process:
    """A cooperatively scheduled activity wrapping a generator.

    The generator may yield:

    * an :class:`Event` — suspend until it triggers; ``yield`` evaluates to
      the event's value (or raises its failure exception);
    * an ``int``/``float`` — sleep for that many virtual seconds (no
      :class:`Timeout` is built: nobody else can observe the sleep, so the
      process pushes its own wake-up onto the heap);
    * another :class:`Process` — join it; ``yield`` evaluates to its result.

    The generator's ``return`` value becomes the process result and is
    delivered to joiners.
    """

    __slots__ = ("sim", "name", "_gen", "_done", "_waiting_on", "_wake_token",
                 "_result", "_exception", "finished")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self._done = Event(sim)
        self._waiting_on: Optional[Event] = None
        #: Wake token: the heap ``seq`` of the sleep in progress, 0 once
        #: interrupted or killed — the stale entry then pops as a no-op.
        self._wake_token = 0
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self.finished = False
        sim.call_soon(self._step, None)

    @property
    def result(self) -> Any:
        """The finished process's return value (raises if failed)."""
        if not self.finished:
            raise SimulationError(f"process {self.name!r} not finished")
        if self._exception is not None:
            raise self._exception
        return self._result

    @property
    def done_event(self) -> Event:
        """Event that triggers when the process finishes."""
        return self._done

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its next resumption."""
        if self.finished:
            return
        self._detach()
        self.sim.call_soon(self._step_throw, Interrupt(cause))

    def kill(self) -> None:
        """Terminate the process without running further user code."""
        if self.finished:
            return
        self._detach()
        self._gen.close()
        self._finish(None, None)

    def _detach(self) -> None:
        waiting = self._waiting_on
        if waiting is not None and not waiting.triggered:
            try:
                waiting._callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        self._wake_token = 0

    # -- stepping machinery -------------------------------------------------

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        if event.ok:
            self._step(event.value)
        else:
            self._step_throw(event.value)

    def _wake(self, token: int) -> None:
        if token == self._wake_token:
            self._step(None)

    def _step(self, value: Any) -> None:
        if self.finished:
            return
        try:
            yielded = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to joiners
            self._finish(None, exc)
            return
        self._wait_on(yielded)

    def _step_throw(self, exc: BaseException) -> None:
        if self.finished:
            return
        try:
            yielded = self._gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as err:  # noqa: BLE001
            self._finish(None, err)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        kind = type(yielded)
        if kind is float or kind is int:
            if yielded >= 0:
                sim = self.sim
                when = sim.now + float(yielded)
                sim._seq = self._wake_token = token = sim._seq + 1
                heappush(sim._heap, (when, token, self._wake, (token,)))
                return
        elif kind is Event and not yielded.triggered:
            self._waiting_on = yielded
            yielded._callbacks.append(self._resume)
            return
        # Everything else — joins, Timeout objects, already-triggered
        # events, bool and subclass numerics, negative delays, garbage.
        if isinstance(yielded, Process):
            yielded = yielded._done
        elif isinstance(yielded, (int, float)):
            yielded = Timeout(self.sim, float(yielded))
        if not isinstance(yielded, Event):
            self._step_throw(SimulationError(
                f"process {self.name!r} "  # lint: ok — misuse path
                f"yielded {yielded!r}; expected an "
                "Event, Process, or numeric delay"))
            return
        self._waiting_on = yielded
        yielded.add_callback(self._resume)

    def _finish(self, result: Any, exc: Optional[BaseException]) -> None:
        self.finished = True
        self._result = result
        self._exception = exc
        if exc is None:
            self._done.succeed(result)
        else:
            self._done.fail(exc)


class Simulator:
    """Owner of the virtual clock, event heap, and deterministic RNG."""

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, delay: float, fn: Callable[[], None]) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self.now + delay, seq, fn, ()))

    def call_soon(self, fn: Callable[..., None], *args: Any) -> None:
        """Run *fn(\\*args)* at the current timestamp, after pending work."""
        self._seq = seq = self._seq + 1
        # ``+ 0.0`` keeps the clock a float after ``run(until=<int>)``.
        heappush(self._heap, (self.now + 0.0, seq, fn, args))

    # -- factories -----------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a timeout event firing after *delay* seconds."""
        return Timeout(self, delay, value)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, gen, name=name)

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event that triggers when the first of *events* triggers."""
        composite = self.event()

        def on_trigger(event: Event) -> None:
            """Composite-event callback."""
            if composite.triggered:
                return
            if event.ok:
                composite.succeed(event.value)
            else:
                composite.fail(event.value)

        for event in events:
            event.add_callback(on_trigger)
        return composite

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that triggers when every one of *events* has triggered."""
        events = list(events)
        composite = self.event()
        remaining = len(events)
        if remaining == 0:
            composite.succeed([])
            return composite
        results: list[Any] = [None] * remaining

        def make_callback(index: int) -> Callable[[Event], None]:
            """Build the per-event completion callback."""
            def on_trigger(event: Event) -> None:
                """Composite-event callback."""
                nonlocal remaining
                if composite.triggered:
                    return
                if not event.ok:
                    composite.fail(event.value)
                    return
                results[index] = event.value
                remaining -= 1
                if remaining == 0:
                    composite.succeed(results)
            return on_trigger

        for index, event in enumerate(events):
            event.add_callback(make_callback(index))
        return composite

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Run the next scheduled callback.  Returns False when idle."""
        heap = self._heap
        if not heap:
            return False
        self.now, _seq, fn, args = heappop(heap)
        fn(*args)
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or the clock reaches *until*."""
        if until is None:
            while self.step():
                pass
            return
        while self._heap and self._heap[0][0] <= until:
            self.step()
        if self.now < until:
            self.now = until

    def run_process(self, process: Process,
                    until: Optional[float] = None) -> Any:
        """Run until *process* completes (or *until*), returning its result."""
        while not process.finished:
            if until is not None and self._heap and self._heap[0][0] > until:
                raise SimulationError(
                    f"process {process.name!r} did not finish by t={until}")
            if not self.step():
                raise SimulationError(
                    f"deadlock: process {process.name!r} never finished")
        return process.result
