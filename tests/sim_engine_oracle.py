"""``repro.sim.engine`` as it stood before the direct-sleep rewrite, kept
statement for statement as a test oracle (one re-anchor window).

The engine in ``src/`` carries ``(when, seq, fn, args)`` heap entries,
lets a process that yields a plain ``int``/``float`` push its own
wake-up and lets a wait on a pending bare ``Event`` append ``_resume``
directly; this module still goes the long way round — a ``lambda`` per
``call_soon``, a ``Timeout`` per sleep, ``add_callback`` per wait — and
``tests/test_sim_engine_properties.py`` requires random process programs
to produce the same log, results, exception sites, ``_seq`` and heap
length on both.  ``repro.sim.queue.Queue`` only touches the public
``sim.event()`` / ``succeed`` / ``fail`` surface, so the property runs it
unchanged over either engine.
"""

from __future__ import annotations

import heapq
import random
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
        self.sim._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, raised in each waiter."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.ok = False
        self.value = exception
        self.sim._schedule_event(self)
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

    __slots__ = ("delay", "_fire_value")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
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
    * an ``int``/``float`` — sleep for that many virtual seconds;
    * another :class:`Process` — join it; ``yield`` evaluates to its result.

    The generator's ``return`` value becomes the process result and is
    delivered to joiners.
    """

    __slots__ = ("sim", "name", "_gen", "_done", "_waiting_on", "_result",
                 "_exception", "finished")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self._done = Event(sim)
        self._waiting_on: Optional[Event] = None
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

    # -- stepping machinery -------------------------------------------------

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        if event.ok:
            self._step(event.value)
        else:
            self._step_throw(event.value)

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
        if isinstance(yielded, Process):
            yielded = yielded._done
        elif isinstance(yielded, (int, float)):
            yielded = Timeout(self.sim, float(yielded))
        if not isinstance(yielded, Event):
            self._step_throw(SimulationError(
                f"process {self.name!r} yielded {yielded!r}; expected an "
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
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._processes: list[Process] = []

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, delay: float, fn: Callable[[], None]) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn))

    def call_soon(self, fn: Callable[..., None], *args: Any) -> None:
        """Run *fn(\\*args)* at the current timestamp, after pending work."""
        self._schedule(0.0, lambda: fn(*args))

    def _schedule_event(self, event: Event) -> None:
        self._schedule(0.0, event._run_callbacks)

    # -- factories -----------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a timeout event firing after *delay* seconds."""
        return Timeout(self, delay, value)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        process = Process(self, gen, name=name)
        self._processes.append(process)
        return process

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
        if not self._heap:
            return False
        when, _seq, fn = heapq.heappop(self._heap)
        self.now = when
        fn()
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
