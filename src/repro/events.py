"""Deterministic discrete-event simulation engine.

Every simulated component in :mod:`repro` (the cluster, Oozie-lite, the
metric collectors) runs on top of this engine.  It is a classic
calendar-queue-on-a-binary-heap design with two properties the rest of the
code base relies on:

* **Determinism.**  Events scheduled for the same simulated time fire in the
  order they were scheduled (FIFO tie-break via a monotonically increasing
  sequence number).  Replaying the same workload with the same seeds yields
  byte-identical traces, and :meth:`Simulator.reset` restarts the sequence
  counter so a reset simulator replays with identical tie-break ordering.
* **Cancellation.**  :meth:`EventHandle.cancel` lazily marks an event dead;
  the heap skips dead entries on pop.  This keeps cancellation O(1) and is
  used for e.g. retracting periodic heartbeats when a tracker is killed.

Heap entries are plain ``(time, seq, handle)`` tuples: tuple comparison
stops at ``seq`` (unique), so handles are never compared and pushes/pops
avoid dataclass ``__lt__`` dispatch on the hot path.  A live-event counter
maintained on schedule/cancel/fire makes :attr:`Simulator.pending_events`
O(1) instead of a queue scan.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["EventHandle", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently.

    Examples: scheduling an event in the past, or re-running a simulator
    that already finished without resetting it.
    """


class EventHandle:
    """A scheduled callback; returned by :meth:`Simulator.schedule`.

    The handle can be cancelled before it fires.  After firing (or after
    cancellation) it is inert.
    """

    __slots__ = ("time", "callback", "args", "_cancelled", "_fired", "_sim")

    def __init__(self, time: float, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.callback = callback
        self.args = args
        self._cancelled = False
        self._fired = False
        self._sim: Optional["Simulator"] = None

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def pending(self) -> bool:
        return not (self._cancelled or self._fired)

    def cancel(self) -> bool:
        """Mark this event dead.  Returns ``True`` if it was still pending."""
        if self.pending:
            self._cancelled = True
            if self._sim is not None:
                self._sim._live -= 1
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"EventHandle(t={self.time:.3f}, {getattr(self.callback, '__name__', self.callback)}, {state})"


class Simulator:
    """A deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(5.0, on_timer)          # absolute simulated time
        sim.schedule_after(1.0, tick)        # relative to ``sim.now``
        sim.run()                            # drain the event queue
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._live = 0
        self._now = 0.0
        self._running = False
        self._processed = 0
        self._stop = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events that have fired so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of live (not cancelled) events still queued (O(1))."""
        return self._live

    def schedule(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time:.6f} before current time t={self._now:.6f}"
            )
        handle = EventHandle(time, callback, args)
        handle._sim = self
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, handle))
        self._live += 1
        return handle

    def schedule_after(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule(self._now + delay, callback, *args)

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is drained.

        Dead (cancelled) heap heads are pruned as a side effect, so a
        subsequent :meth:`step` pops a live entry directly.
        """
        queue = self._queue
        while queue and queue[0][2]._cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time`` without firing anything.

        Used by run loops that stop at a horizon between events; moving
        backwards is a no-op (the clock is monotonic).
        """
        if time > self._now:
            self._now = time

    def step(self) -> bool:
        """Fire the next live event.  Returns ``False`` when the queue is empty."""
        while self._queue:
            time, _seq, handle = heapq.heappop(self._queue)
            if handle._cancelled:
                continue
            self._now = time
            handle._fired = True
            self._live -= 1
            self._processed += 1
            handle.callback(*handle.args)
            return True
        return False

    def request_stop(self) -> None:
        """Ask an in-flight :meth:`run` to return after the current event.

        Callbacks use this to end a run early on a semantic condition the
        engine cannot see (e.g. "every workflow completed") without the
        driver paying a per-event Python-level peek/step round trip.  Inert
        outside :meth:`run`; each run starts with the flag cleared.
        """
        self._stop = True

    # One pass over all n scheduled events, O(log n) heap work per event.
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event queue.

        Args:
            until: stop (without firing) once the next event would be after
                this simulated time; the clock is advanced to ``until``.
            max_events: safety valve — raise :class:`SimulationError` as soon
                as a live event would exceed this many firings (guards
                against runaway feedback loops in scheduler bugs).  Exactly
                ``max_events`` queued events drain without error.

        Returns:
            The simulated time when the run stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stop = False
        # Fused kernel: the peek/step pair is inlined into one loop over a
        # pre-bound heap alias — one tuple unpack and no method dispatch per
        # event.  Equivalent to ``while peek_time() ... step()``: cancelled
        # heads are pruned before the horizon test, FIFO tie-break order is
        # untouched (heap order is unchanged), and counters update exactly
        # as in :meth:`step`.
        queue = self._queue
        pop = heapq.heappop
        fired = 0
        try:
            while queue:
                time, _seq, handle = queue[0]
                if handle._cancelled:
                    pop(queue)
                    continue
                if until is not None and time > until:
                    break
                if max_events is not None and fired >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}; runaway simulation?")
                pop(queue)
                self._now = time
                handle._fired = True
                self._live -= 1
                self._processed += 1
                handle.callback(*handle.args)
                fired += 1
                if self._stop:
                    break
        finally:
            self._running = False
        if until is not None:
            self._now = max(self._now, until)
        return self._now

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero.

        The sequence counter restarts too, so a reset simulator replays the
        same workload with byte-identical FIFO tie-break ordering.  Handles
        still queued at reset time become cancelled.
        """
        for _time, _seq, handle in self._queue:
            handle._cancelled = True
        self._queue.clear()
        self._seq = 0
        self._live = 0
        self._now = 0.0
        self._processed = 0
        self._stop = False
