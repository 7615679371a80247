"""A small discrete-event simulation engine.

Used by the interactive generation path, where attacker agents and honeypot
state machines exchange timestamped events (connection attempts, keystrokes,
timeouts).  The engine is a classic priority-queue event loop with stable
FIFO ordering for simultaneous events.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.obs import get_metrics, inc as _metric_inc
from repro.obs import trace as _trace
from repro.simulation.clock import SimClock


@dataclass(order=True)
class Event:
    """A scheduled callback. Ordered by (time, insertion sequence)."""

    when: float
    seq: int
    action: Callable[[], Any] = field(compare=False)
    label: str = field(default="", compare=False)
    #: Flight-recorder trace id captured at schedule time; dispatch
    #: re-enters this context so work done by the action attributes to
    #: the session/connection that scheduled it.
    trace_id: Optional[str] = field(default=None, compare=False)


class EventQueue:
    """Priority queue of :class:`Event` with stable ordering."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()

    def push(self, when: float, action: Callable[[], Any], label: str = "") -> Event:
        event = Event(when=float(when), seq=next(self._counter), action=action, label=label,
                      trace_id=_trace.current_trace_id())
        heapq.heappush(self._heap, event)
        metrics = get_metrics()
        metrics.inc("engine.events_scheduled")
        metrics.gauge_max("engine.heap_depth_max", len(self._heap))
        return event

    def pop(self) -> Optional[Event]:
        return heapq.heappop(self._heap) if self._heap else None

    def peek_time(self) -> Optional[float]:
        return self._heap[0].when if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return self.peek_time() is not None


class SimulationEngine:
    """Event loop binding an :class:`EventQueue` to a :class:`SimClock`."""

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock or SimClock()
        self.queue = EventQueue()
        self.events_processed = 0

    def schedule(self, delay: float, action: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay!r})")
        return self.queue.push(self.clock.seconds + delay, action, label=label)

    def schedule_at(self, when: float, action: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``action`` at absolute virtual second ``when``."""
        if when < self.clock.seconds:
            raise ValueError(
                f"cannot schedule in the past (now={self.clock.seconds}, when={when})"
            )
        return self.queue.push(when, action, label=label)

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.when)
        tracer = _trace.get_tracer()
        if tracer is None:
            event.action()
        else:
            # Re-enter the trace context captured at schedule time, so any
            # events the action emits group under its session/connection.
            with tracer.context(event.trace_id):
                tracer.emit("engine.dispatch", sim_time=event.when,
                            label=event.label)
                event.action()
        self.events_processed += 1
        _metric_inc("engine.events_dispatched")
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the number of events processed by this call.
        """
        processed = 0
        while True:
            if max_events is not None and processed >= max_events:
                break
            next_time = self.queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.clock.advance_to(until)
                break
            self.step()
            processed += 1
        return processed
