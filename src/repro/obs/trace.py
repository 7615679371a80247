"""The flight recorder: ring-buffered structured trace events.

Complements the metrics registry (:mod:`repro.obs.metrics`): where metrics
aggregate, the tracer *records* — an ordered stream of JSON-shaped events
with both a simulation-time stamp and a wall-clock stamp, grouped by a
``trace_id`` minted per session / connection (interactive path) or per
emission block (bulk path; tracing hooks block boundaries, never
per-element loops).  Events live in a bounded ring buffer and can stream
to a JSONL sink as they happen, which is what ``repro monitor`` tails.

Tracing is **off by default** and the disabled hot path is a single
module-global ``None`` check (:func:`emit` returns immediately), so the
instrumented code paths stay inside the pipeline's 3 % overhead budget.
A fold installed with :func:`use_fold` (the run ledger's) hears every
:func:`emit` too, whether or not a tracer records it.

Event schema (:data:`EVENT_SCHEMA`, enforced by :func:`validate_trace`)::

    {
      "seq":      int,          # total order, strictly increasing
      "wall":     float,        # wall-clock stamp (epoch seconds)
      "kind":     str,          # e.g. "honeypot.login.failed", "generator.block"
      "trace_id": str | null,   # session / connection / block identity
      "ts":       float,        # optional: simulation seconds
      "data":     {...},        # optional: event payload
      "shard":    {...},        # optional: shard provenance (folded workers)
    }

Multiprocess story — mirrors ``Metrics.merge``: each shard worker records
under its own tracer (:func:`use_tracer`), ships the event list back with
the shard, and the parent folds the lists **in shard order**
(:meth:`Tracer.fold`), re-stamping ``seq`` and attaching shard provenance.
Per-trace event sequences are therefore identical for every worker count,
modulo ``seq``/``wall``/``shard`` and the data fields
:data:`VOLATILE_BY_KIND` declares run-variant.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.obs.resources import TELEMETRY_FIELDS

#: Default ring-buffer capacity (events kept in memory per tracer).
DEFAULT_CAPACITY = 65536

#: Required event fields and their types.
EVENT_SCHEMA: Dict[str, tuple] = {
    "seq": (int,),
    "wall": (int, float),
    "kind": (str,),
}

#: Optional event fields and their types (``trace_id`` may also be None).
EVENT_OPTIONAL: Dict[str, tuple] = {
    "trace_id": (str,),
    "ts": (int, float),
    "data": (dict,),
    "shard": (dict,),
}

#: Required keys of the ``shard`` provenance sub-object.
SHARD_SCHEMA: Dict[str, tuple] = {
    "index": (int,),
    "kind": (str,),
    "key": (str,),
}


class Tracer:
    """A bounded recorder of structured events, optionally streaming JSONL.

    ``capacity`` bounds the in-memory ring (old events fall off the front,
    counted in :attr:`dropped`); ``sink`` is a writable text file object
    that receives every event as one JSON line the moment it is emitted —
    the live stream ``repro monitor`` tails.
    """

    __slots__ = ("events", "capacity", "dropped", "emitted",
                 "_seq", "_sink", "_stack")

    def __init__(self, capacity: int = DEFAULT_CAPACITY, sink=None):
        self.capacity = int(capacity)
        self.events: deque = deque(maxlen=self.capacity)
        self.dropped = 0
        self.emitted = 0
        self._seq = 0
        self._sink = sink
        self._stack: List[str] = []

    # -- emission -------------------------------------------------------------

    def emit(
        self,
        kind: str,
        trace_id: Optional[str] = None,
        sim_time: Optional[float] = None,
        **data: Any,
    ) -> Dict[str, Any]:
        """Record one event. ``trace_id`` defaults to the current context."""
        if trace_id is None and self._stack:
            trace_id = self._stack[-1]
        event: Dict[str, Any] = {
            "seq": self._seq,
            "wall": time.time(),
            "kind": kind,
            "trace_id": trace_id,
        }
        self._seq += 1
        if sim_time is not None:
            event["ts"] = float(sim_time)
        if data:
            event["data"] = data
        self._append(event)
        return event

    def _append(self, event: Dict[str, Any]) -> None:
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(event)
        self.emitted += 1
        if self._sink is not None:
            self._sink.write(json.dumps(event, sort_keys=True) + "\n")
            self._sink.flush()

    # -- trace-id context -----------------------------------------------------

    @contextmanager
    def context(self, trace_id: Optional[str]):
        """Attribute events emitted inside the block to ``trace_id``."""
        self._stack.append(trace_id)
        try:
            yield
        finally:
            self._stack.pop()

    @property
    def current_trace_id(self) -> Optional[str]:
        return self._stack[-1] if self._stack else None

    # -- fold (multiprocess) ---------------------------------------------------

    def fold(
        self,
        events: Iterable[Dict[str, Any]],
        shard: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Append a worker's event list, re-stamping order and provenance.

        Events keep their original wall/sim stamps and payload; ``seq`` is
        re-assigned in fold order (the parent's total order) and ``shard``
        provenance is attached.  Mirrors ``Metrics.merge``: folding shard
        event lists in shard order makes the combined trace independent of
        which worker emitted what.
        """
        folded = 0
        for event in events:
            event = dict(event)
            event["seq"] = self._seq
            self._seq += 1
            if shard is not None:
                event["shard"] = dict(shard)
            self._append(event)
            folded += 1
        return folded

    # -- results ---------------------------------------------------------------

    def to_list(self) -> List[Dict[str, Any]]:
        """The buffered events, oldest first."""
        return list(self.events)

    def __len__(self) -> int:
        return len(self.events)


# -- the current tracer --------------------------------------------------------
#
# ``None`` means tracing is disabled — the steady state.  Hot paths call the
# module-level :func:`emit` (or check :func:`enabled` before building event
# payloads), which costs one global load and a ``None`` test while neither
# a tracer nor a fold is installed.

_TRACER: Optional[Tracer] = None
#: Fed every event :func:`emit` sees, traced or not (:func:`use_fold`).
_FOLD: Optional[Callable[[Dict[str, Any]], None]] = None
#: What :func:`emit` calls; None while neither is installed.
_SINK: Optional[Callable[..., Any]] = None


def _set(tracer: Optional[Tracer], fold) -> None:
    global _TRACER, _FOLD, _SINK
    _TRACER, _FOLD = tracer, fold
    _SINK = _emit_and_fold if fold is not None \
        else getattr(tracer, "emit", None)


def _emit_and_fold(kind: str, trace_id: Optional[str] = None,
                   sim_time: Optional[float] = None, **data: Any) -> None:
    if _TRACER is not None:
        event = _TRACER.emit(kind, trace_id, sim_time, **data)
    else:
        event = {"wall": time.time(), "kind": kind, "data": data}
    _FOLD(event)


def enabled() -> bool:
    """True when a tracer is installed (cheap hot-path guard)."""
    return _TRACER is not None


def get_tracer() -> Optional[Tracer]:
    """The tracer events are currently recorded into (None = disabled)."""
    return _TRACER


@contextmanager
def use_tracer(tracer: Optional[Tracer]):
    """Swap ``tracer`` in for the scope (None silences tracing).

    Shard workers record under a fresh ``Tracer()`` and ship its event
    list back; script profiling swaps in ``None`` so the reference
    honeypot runs (a per-process measurement detail) never pollute the
    workload trace — the same reason worker-count-variant counters are
    excluded from the metrics invariance contract.
    """
    previous = _TRACER
    _set(tracer, _FOLD)
    try:
        yield tracer
    finally:
        _set(previous, _FOLD)


@contextmanager
def use_fold(fold: Optional[Callable[[Dict[str, Any]], None]]):
    """Hand every :func:`emit` in the scope to ``fold``, traced or not
    (an untraced event carries only ``wall``, ``kind`` and ``data``).
    Worker events the parent adds with :meth:`Tracer.fold` skip it."""
    previous = _FOLD
    _set(_TRACER, fold)
    try:
        yield fold
    finally:
        _set(_TRACER, previous)


def emit(
    kind: str,
    trace_id: Optional[str] = None,
    sim_time: Optional[float] = None,
    **data: Any,
) -> None:
    """Record one event on the current tracer and fold; no-op when off."""
    sink = _SINK
    if sink is not None:
        sink(kind, trace_id, sim_time, **data)


def emit_block(category: str, day: int, sessions: int, **data: Any) -> None:
    """Record one bulk-emission block boundary (the generator hot-path hook).

    The trace id names the (category, day) block — ``NO_CRED.d17`` — which
    is exactly the shard-invariant identity the named rng streams use, so
    block events group identically for every worker count.
    """
    t = _TRACER
    if t is not None:
        t.emit(
            "generator.block",
            trace_id=f"{category}.d{day}",
            sim_time=day * 86400.0,
            category=category,
            day=day,
            sessions=sessions,
            **data,
        )


def current_trace_id() -> Optional[str]:
    """The trace id of the enclosing :meth:`Tracer.context`, if any."""
    t = _TRACER
    return t.current_trace_id if t is not None else None


# -- validation ---------------------------------------------------------------


def field_problems(record: Dict[str, Any], schema: Dict[str, tuple],
                   prefix: str) -> List[str]:
    """``<prefix>field 'x' missing or not <type>`` for each field of
    ``schema`` that ``record`` lacks or mistypes (a bool is not an int,
    and None only counts where ``type(None)`` is listed)."""
    return [
        f"{prefix}field {field!r} missing or not "
        f"{'/'.join(t.__name__ for t in types)}"
        for field, types in schema.items()
        if field not in record or isinstance(record[field], bool)
        or not isinstance(record[field], types)
    ]


def validate_trace(events: Sequence[Dict[str, Any]]) -> List[str]:
    """Check events against :data:`EVENT_SCHEMA`; returns problem strings.

    Checks per event: required fields and types, optional-field types,
    shard provenance shape, JSON-serialisable payload.  Checks across the
    stream: ``seq`` strictly increasing, and simulation time (``ts``)
    non-decreasing within each ``trace_id`` (per-trace causal order).
    An empty return value means the trace is schema-valid.
    """
    problems: List[str] = []
    last_seq: Optional[int] = None
    last_ts_by_trace: Dict[Optional[str], float] = {}
    for i, event in enumerate(events):
        where = f"event {i}: "
        if not isinstance(event, dict):
            problems.append(f"{where}not an object")
            continue
        present = {field: types for field, types in EVENT_OPTIONAL.items()
                   if field in event
                   and not (field == "trace_id" and event[field] is None)}
        problems += field_problems(event, {**EVENT_SCHEMA, **present}, where)
        shard = event.get("shard")
        if isinstance(shard, dict):
            problems += field_problems(shard, SHARD_SCHEMA, f"{where}shard ")
        if "data" in event and isinstance(event["data"], dict):
            try:
                json.dumps(event["data"])
            except (TypeError, ValueError):
                problems.append(f"{where}data is not JSON-serialisable")
        seq = event.get("seq")
        if isinstance(seq, int) and not isinstance(seq, bool):
            if last_seq is not None and seq <= last_seq:
                problems.append(
                    f"{where}seq {seq} not greater than previous {last_seq}"
                )
            last_seq = seq
        ts = event.get("ts")
        if isinstance(ts, (int, float)) and not isinstance(ts, bool):
            trace_id = event.get("trace_id")
            previous = last_ts_by_trace.get(trace_id)
            if previous is not None and ts < previous:
                problems.append(
                    f"{where}ts {ts} moves backwards within trace "
                    f"{trace_id!r} (previous {previous})"
                )
            last_ts_by_trace[trace_id] = float(ts)
    return problems


def group_by_trace(
    events: Iterable[Dict[str, Any]],
) -> Dict[Optional[str], List[Dict[str, Any]]]:
    """Events grouped by ``trace_id``, each group in stream order."""
    groups: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for event in events:
        groups.setdefault(event.get("trace_id"), []).append(event)
    return groups


#: Marks an event kind whose every field varies from run to run.
WHOLE_EVENT = "whole event"

#: Run-variance, declared once per fact: event kind -> the data fields
#: that vary between two runs of the same config (who ran it, physical
#: timings, resource telemetry), or :data:`WHOLE_EVENT` for physical
#: telemetry whose presence and count depend on the backend, worker count
#: and wall clock (worker heartbeats, stale-worker episodes).  Trace
#: comparisons and the run ledger's folded records read it.
VOLATILE_BY_KIND: Dict[str, Any] = {
    "sched.heartbeat.worker": WHOLE_EVENT,
    "sched.heartbeat.stale": WHOLE_EVENT,
    "sched.task.done": frozenset({
        "attempt", "worker", "run_seconds", "queue_seconds",
        "telemetry_version", *TELEMETRY_FIELDS,
    }),
    "sched.trace.built": frozenset({"backend", "workers"}),
    "generate.merged": frozenset({"workers"}),
}


def strip_volatile(event: Dict[str, Any]) -> Dict[str, Any]:
    """An event minus run-variant fields: ``seq``/``wall``/``shard`` and
    the data fields :data:`VOLATILE_BY_KIND` declares for its kind.

    What remains — kind, trace_id, sim time, payload — is the part of the
    trace that must be identical for every worker count; the invariance
    tests compare per-trace sequences of this form.
    """
    out = {k: v for k, v in event.items()
           if k not in ("seq", "wall", "shard")}
    drop = VOLATILE_BY_KIND.get(event.get("kind"))
    if isinstance(drop, frozenset) and isinstance(out.get("data"), dict):
        out["data"] = {k: v for k, v in out["data"].items()
                       if k not in drop}
    return out


def strip_volatile_events(
    events: Iterable[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Events minus those volatile as a whole (heartbeats and kin)."""
    return [e for e in events
            if VOLATILE_BY_KIND.get(e.get("kind")) != WHOLE_EVENT]
