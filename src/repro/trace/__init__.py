"""repro.trace — end-to-end span tracing for one logical request.

Follows the zero-cost-when-off pattern established by ``repro.sanitize``
and ``repro.obs``: tracing is enabled per-run by a sampling rate
(``--trace-sample`` / ``ExecOptions.trace_sample``, default 0.0) and every
instrumentation site guards with ``if tracer is not None`` (or the
equivalent ambient check), so the disabled path costs one attribute
test.

Propagation:

* **HTTP** — the W3C ``traceparent`` header carries the context from
  ``repro.serve``'s client through the gateway (see
  :mod:`repro.trace.context`).
* **Process pool** — the exec engine ships each job with a
  :class:`repro.context.RunContext` carrying the run span's
  ``traceparent`` and the spans path; workers rebuild a tracer from it
  on the first traced job (:func:`job_trace_span`), appending to the
  same ``spans.jsonl`` via atomic ``O_APPEND`` writes.
* **In-process** — a thread-local *ambient* (tracer, current span)
  lets deep code (``run_bar``, obs stamping) attach spans without
  threading tracer arguments through every call.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Optional, Tuple

from repro.context import current_context

from .context import (
    TraceContext,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)
from .flight import FlightRecorder, flight
from .span import SPAN_SCHEMA, Span, Tracer

__all__ = [
    "SPAN_SCHEMA",
    "Span",
    "Tracer",
    "TraceContext",
    "FlightRecorder",
    "flight",
    "new_trace_id",
    "new_span_id",
    "parse_traceparent",
    "format_traceparent",
    "trace_sample",
    "maybe_tracer",
    "set_ambient",
    "clear_ambient",
    "ambient",
    "ambient_span",
    "job_trace_span",
]


def trace_sample(rate: Optional[float] = None) -> float:
    """*rate* clamped to [0, 1]; None means off."""
    return min(1.0, max(0.0, rate or 0.0))


def maybe_tracer(
    sample: Optional[float] = None,
    parent: Optional[str] = None,
) -> Optional[Tracer]:
    """A Tracer if this run is sampled, else None.

    Head-based sampling: when *parent* (a ``traceparent`` header, or a
    run context's) carries a valid context, its sampled flag is the
    decision — sampled parents are continued, unsampled parents disable
    tracing regardless of the local rate.  Without a parent, a coin
    weighted by the sampling rate decides.
    """
    ctx = parse_traceparent(parent)
    if ctx is not None:
        if not ctx.sampled:
            return None
        return Tracer(ctx)
    rate = trace_sample(sample)
    if rate <= 0.0:
        return None
    if rate < 1.0 and random.random() >= rate:
        return None
    return Tracer()


# --------------------------------------------------------------------------
# Ambient (thread-local) trace state.

_AMBIENT = threading.local()


def set_ambient(tracer: Optional[Tracer], span: Optional[Span]) -> None:
    _AMBIENT.tracer = tracer
    _AMBIENT.span = span


def clear_ambient() -> None:
    _AMBIENT.tracer = None
    _AMBIENT.span = None


def ambient() -> Tuple[Optional[Tracer], Optional[Span]]:
    return getattr(_AMBIENT, "tracer", None), getattr(_AMBIENT, "span", None)


def ambient_span() -> Optional[Span]:
    return getattr(_AMBIENT, "span", None)


# --------------------------------------------------------------------------
# Worker-side instrumentation.

_WORKER_LOCK = threading.Lock()
_WORKER_TRACER: Optional[Tracer] = None
_WORKER_PARENT: Optional[str] = None


def _worker_tracer(parent: Optional[str]) -> Optional[Tracer]:
    """Tracer rebuilt from a run context's *parent* inside a pool worker.

    Cached per (process, parent): each run ships a fresh parent, so a
    long-lived worker reused across runs re-keys correctly.  Returns
    None when the run is not sampled — the common (untraced) case costs
    one ``is None`` test.
    """
    global _WORKER_TRACER, _WORKER_PARENT
    if not parent:
        return None
    with _WORKER_LOCK:
        if _WORKER_PARENT != parent:
            _WORKER_PARENT = parent
            _WORKER_TRACER = maybe_tracer(parent=parent)
        return _WORKER_TRACER


class _JobSpanScope:
    """Context manager wrapping one job execution in a span.

    Chooses the ambient tracer when present (serial path / serve
    shard), else a worker tracer derived from the current run context
    (pool path).  Worker-owned spans are flushed to the context's spans
    path after every job so a killed worker loses at most the in-flight
    job.
    """

    __slots__ = ("_tracer", "_span", "_spans_path", "_saved")

    def __init__(self, name: str, **attrs: Any) -> None:
        tracer, parent = ambient()
        self._spans_path: Optional[str] = None
        self._saved: Tuple[Optional[Tracer], Optional[Span]] = (None, None)
        if tracer is None:
            run = current_context()
            tracer = _worker_tracer(run.traceparent)
            if tracer is not None:
                self._spans_path = run.spans_path
            parent = None
        self._tracer = tracer
        self._span = (tracer.start_span(name, parent=parent, **attrs)
                      if tracer is not None else None)

    def __enter__(self) -> Optional[Span]:
        if self._span is not None:
            self._saved = ambient()
            set_ambient(self._tracer, self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._span is None:
            return
        set_ambient(*self._saved)
        self._span.finish("error" if exc_type is not None else None)
        if self._spans_path is not None:
            self._tracer.flush(self._spans_path)


def job_trace_span(name: str, **attrs: Any) -> _JobSpanScope:
    """Span around one simulator job; yields None when tracing is off."""
    return _JobSpanScope(name, **attrs)
