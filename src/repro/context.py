"""The run context: the settings one engine run hands to every job.

A :class:`RunContext` is resolved once per :meth:`repro.exec.JobRunner.run`
from its :class:`~repro.exec.ExecOptions` and travels with each job — by
argument into the serial loop and by pickle into pool workers — instead
of through process environment variables.  Entering it (``with ctx:``)
makes it the current context of this thread for the duration of one
job, which is where deep code reads it: :func:`repro.harness.runner.run_bar`
(backend, sanitizer, observer), :func:`repro.trace.job_trace_span`
(trace parent and span file) and the engine's flight-recorder dumps.

Outside any run the current context is :data:`DEFAULT_CONTEXT`: interp
backend, no sanitizer, no observer, no tracing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional

__all__ = ["DEFAULT_CONTEXT", "RunContext", "current_context"]


@dataclass(frozen=True)
class RunContext:
    """Frozen, picklable run settings (see the module docstring)."""

    #: Simulation backend for bar jobs ("interp" | "vec"), already
    #: validated; the vec dispatch still falls back per cell.
    backend: str = "interp"
    #: Attach a :class:`repro.sanitize.Sanitizer` to every simulated cell.
    sanitize: bool = False
    #: Attach a :class:`repro.obs.Observer` to every simulated cell and
    #: write its event trace and metrics under this directory.
    obs_dir: Optional[str] = None
    #: W3C ``traceparent`` of the run span when the run is sampled: pool
    #: workers parent their job spans to it.
    traceparent: Optional[str] = None
    #: Span JSONL file worker-owned spans are appended to.
    spans_path: Optional[str] = None
    #: Where flight-recorder dumps of this run land (its run directory).
    flight_dir: Optional[str] = None

    def __enter__(self) -> "RunContext":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _stack().pop()


DEFAULT_CONTEXT = RunContext()

_LOCAL = threading.local()


def _stack() -> List[RunContext]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def current_context() -> RunContext:
    """The innermost context entered on this thread, else the default."""
    stack = getattr(_LOCAL, "stack", None)
    return stack[-1] if stack else DEFAULT_CONTEXT
