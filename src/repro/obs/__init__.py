"""repro.obs — cycle-stamped event tracing and metrics for the simulators.

The observability layer the paper's premise implies the simulator itself
should have: informing operations give *software* memory-performance
feedback; ``repro.obs`` gives the *experimenter* the same per-reference
visibility.  An :class:`Observer` attaches to a core exactly like the
:mod:`repro.sanitize` sanitizer — one ``if self._obs is not None``
identity test per hook site, zero cost when off — and records
cycle-stamped structured events (cache hits/misses/fills/evictions,
MSHR lifetimes, informing trap entry/exit), counter and histogram
metrics, per-set conflict heat, and the MSHR occupancy high-water
timeline.  Exporters serialize traces as JSONL or Chrome
``trace_event`` JSON; ``python -m repro.harness report`` renders the
text report.

Enable per-run with ``run_bar(..., observe=Observer())``, or for a whole
engine run (pool workers included) with ``--trace-events DIR``
(``ExecOptions.obs_dir``, carried to every job by the
:class:`repro.context.RunContext`): every simulated cell then writes
``<benchmark>_<machine>_<label>.events.jsonl`` + ``*.metrics.json``
under ``DIR``.

Observation is strictly read-only: traced runs are bit-exact with
untraced ones (CI replays the golden ``figure2 --quick`` grid under
tracing to enforce this).
"""

from __future__ import annotations

import os
from typing import Optional

from repro.context import current_context
from repro.obs.events import EVENT_KINDS, make_event
from repro.obs.export import (
    chrome_trace,
    parse_openmetrics,
    read_jsonl,
    to_openmetrics,
    write_chrome_trace,
    write_jsonl,
    write_openmetrics,
    write_run_artifacts,
)
from repro.obs.metrics import Counter, Histogram, Registry, top_n
from repro.obs.observer import Observer
from repro.obs.report import render_report, report_main, summarize

__all__ = [
    "EVENT_KINDS",
    "Counter",
    "Histogram",
    "Observer",
    "Registry",
    "chrome_trace",
    "job_trace_path",
    "make_event",
    "maybe_observer",
    "parse_openmetrics",
    "read_jsonl",
    "render_report",
    "report_main",
    "summarize",
    "to_openmetrics",
    "top_n",
    "write_chrome_trace",
    "write_jsonl",
    "write_openmetrics",
    "write_run_artifacts",
]


def maybe_observer(explicit: Optional[bool] = None) -> Optional[Observer]:
    """A fresh event-capturing :class:`Observer`, or None when off.

    *explicit* overrides the current run context in both directions;
    None defers to it (observation is on when ``RunContext.obs_dir`` is
    set).
    """
    if explicit is None:
        explicit = current_context().obs_dir is not None
    return Observer(trace=True) if explicit else None


def job_trace_path(directory: str, label: str) -> str:
    """The ``*.events.jsonl`` path a job labelled *label* writes under
    *directory* (slashes in the label become underscores)."""
    return os.path.join(directory,
                        label.replace("/", "_") + ".events.jsonl")
