"""Structured per-job run telemetry.

Every scheduler action emits a :class:`JobEvent` (queued / started /
cache_hit / finished / retried / failed) to the runner's sinks.  Sinks are
pluggable objects with an ``emit(event)`` method:

* :class:`JsonlTraceSink` — append events as JSON lines (the ``--trace``
  file), one object per event, flushed eagerly so a hung run still leaves
  a usable trace.
* :class:`RunTelemetry` — in-memory aggregator: counts, wall times and
  cache accounting, plus the ASCII run summary the CLI prints.
* :class:`ProgressPrinter` — single-line live progress meter.
* :class:`MultiSink` — fan one event stream out to several sinks.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, IO, List, Optional, Sequence

#: Event names, in the order a healthy job emits them.
QUEUED = "queued"
STARTED = "started"
CACHE_HIT = "cache_hit"
RETRIED = "retried"
FINISHED = "finished"
FAILED = "failed"
#: The worker pool died under a job (OOM kill, crashed interpreter);
#: unfinished jobs fall back to the serial path.
POOL_BROKEN = "pool_broken"
#: The run was asked to drain (SIGTERM/SIGINT or an explicit
#: ``request_drain()``): this job was given up without being executed.
#: In-flight jobs still finish and flush; only not-yet-started work drains.
DRAINED = "drained"
#: A resumed run (``harness resume``) served this job from the result
#: cache because the interrupted run's journal marked it finished — the
#: cell was not re-executed.  Followed by FINISHED with ``cache="replay"``.
REPLAYED = "replayed"
#: Stream-level header record: always the first line of a telemetry JSONL
#: stream, carrying the schema version and run provenance so consumers
#: (``harness watch`` / ``harness compare``) can self-describe the file.
RUN_HEADER = "run_header"

#: Version of the JSONL stream layout.  Bumped whenever the header or
#: event record shapes change incompatibly; readers reject versions they
#: do not understand instead of mis-parsing.
TELEMETRY_SCHEMA = 1


@functools.lru_cache(maxsize=1)
def git_sha() -> Optional[str]:
    """The repository HEAD sha, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def run_header_record(*, experiment: Optional[str] = None,
                      argv: Optional[Sequence[str]] = None,
                      seed: Optional[int] = None,
                      workers: Optional[int] = None,
                      jobs: Optional[int] = None) -> Dict[str, Any]:
    """The self-describing first record of a telemetry JSONL stream."""
    return {
        "event": RUN_HEADER,
        "schema": TELEMETRY_SCHEMA,
        "git_sha": git_sha(),
        "experiment": experiment,
        "argv": list(argv) if argv is not None else list(sys.argv),
        "seed": seed,
        "workers": workers,
        "jobs": jobs,
        "started": time.time(),
    }


@dataclass
class JobEvent:
    """One scheduler observation about one job attempt."""

    event: str
    key: str                    # cache key (short id of the job)
    label: str                  # human-readable job identity
    timestamp: float
    attempt: int = 0
    wall: Optional[float] = None       # seconds, finished/failed only
    cache: Optional[str] = None        # "hit" | "miss" | "off"
    error: Optional[str] = None        # retried/failed only
    #: Structured InvariantViolation payload (failed jobs whose simulation
    #: tripped a repro.sanitize check), as InvariantViolation.to_dict().
    violation: Optional[Dict[str, Any]] = None
    #: Path of the repro.obs event trace this job wrote (finished jobs
    #: executed under ``ExecOptions.obs_dir`` / --trace-events only).
    trace: Optional[str] = None
    #: Effective simulation backend of an executed job ("interp" | "vec").
    #: Reports what actually ran — a vec request that fell back to interp
    #: (unsupported bar, stateful replacement policy, sanitizer/observer
    #: attached) records "interp", which is how vec-fallback visibility is
    #: tested.  None on cache hits and non-bar jobs.
    backend: Optional[str] = None
    #: repro.trace span id of this job's span, when the run is sampled
    #: (``--trace-sample``) — joins the telemetry stream to the run's
    #: ``spans.jsonl``.  None when tracing is off.
    span: Optional[str] = None

    def to_json(self) -> str:
        data = {k: v for k, v in asdict(self).items() if v is not None}
        data["key"] = self.key[:16]
        return json.dumps(data, sort_keys=True)


class NullSink:
    def emit(self, event: JobEvent) -> None:
        pass


class MultiSink:
    def __init__(self, sinks: Sequence) -> None:
        self.sinks = list(sinks)

    def emit(self, event: JobEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)


class CollectingSink:
    """Keep every event in memory (tests, programmatic inspection)."""

    def __init__(self) -> None:
        self.events: List[JobEvent] = []

    def emit(self, event: JobEvent) -> None:
        self.events.append(event)

    def names(self) -> List[str]:
        return [event.event for event in self.events]


class JsonlTraceSink:
    """Write events to a JSONL file, one object per line.

    *header* (a :func:`run_header_record` dict) is written before any
    event, so the stream leads with its schema version and provenance.
    *mode* is ``"w"`` or ``"a"``: the engine truncates on a runner's
    first grid and appends for subsequent grids of the same runner (a
    multi-grid experiment like ``sensitivity`` is one stream with one
    header per grid), so a stale file from an earlier invocation never
    bleeds into a new run's stream.
    """

    def __init__(self, path: str,
                 header: Optional[Dict[str, Any]] = None,
                 mode: str = "a") -> None:
        self.path = path
        self._fh: Optional[IO[str]] = open(path, mode)
        if header is not None:
            self.write_record(header)

    def write_record(self, record: Dict[str, Any]) -> None:
        """Write one raw dict as a JSON line (header and marker records)."""
        if self._fh is None:
            return
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def emit(self, event: JobEvent) -> None:
        if self._fh is None:
            return
        self._fh.write(event.to_json() + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class ProgressPrinter:
    """One-line live progress: ``[done/total] hits=H label``."""

    def __init__(self, total: int, stream: Optional[IO[str]] = None) -> None:
        self.total = total
        self.done = 0
        self.hits = 0
        self.stream = stream if stream is not None else sys.stderr

    def emit(self, event: JobEvent) -> None:
        if event.event == CACHE_HIT:
            self.hits += 1
        if event.event not in (FINISHED, FAILED):
            return
        self.done += 1
        line = (f"[{self.done}/{self.total}] hits={self.hits} "
                f"{event.event} {event.label}")
        end = "\n" if self.done == self.total else "\r"
        self.stream.write(f"\r{line:<78}{end}")
        self.stream.flush()


@dataclass
class RunTelemetry:
    """Aggregate view of one scheduler run (also usable as a sink)."""

    jobs: int = 0
    finished: int = 0
    failed: int = 0
    retries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0            # jobs that actually simulated
    pool_breaks: int = 0         # worker pools lost to dead workers
    violations: int = 0          # failures carrying an InvariantViolation
    drained: int = 0             # jobs given up to a graceful drain
    replayed: int = 0            # cells skipped via journal on a resume
    journal_errors: int = 0      # run-journal appends that failed (folded
                                 # in by the engine, not event-driven)
    job_walls: List[float] = field(default_factory=list)
    started_at: float = field(default_factory=time.time)
    wall: float = 0.0

    def emit(self, event: JobEvent) -> None:
        if event.event == QUEUED:
            self.jobs += 1
        elif event.event == DRAINED:
            self.drained += 1
        elif event.event == STARTED:
            self.executed += 1
        elif event.event == CACHE_HIT:
            self.cache_hits += 1
        elif event.event == RETRIED:
            self.retries += 1
        elif event.event == FINISHED:
            self.finished += 1
            if event.cache == "miss":
                self.cache_misses += 1
            if event.wall is not None:
                self.job_walls.append(event.wall)
        elif event.event == FAILED:
            self.failed += 1
            if event.violation is not None:
                self.violations += 1
        elif event.event == POOL_BROKEN:
            self.pool_breaks += 1
        elif event.event == REPLAYED:
            self.replayed += 1

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        walls = self.job_walls
        return {
            "jobs": self.jobs,
            "finished": self.finished,
            "failed": self.failed,
            "retries": self.retries,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "executed": self.executed,
            "pool_breaks": self.pool_breaks,
            "violations": self.violations,
            "drained": self.drained,
            "replayed": self.replayed,
            "journal_errors": self.journal_errors,
            "wall_seconds": round(self.wall, 4),
            "mean_job_seconds": (round(sum(walls) / len(walls), 4)
                                 if walls else 0.0),
        }

    def summary(self) -> str:
        """ASCII run summary for the CLI footer."""
        data = self.as_dict()
        lines = [
            "run summary",
            f"  jobs        {data['jobs']} "
            f"({data['finished']} ok, {data['failed']} failed, "
            f"{data['retries']} retries)",
            f"  cache       {data['cache_hits']} hits / "
            f"{data['cache_misses']} misses "
            f"({100.0 * data['cache_hit_rate']:.0f}% hit rate)",
            f"  wall        {data['wall_seconds']:.2f}s total, "
            f"{data['mean_job_seconds']:.3f}s mean/job "
            f"over {data['executed']} simulated",
        ]
        return "\n".join(lines)
