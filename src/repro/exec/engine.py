"""The scheduler: fan jobs across processes, with cache, retry and timeout.

:class:`JobRunner` takes a sequence of :class:`~repro.exec.job.SimJob`,
resolves what it can from the result cache, executes the rest — inline
when ``jobs == 1`` (byte-identical to the historical serial loops), or on
a ``ProcessPoolExecutor`` otherwise — and returns result dicts in job
order.

Failure policy:

* a job raising :class:`TransientJobError` is retried up to
  ``retries`` times with exponential backoff (``backoff * 2**attempt``
  seconds), each retry surfaced as a ``retried`` telemetry event;
* a job whose simulation trips a :class:`repro.sanitize`
  :class:`InvariantViolation` does **not** abort the grid: the violation
  becomes a structured per-job failure record (``status:
  "invariant_violation"`` plus the violation's component / cycle /
  snapshot) and a ``failed`` telemetry event carrying the same payload,
  while the remaining jobs keep running;
* any other exception, or exhausting the retry budget, fails the run
  with :class:`JobFailedError`;
* in parallel mode a job that does not produce a result within
  ``timeout`` seconds of being waited on fails the run with
  :class:`JobTimeoutError` and cancels the remaining work — the run
  never hangs.  Serial mode cannot preempt a running simulation, so
  there the timeout is checked after the job returns;
* a worker killed by the OS (OOM killer, SIGKILL) breaks the whole
  ``ProcessPoolExecutor`` and poisons every in-flight future — the
  runner emits one ``pool_broken`` event and re-runs the unfinished
  jobs on the serial path, carrying over each job's attempt count so
  the retry budget still bounds the total work.

Graceful shutdown: :meth:`JobRunner.request_drain` (or SIGTERM/SIGINT
when ``options.install_signal_handlers`` is set) stops the run admitting
new work — in-flight jobs finish and are stored/recorded normally,
not-yet-started jobs are given up with a ``drained`` telemetry event,
and the run returns partial results (``None`` for drained slots) after
flushing the telemetry trace and the run manifest.  Before this, a
killed pool could drop the trailing JSONL events and leave no manifest.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.context import DEFAULT_CONTEXT, RunContext
from repro.exec.cache import ResultCache
from repro.exec.job import SimJob, execute_job
from repro.exec.telemetry import (
    CACHE_HIT,
    DRAINED,
    FAILED,
    FINISHED,
    POOL_BROKEN,
    QUEUED,
    REPLAYED,
    RETRIED,
    STARTED,
    CollectingSink,
    JobEvent,
    JsonlTraceSink,
    MultiSink,
    NullSink,
    ProgressPrinter,
    RunTelemetry,
    run_header_record,
)
from repro.sanitize.violation import InvariantViolation
from repro.trace import clear_ambient, flight, maybe_tracer, set_ambient
from repro.vec import resolve_backend


class TransientJobError(RuntimeError):
    """A retryable failure (flaky environment, worker hiccup)."""


class JobTimeoutError(RuntimeError):
    """A job exceeded the configured per-job timeout."""


class JobFailedError(RuntimeError):
    """A job failed permanently (non-transient, or retries exhausted)."""


@dataclass
class ExecOptions:
    """Knobs for one :class:`JobRunner`.

    ``jobs=1`` is the serial fallback: jobs run inline, in order, with no
    worker processes.  ``cache=False`` disables the result cache entirely
    (neither reads nor writes).
    """

    jobs: int = 1
    cache: bool = True
    cache_dir: Optional[str] = None
    timeout: Optional[float] = None     # seconds per job
    retries: int = 2                    # extra attempts after the first
    backoff: float = 0.25               # seconds; doubles per retry
    trace_path: Optional[str] = None    # JSONL event dump
    progress: bool = False              # live stderr progress meter
    #: Root directory for cross-run manifests (repro.perf): each run()
    #: writes ``<manifest_dir>/<run_id>/manifest.json``.  None disables.
    manifest_dir: Optional[str] = None
    #: Run provenance merged into the telemetry header and the manifest
    #: (experiment name, CLI argv, seed, ...).
    run_meta: Optional[Dict[str, Any]] = None
    #: Install SIGTERM/SIGINT handlers for the duration of each run()
    #: (main thread only): the first signal requests a graceful drain,
    #: a second one raises KeyboardInterrupt.  Off by default so library
    #: callers and tests never have their signal disposition touched.
    install_signal_handlers: bool = False
    #: Write-ahead run journal (repro.durable): each run() appends
    #: crc32-framed job start/finish/fail records to
    #: ``<journal_dir>/<run_id>/journal.jsonl`` so a killed grid can be
    #: continued with ``harness resume <run_id>``.  Active only when a
    #: journal directory resolves (``journal_dir``, else ``manifest_dir``);
    #: set False to switch journaling off even then.
    journal: bool = True
    journal_dir: Optional[str] = None
    #: fsync policy for the journal ("always" | "batch" | "off"); None
    #: means "always".
    journal_fsync: Optional[str] = None
    #: Simulation backend for bar jobs ("interp" | "vec", see
    #: :mod:`repro.vec`); None means interp.  Carried to every job by
    #: the run's :class:`~repro.context.RunContext` — never by the job
    #: itself: backends are digit-exact, so a :meth:`SimJob.cache_key`
    #: is backend-free and either backend may serve the shared cache.
    backend: Optional[str] = None
    #: Attach the runtime invariant sanitizer (:mod:`repro.sanitize`) to
    #: every simulated cell (``--sanitize``).
    sanitize: bool = False
    #: Attach a :mod:`repro.obs` observer to every simulated cell and
    #: write its event trace and metrics under this directory
    #: (``--trace-events DIR``).
    obs_dir: Optional[str] = None
    #: repro.trace head-based sampling rate for this run ([0, 1]); None
    #: or 0.0 leaves tracing off (one ``is None`` test per
    #: instrumentation site).
    trace_sample: Optional[float] = None
    #: Incoming ``traceparent`` header (repro.serve): when it carries a
    #: sampled context this run continues that trace regardless of the
    #: sampling rate; an unsampled parent disables tracing (head-based
    #: sampling — the caller's decision wins).
    trace_parent: Optional[str] = None
    #: Span JSONL destination override.  None (the default) places spans
    #: next to the run's other artifacts: ``<root>/<run_id>/spans.jsonl``.
    spans_path: Optional[str] = None


def _timed_call(execute: Callable[[SimJob], Dict[str, Any]],
                job: SimJob, ctx: RunContext):
    """Run *execute* under the run context *ctx*; measure its wall time.

    The one entry point of both the serial loop and the process pool
    (module-level so the pool can pickle it by reference).
    """
    start = time.perf_counter()
    with ctx:
        result = execute(job)
    return result, time.perf_counter() - start


class JournalSink:
    """Telemetry sink that mirrors job lifecycle events into a
    :class:`repro.durable.RunJournal`.

    Because the engine stores a result in the cache *before* emitting
    FINISHED, a journaled ``job_finish`` implies the result is durably
    cached — the invariant ``harness resume`` relies on to skip
    completed cells.  Append failures are absorbed by the journal itself
    (counted, never raised), so this sink can never take a run down.
    """

    _RECORDS = {STARTED: "job_start", FINISHED: "job_finish",
                FAILED: "job_fail", RETRIED: "job_retry",
                DRAINED: "job_drained", POOL_BROKEN: "pool_broken"}

    def __init__(self, journal) -> None:
        self.journal = journal

    def emit(self, event: JobEvent) -> None:
        rec = self._RECORDS.get(event.event)
        if rec is None:
            return
        fields: Dict[str, Any] = {"key": event.key, "label": event.label,
                                  "attempt": event.attempt}
        if event.cache is not None:
            fields["cache"] = event.cache
        if event.error is not None:
            fields["error"] = event.error
        self.journal.record(rec, **fields)


class FlightSink:
    """Telemetry sink feeding the process-wide repro.trace flight
    recorder: a bounded ring of recent scheduler events that is always
    on (appending to a deque, no I/O) and only hits disk when a crash
    path dumps it.  This is what makes a pool-broken / invariant /
    drain artifact readable — the last ~256 events before the fault.
    """

    def __init__(self, recorder) -> None:
        self.recorder = recorder

    def emit(self, event: JobEvent) -> None:
        self.recorder.note(
            "job." + event.event, key=event.key[:16], label=event.label,
            attempt=event.attempt,
            **({"error": event.error} if event.error else {}))


class JobRunner:
    """Execute SimJobs through the cache/scheduler/telemetry stack.

    ``execute`` is pluggable (module-level callable taking a SimJob) so
    tests can inject flaky or slow payloads; it defaults to
    :func:`repro.exec.job.execute_job`.
    """

    def __init__(self, options: Optional[ExecOptions] = None, *,
                 execute: Callable[[SimJob], Dict[str, Any]] = execute_job,
                 sinks: Sequence = (),
                 cache: Optional[ResultCache] = None) -> None:
        self.options = options or ExecOptions()
        resolve_backend(self.options.backend)  # BackendError on a typo
        self.execute = execute
        self.extra_sinks = list(sinks)
        if cache is not None:
            self.cache: Optional[ResultCache] = cache
        elif self.options.cache:
            self.cache = (ResultCache(self.options.cache_dir)
                          if self.options.cache_dir else ResultCache())
        else:
            self.cache = None
        self.stats = RunTelemetry()
        #: Path of the most recent run's manifest.json (repro.perf), when
        #: ``options.manifest_dir`` is set and the write succeeded.
        self.last_manifest: Optional[str] = None
        #: Run id and journal path of the most recent run(), when
        #: journaling was active (``harness resume <last_run_id>``
        #: continues that run after a kill).
        self.last_run_id: Optional[str] = None
        self.last_journal: Optional[str] = None
        #: Span JSONL path of the most recent run(), when it was sampled
        #: (``harness spans <run_id>`` reads it via the manifest).
        self.last_spans: Optional[str] = None
        self._trace_opened = False
        self._drain = False
        #: State for the duration of one run(): the settings every job
        #: runs under, the sampled repro.trace tracer (None → tracing
        #: off, the common case) and the run-root span.
        self._ctx = DEFAULT_CONTEXT
        self._tr = None
        self._run_span = None
        self._flight_dumped: set = set()

    # -- graceful shutdown ---------------------------------------------------
    @property
    def draining(self) -> bool:
        """True once a drain was requested; sticky across grids."""
        return self._drain

    def request_drain(self) -> None:
        """Ask the current (and any future) run to stop admitting work.

        Safe from signal handlers and other threads: it only sets a flag
        the run loops poll between jobs.  In-flight jobs finish and are
        recorded; jobs not yet started are marked ``drained`` and their
        result slot stays ``None``.
        """
        self._drain = True

    @contextlib.contextmanager
    def _graceful_signals(self):
        """SIGTERM/SIGINT -> drain, for the duration of one run().

        Only active when ``options.install_signal_handlers`` is set and
        we are on the main thread (the only place the signal module
        allows handler changes).  A second signal while already draining
        raises KeyboardInterrupt so a hung drain can still be escaped.
        """
        if (not self.options.install_signal_handlers
                or threading.current_thread() is not threading.main_thread()):
            yield
            return
        previous = {}

        def _on_signal(signum, frame):
            if self._drain:
                raise KeyboardInterrupt
            self.request_drain()

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, _on_signal)
            except (ValueError, OSError):  # non-main interpreter quirks
                pass
        try:
            yield
        finally:
            for signum, old in previous.items():
                try:
                    signal.signal(signum, old)
                except (ValueError, OSError):
                    pass

    # -- telemetry helpers ---------------------------------------------------
    def _emit(self, sink, event: str, job: SimJob, key: str,
              **extra) -> None:
        sink.emit(JobEvent(event=event, key=key, label=job.label,
                           timestamp=time.time(), **extra))

    def _span(self, name: str, **attrs):
        """A child span of this run's root span, finished on exit (status
        "error" if the body raised) — or a no-op context yielding None
        when the run is untraced."""
        if self._tr is None:
            return contextlib.nullcontext()
        return self._tr.span(name, parent=self._run_span, **attrs)

    def _trace_extra(self, job: SimJob) -> Dict[str, str]:
        """FINISHED-event extras for executed jobs: the per-job repro.obs
        trace path (when the run has an obs directory) and the effective
        simulation backend."""
        from repro.obs import job_trace_path

        extra: Dict[str, str] = {}
        if self._ctx.obs_dir:
            extra["trace"] = job_trace_path(self._ctx.obs_dir, job.label)
        backend = self._effective_backend(job)
        if backend is not None:
            extra["backend"] = backend
        return extra

    def _effective_backend(self, job: SimJob) -> Optional[str]:
        """The backend a just-executed bar job actually ran on.

        Mirrors the dispatch in :func:`repro.harness.runner.run_bar`: a
        "vec" request downgrades to "interp" when the bar or replacement
        policy is outside the flat kernels, or a sanitizer/observer is
        attached — making vec fallbacks visible in telemetry rather than
        silent.  None for non-bar jobs (they have no backend choice).
        """
        from repro.exec.job import KIND_BAR

        if job.kind != KIND_BAR:
            return None
        from repro.harness.runner import bar_config
        from repro.vec import vec_supports

        ctx = self._ctx
        if ctx.backend != "vec":
            return "interp"
        cfg = job.config_dict()
        try:
            bar = bar_config(cfg.get("label", "N"))
        except ValueError:
            return None
        if (ctx.sanitize or ctx.obs_dir
                or not vec_supports(bar, cfg.get("policy", "lru"))):
            return "interp"
        return "vec"

    def _header(self, total: int) -> Dict[str, Any]:
        """The run-header record for this invocation's telemetry stream."""
        meta = self.options.run_meta or {}
        return run_header_record(
            experiment=meta.get("experiment"),
            argv=meta.get("argv"),
            seed=meta.get("seed"),
            workers=self.options.jobs,
            jobs=total)

    def _open_journal(self, total: int):
        """Start the write-ahead journal for one run(), if configured.

        Returns ``(run_id, journal)`` — ``(None, None)`` when journaling
        is off or no journal directory resolves.  The run id is minted
        here (not at manifest-write time) so the journal and the manifest
        share one ``<root>/<run_id>/`` directory and a kill before the
        manifest still leaves a resumable run on disk.
        """
        root = self.options.journal_dir or self.options.manifest_dir
        if not self.options.journal or not root:
            return None, None
        from repro.durable.journal import (JOURNAL_NAME, RunJournal,
                                           header_record)
        from repro.perf.manifest import new_run_id

        meta = self.options.run_meta or {}
        run_id = new_run_id(meta.get("experiment"))
        journal = RunJournal(os.path.join(root, run_id, JOURNAL_NAME),
                             fsync=self.options.journal_fsync)
        journal.append(header_record(
            "exec_run", run_id=run_id, experiment=meta.get("experiment"),
            argv=meta.get("argv"), seed=meta.get("seed"),
            workers=self.options.jobs, jobs=total, started=time.time()))
        return run_id, journal

    def _build_sink(self, total: int, journal=None):
        sinks: List = [self.stats] + self.extra_sinks
        trace = None
        collector = None
        if journal is not None:
            sinks.append(JournalSink(journal))
        if self.options.trace_path:
            # First grid truncates any stale file; later grids of the
            # same runner (multi-grid experiments) append to the stream.
            trace = JsonlTraceSink(self.options.trace_path,
                                   header=self._header(total),
                                   mode="a" if self._trace_opened else "w")
            self._trace_opened = True
            sinks.append(trace)
        if self.options.manifest_dir:
            collector = CollectingSink()
            sinks.append(collector)
        if self.options.progress:
            sinks.append(ProgressPrinter(total))
        sinks.append(FlightSink(flight()))
        return (MultiSink(sinks) if sinks else NullSink()), trace, collector

    def _maybe_flight_dump(self, reason: str) -> None:
        """Dump the flight-recorder tail once per (run, reason).

        Only materializes when the run has its own artifact directory,
        so library callers without run dirs never find stray crash files
        in cwd.
        """
        if reason in self._flight_dumped:
            return
        self._flight_dumped.add(reason)
        if self._ctx.flight_dir:
            flight().dump(reason, self._ctx.flight_dir)

    # -- main entry ----------------------------------------------------------
    def run(self, jobs: Sequence[SimJob],
            resume=None) -> List[Dict[str, Any]]:
        """Run *jobs* and return their result dicts in the same order.

        ``self.stats`` accumulates across calls (an experiment like
        ``sensitivity`` submits several grids through one runner); build a
        fresh JobRunner for independent accounting.

        *resume* is a :class:`repro.durable.RunState` (or anything with
        ``completed``/``attempts`` keyed by cache key): journal-completed
        cells are replayed from the cache without re-executing (a
        ``replayed`` event plus FINISHED with ``cache="replay"``), and
        re-run cells inherit their journaled attempt counts so the retry
        budget spans the interrupted run and the resume.  A completed
        cell whose cache entry was lost or quarantined silently re-runs.
        """
        run_id, journal = self._open_journal(len(jobs))
        meta = self.options.run_meta or {}
        self._tr = maybe_tracer(self.options.trace_sample,
                                self.options.trace_parent)
        root = self.options.journal_dir or self.options.manifest_dir
        if self._tr is not None and run_id is None and root:
            # Journaling is off but this run is sampled: mint the run id
            # here so the spans land in the same <root>/<run_id>/
            # directory the manifest will use.
            from repro.perf.manifest import new_run_id

            run_id = new_run_id(meta.get("experiment"))
        run_dir = os.path.join(root, run_id) if run_id else None
        self._flight_dumped = set()
        traceparent = spans_path = None
        if self._tr is not None:
            spans_path = self.options.spans_path or (
                os.path.join(run_dir, "spans.jsonl") if run_dir else None)
            self._run_span = self._tr.start_span(
                "run", jobs=len(jobs), workers=self.options.jobs,
                **({"run_id": run_id} if run_id else {}),
                **({"experiment": meta["experiment"]}
                   if meta.get("experiment") else {}))
            traceparent = self._tr.traceparent(self._run_span)
        self._ctx = RunContext(
            backend=resolve_backend(self.options.backend),
            sanitize=self.options.sanitize, obs_dir=self.options.obs_dir,
            traceparent=traceparent, spans_path=spans_path,
            flight_dir=run_dir)
        sink, trace, collector = self._build_sink(len(jobs), journal)
        run_start = time.perf_counter()
        results: List[Optional[Dict[str, Any]]] = [None] * len(jobs)
        error: Optional[BaseException] = None
        completed = getattr(resume, "completed", None) or {}
        carried = dict(getattr(resume, "attempts", None) or {})
        try:
            with self._graceful_signals():
                keys = [job.cache_key() for job in jobs]
                if journal is not None:
                    with self._span("journal.append"):
                        journal.record(
                            "run_start", run_id=run_id,
                            jobs=[{"key": key, "job": job.to_dict()}
                                  for job, key in zip(jobs, keys)])
                pending: List[int] = []
                attempts0: Dict[int, int] = {}
                with self._span("cache.probe") as probe_span:
                    for index, (job, key) in enumerate(zip(jobs, keys)):
                        self._emit(sink, QUEUED, job, key)
                        cached = self.cache.get(job) if self.cache else None
                        if cached is not None and key in completed:
                            results[index] = cached
                            self._emit(sink, REPLAYED, job, key)
                            self._emit(sink, FINISHED, job, key,
                                       cache="replay", wall=0.0)
                        elif cached is not None:
                            results[index] = cached
                            self._emit(sink, CACHE_HIT, job, key)
                            self._emit(sink, FINISHED, job, key,
                                       cache="hit", wall=0.0)
                        else:
                            pending.append(index)
                            if carried.get(key):
                                attempts0[index] = int(carried[key])
                    if probe_span is not None:
                        probe_span.set_attr("hits",
                                            len(jobs) - len(pending))
                        probe_span.set_attr("pending", len(pending))

                if pending:
                    if self.options.jobs <= 1:
                        self._run_serial(jobs, keys, pending, results, sink,
                                         attempts=attempts0 or None)
                    else:
                        self._run_parallel(jobs, keys, pending, results,
                                           sink,
                                           initial_attempts=attempts0)
            return results  # type: ignore[return-value]
        except BaseException as exc:
            error = exc
            raise
        finally:
            self.stats.wall += time.perf_counter() - run_start
            if journal is not None:
                status = ("failed" if error is not None
                          else "drained" if self._drain else "ok")
                journal.record("run_end", status=status,
                               finished=time.time())
                journal.close()
                self.stats.journal_errors += journal.errors
                self.last_run_id = run_id
                self.last_journal = (journal.path if journal.records_written
                                     else None)
            if trace is not None:
                trace.close()
            self.last_spans = self._ctx.spans_path
            if collector is not None:
                with self._span("manifest.write"):
                    self._write_manifest(jobs, results, collector, error,
                                         run_id=run_id)
            if self._tr is not None:
                self._run_span.finish("error" if error is not None else None)
                self._tr.flush(self._ctx.spans_path)
                self._tr = None
                self._run_span = None
            self._ctx = DEFAULT_CONTEXT

    def _write_manifest(self, jobs, results, collector, error,
                        run_id=None) -> None:
        """Cross-run observatory hook: persist this run's manifest.

        Imported lazily so repro.exec keeps no hard dependency on
        repro.perf; a manifest-write failure never masks the run itself.
        *run_id* ties the manifest to the run's journal directory when
        journaling was active.
        """
        from repro.perf.manifest import write_run_manifest

        try:
            self.last_manifest = write_run_manifest(
                self.options.manifest_dir, jobs=jobs, results=results,
                events=collector.events, runner=self,
                error=error, run_id=run_id)
        except OSError:
            self.last_manifest = None

    # -- serial path ---------------------------------------------------------
    def _run_serial(self, jobs, keys, pending, results, sink,
                    attempts: Optional[Dict[int, int]] = None,
                    span_mode: str = "serial") -> None:
        """Run *pending* inline.  *attempts* carries prior attempt counts
        (the pool-broken fallback path), so the retry budget bounds the
        total attempts a job gets across both execution modes.
        *span_mode* labels this path's repro.trace job spans — the
        pool-broken fallback re-parents its re-run jobs under the same
        run span with ``mode="serial_fallback"``.

        Jobs of the batch that replay the same workload stream share one
        generation of it (:func:`repro.workloads.streams.share_streams`);
        nothing shared outlives this call."""
        from repro.workloads.streams import share_streams

        with share_streams(jobs[index].stream_key()
                           for index in pending) as streams:
            self._serial_jobs(jobs, keys, pending, results, sink, attempts,
                              span_mode, streams)

    def _serial_jobs(self, jobs, keys, pending, results, sink, attempts,
                     span_mode, streams) -> None:
        cache_state = "miss" if self.cache else "off"
        for position, index in enumerate(pending):
            if self._drain:
                self._drain_indices(jobs, keys, pending[position:], results,
                                    sink, attempts)
                return
            job, key = jobs[index], keys[index]
            attempt = attempts.get(index, 0) if attempts else 0
            violation = None
            with self._span("job", label=job.label, mode=span_mode) as jspan:
                if jspan is not None:
                    set_ambient(self._tr, jspan)
                try:
                    while True:
                        self._emit(sink, STARTED, job, key, attempt=attempt)
                        try:
                            result, wall = _timed_call(self.execute, job,
                                                       self._ctx)
                            break
                        except InvariantViolation as exc:
                            violation = exc
                            break
                        except TransientJobError as exc:
                            attempt += 1
                            if attempt > self.options.retries:
                                self._fail(sink, job, key, attempt, exc)
                            self._retry(sink, job, key, attempt, exc)
                        except Exception as exc:
                            self._fail(sink, job, key, attempt + 1, exc)
                    if violation is not None:
                        if jspan is not None:
                            jspan.set_attr("violation", True)
                            jspan.finish("error")
                        results[index] = self._violation_result(
                            sink, job, key, attempt, violation)
                        continue
                    timeout = self.options.timeout
                    if timeout is not None and wall > timeout:
                        self._emit(sink, FAILED, job, key, attempt=attempt,
                                   wall=wall, error="timeout")
                        raise JobTimeoutError(
                            f"job {job.label} took {wall:.2f}s, exceeding "
                            f"the {timeout:.2f}s per-job timeout (serial "
                            f"mode can only detect this after the fact; "
                            f"use --jobs >= 2 to preempt)")
                    self._store(job, result)
                    results[index] = result
                    self._emit(sink, FINISHED, job, key, attempt=attempt,
                               wall=wall, cache=cache_state,
                               **self._trace_extra(job),
                               **({"span": jspan.span_id} if jspan else {}))
                finally:
                    if streams is not None:
                        streams.release(job.stream_key())
                    if jspan is not None:
                        clear_ambient()
                        jspan.set_attr("attempt", attempt)

    # -- parallel path -------------------------------------------------------
    @staticmethod
    def _abort_pool(pool: ProcessPoolExecutor) -> None:
        """Stop a pool without waiting on in-flight (possibly hung) jobs."""
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.terminate()
            except Exception:
                pass

    def _run_parallel(self, jobs, keys, pending, results, sink,
                      initial_attempts: Optional[Dict[int, int]] = None
                      ) -> None:
        cache_state = "miss" if self.cache else "off"
        workers = min(self.options.jobs, len(pending))
        timeout = self.options.timeout
        pool = ProcessPoolExecutor(max_workers=workers)
        aborted = False
        jspans: Dict[int, Any] = {}
        try:
            futures = {}
            # Seed attempt counts carried in from a resumed run so the
            # retry budget bounds total attempts across both runs.
            attempts = {index: (initial_attempts or {}).get(index, 0)
                        for index in pending}
            for index in pending:
                self._emit(sink, STARTED, jobs[index], keys[index],
                           attempt=attempts[index])
                if self._tr is not None:
                    jspans[index] = self._tr.start_span(
                        "job", parent=self._run_span,
                        label=jobs[index].label, mode="pool")
                futures[index] = pool.submit(_timed_call, self.execute,
                                             jobs[index], self._ctx)
            # Collect in submission order; retries resubmit in place.
            try:
                for index in pending:
                    if self._drain and results[index] is None:
                        aborted = True
                        self._drain_pool(pool, jobs, keys, pending, futures,
                                         attempts, results, sink,
                                         cache_state)
                        return
                    job, key = jobs[index], keys[index]
                    violation = None
                    while True:
                        try:
                            result, wall = futures[index].result(
                                timeout=timeout)
                            break
                        except FutureTimeoutError:
                            aborted = True
                            self._emit(sink, FAILED, job, key,
                                       attempt=attempts[index],
                                       error="timeout")
                            self._abort_pool(pool)
                            raise JobTimeoutError(
                                f"job {job.label} produced no result within "
                                f"the {timeout:.2f}s per-job timeout; run "
                                f"aborted "
                                f"({sum(r is None for r in results)} jobs "
                                f"unfinished)") from None
                        except BrokenProcessPool:
                            raise  # handled below: fall back to serial
                        except InvariantViolation as exc:
                            violation = exc
                            break
                        except TransientJobError as exc:
                            attempts[index] += 1
                            if attempts[index] > self.options.retries:
                                aborted = True
                                self._abort_pool(pool)
                                self._fail(sink, job, key, attempts[index],
                                           exc)
                            self._retry(sink, job, key, attempts[index], exc)
                            self._emit(sink, STARTED, job, key,
                                       attempt=attempts[index])
                            futures[index] = pool.submit(
                                _timed_call, self.execute, job, self._ctx)
                        except Exception as exc:
                            aborted = True
                            self._abort_pool(pool)
                            self._fail(sink, job, key, attempts[index] + 1,
                                       exc)
                    jspan = jspans.pop(index, None)
                    if violation is not None:
                        if jspan is not None:
                            jspan.set_attr("violation", True)
                            jspan.set_attr("attempt", attempts[index])
                            jspan.finish("error")
                        results[index] = self._violation_result(
                            sink, job, key, attempts[index], violation)
                        continue
                    if jspan is not None:
                        jspan.set_attr("attempt", attempts[index])
                        jspan.finish()
                    self._store(job, result)
                    results[index] = result
                    self._emit(sink, FINISHED, job, key,
                               attempt=attempts[index], wall=wall,
                               cache=cache_state,
                               **self._trace_extra(job),
                               **({"span": jspan.span_id} if jspan else {}))
            except BrokenProcessPool as exc:
                # A worker died hard (OOM kill, crashed interpreter): the
                # pool and every in-flight future are poisoned.  Tear the
                # pool down and finish the remaining jobs serially — the
                # results already collected stand, and attempt counts carry
                # over so the retry budget still bounds total work.
                aborted = True
                self._emit(sink, POOL_BROKEN, job, key,
                           attempt=attempts.get(index, 0),
                           error=f"{type(exc).__name__}: {exc}")
                self._maybe_flight_dump("pool_broken")
                self._abort_pool(pool)
                # Close the dead pool's dispatch spans; the fallback
                # re-runs get fresh spans (mode="serial_fallback") under
                # the same run span, so the tree stays connected.
                for orphan in jspans.values():
                    orphan.set_attr("pool_broken", True)
                    orphan.finish("error")
                jspans.clear()
                unfinished = [i for i in pending if results[i] is None]
                self._run_serial(jobs, keys, unfinished, results, sink,
                                 attempts=attempts,
                                 span_mode="serial_fallback")
        finally:
            if not aborted:
                pool.shutdown(wait=True, cancel_futures=True)

    # -- graceful drain ------------------------------------------------------
    def _drain_indices(self, jobs, keys, indices, results, sink,
                       attempts: Optional[Dict[int, int]] = None) -> None:
        """Mark every unfinished job in *indices* as drained."""
        self._maybe_flight_dump("drain")
        for index in indices:
            if results[index] is not None:
                continue
            attempt = (attempts or {}).get(index, 0)
            self._emit(sink, DRAINED, jobs[index], keys[index],
                       attempt=attempt)

    def _drain_pool(self, pool, jobs, keys, pending, futures, attempts,
                    results, sink, cache_state) -> None:
        """Drain the parallel path: wait for in-flight futures, cancel the
        queued ones, harvest whatever completed, mark the rest drained."""
        self._maybe_flight_dump("drain")
        pool.shutdown(wait=True, cancel_futures=True)
        for index in pending:
            if results[index] is not None:
                continue
            future = futures.get(index)
            attempt = attempts.get(index, 0)
            if (future is not None and future.done()
                    and not future.cancelled()):
                exc = future.exception()
                if exc is None:
                    result, wall = future.result()
                    self._store(jobs[index], result)
                    results[index] = result
                    self._emit(sink, FINISHED, jobs[index], keys[index],
                               attempt=attempt, wall=wall,
                               cache=cache_state,
                               **self._trace_extra(jobs[index]))
                    continue
                if isinstance(exc, InvariantViolation):
                    results[index] = self._violation_result(
                        sink, jobs[index], keys[index], attempt, exc)
                    continue
                # Any other in-flight failure during a drain is recorded
                # as drained-with-error rather than aborting the flush.
                self._emit(sink, DRAINED, jobs[index], keys[index],
                           attempt=attempt,
                           error=f"{type(exc).__name__}: {exc}")
                continue
            self._emit(sink, DRAINED, jobs[index], keys[index],
                       attempt=attempt)

    # -- shared helpers ------------------------------------------------------
    def _violation_result(self, sink, job, key, attempt,
                          exc: InvariantViolation) -> Dict[str, Any]:
        """Convert an in-simulation invariant violation into a structured
        per-job failure record; the rest of the grid keeps running."""
        self._emit(sink, FAILED, job, key, attempt=attempt,
                   error=f"{type(exc).__name__}: {exc}",
                   violation=exc.to_dict())
        self._maybe_flight_dump("invariant_violation")
        return {"status": "invariant_violation", "job": job.to_dict(),
                "violation": exc.to_dict()}

    def _store(self, job: SimJob, result: Dict[str, Any]) -> None:
        if self.cache is not None:
            self.cache.put(job, result)

    def _retry(self, sink, job, key, attempt, exc) -> None:
        self._emit(sink, RETRIED, job, key, attempt=attempt,
                   error=f"{type(exc).__name__}: {exc}")
        time.sleep(self.options.backoff * (2 ** (attempt - 1)))

    def _fail(self, sink, job, key, attempts, exc) -> None:
        """Abort the run; *attempts* is the total number of attempts made."""
        self._emit(sink, FAILED, job, key, attempt=attempts - 1,
                   error=f"{type(exc).__name__}: {exc}")
        raise JobFailedError(
            f"job {job.label} failed after {attempts} attempt(s): "
            f"{type(exc).__name__}: {exc}") from exc
