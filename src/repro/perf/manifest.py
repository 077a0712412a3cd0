"""The run manifest store: one ``manifest.json`` per grid run.

A manifest freezes everything a later comparison needs about one
:class:`repro.exec.JobRunner` invocation — provenance (git sha, CLI
argv, seed, machine fingerprint, config digest), the scheduler's
aggregate stats, and a per-cell record holding each job's identity,
wall time, cache state and *simulated* result dict.  Simulated numbers
are deterministic, so two manifests of the same config/seed must agree
digit-for-digit; wall times are noise and get statistical treatment
instead (see :mod:`repro.perf.compare`).

Layout: ``<runs_root>/<run_id>/manifest.json`` with ``runs_root``
defaulting to ``results/runs`` (override with ``REPRO_RUNS_DIR`` or the
CLI's ``--manifest-dir``).  Run ids are ``<UTC stamp>-<experiment>-
<pid>-<seq>``: sortable, unique within and across processes, and
human-greppable.  Writes are atomic (tmp + rename), like every baseline
file in this repo.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.exec.bench import atomic_write_json
from repro.exec.telemetry import DRAINED, FINISHED, JobEvent, git_sha

#: Manifest layout version; compare/load reject versions they don't know.
MANIFEST_SCHEMA = 1
#: Discriminator so sniffing code can tell a manifest from a BENCH file.
MANIFEST_KIND = "run_manifest"

ENV_RUNS_DIR = "REPRO_RUNS_DIR"
DEFAULT_RUNS_ROOT = os.path.join("results", "runs")

#: Result fields that are *simulated* outputs (deterministic given the
#: job) for bar cells; everything listed here is compared digit-exact.
_BAR_SIM_FIELDS = (
    "cycles", "busy", "cache_stall", "other_stall", "app_instructions",
    "handler_instructions", "handler_invocations", "l1_miss_rate",
)

_run_seq = itertools.count()


def runs_root(explicit: Optional[str] = None) -> str:
    """The manifest root: *explicit*, ``REPRO_RUNS_DIR``, or the default."""
    return (explicit or os.environ.get(ENV_RUNS_DIR, "").strip()
            or DEFAULT_RUNS_ROOT)


def new_run_id(experiment: Optional[str] = None) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    tag = (experiment or "run").replace("/", "_")
    return f"{stamp}-{tag}-{os.getpid()}-{next(_run_seq)}"


def machine_fingerprint() -> Dict[str, Any]:
    """Where this run happened: enough to explain wall-time deltas."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": os.cpu_count(),
        "hostname": platform.node(),
    }


def config_digest(jobs: Sequence) -> str:
    """One hex digest over the whole grid's content addresses.

    Two runs with equal digests simulated the exact same cells (same
    benchmarks, machines, bars, run lengths, seeds and code version), so
    their simulated stats are directly comparable.
    """
    digest = hashlib.sha256()
    for key in sorted(job.cache_key() for job in jobs):
        digest.update(key.encode("ascii"))
    return digest.hexdigest()


def _metrics_digest(directory: Optional[str], label: str) -> Optional[str]:
    """Digest of the cell's repro.obs metrics.json under the run's obs
    *directory*, when one was written."""
    if not directory:
        return None
    path = os.path.join(directory,
                        label.replace("/", "_") + ".metrics.json")
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _sim_view(result: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """The deterministic (simulated) slice of a job result dict."""
    if result is None:
        return None
    if result.get("status") == "invariant_violation":
        return {"status": "invariant_violation"}
    if all(field in result for field in _BAR_SIM_FIELDS):
        return {field: result[field] for field in _BAR_SIM_FIELDS}
    # Non-bar kinds (access_control, test payloads): every field the
    # executor returned is simulated output.
    return dict(result)


def build_cells(jobs: Sequence, results: Sequence[Optional[Dict[str, Any]]],
                events: Sequence[JobEvent],
                obs_dir: Optional[str] = None) -> List[Dict[str, Any]]:
    """Fold the telemetry stream + results into per-cell records."""
    finished: Dict[str, JobEvent] = {}
    attempts: Dict[str, int] = {}
    drained = set()
    for event in events:
        if event.event == FINISHED:
            finished[event.key] = event
        elif event.event == DRAINED:
            drained.add(event.key)
        attempts[event.key] = max(attempts.get(event.key, 0), event.attempt)
    cells = []
    for job, result in zip(jobs, results):
        key = job.cache_key()
        done = finished.get(key)
        status = "ok"
        if result is None:
            status = "drained" if key in drained else "unfinished"
        elif result.get("status") == "invariant_violation":
            status = "invariant_violation"
        cells.append({
            "label": job.label,
            "key": key[:16],
            "kind": job.kind,
            "benchmark": job.benchmark,
            "machine": job.machine,
            "status": status,
            "cache": done.cache if done is not None else None,
            "wall": done.wall if done is not None else None,
            # The cell's repro.obs event trace (runs under --trace-events
            # only); ``harness explain <run_id>`` reads it back.
            "trace": done.trace if done is not None else None,
            "attempts": attempts.get(key, 0),
            "sim": _sim_view(result),
            "metrics_digest": _metrics_digest(obs_dir, job.label),
        })
    return cells


def build_manifest(jobs: Sequence,
                   results: Sequence[Optional[Dict[str, Any]]],
                   events: Sequence[JobEvent], runner,
                   error: Optional[BaseException] = None,
                   run_id: Optional[str] = None) -> Dict[str, Any]:
    """Assemble the manifest dict for one finished (or aborted) run."""
    meta = runner.options.run_meta or {}
    experiment = meta.get("experiment")
    return {
        "kind": MANIFEST_KIND,
        "schema": MANIFEST_SCHEMA,
        "run_id": run_id or new_run_id(experiment),
        "experiment": experiment,
        "argv": meta.get("argv"),
        "seed": meta.get("seed"),
        "git_sha": git_sha(),
        "written": time.time(),
        "machine": machine_fingerprint(),
        "config_digest": config_digest(jobs),
        "workers": runner.options.jobs,
        "cache_enabled": runner.cache is not None,
        "telemetry_path": runner.options.trace_path,
        "journal_path": getattr(runner, "last_journal", None),
        "spans_path": getattr(runner, "last_spans", None),
        "resumed_from": meta.get("resumed_from"),
        "status": ("failed" if error is not None else
                   "drained" if getattr(runner, "draining", False) else "ok"),
        "error": (f"{type(error).__name__}: {error}"
                  if error is not None else None),
        "stats": runner.stats.as_dict(),
        "cells": build_cells(jobs, results, events,
                             obs_dir=runner.options.obs_dir),
    }


def write_run_manifest(directory: Optional[str], jobs, results, events,
                       runner, error: Optional[BaseException] = None,
                       run_id: Optional[str] = None) -> str:
    """Write ``<directory>/<run_id>/manifest.json``; return its path.

    *run_id* pins the directory when the engine already minted one for
    its journal, so journal and manifest land side by side.
    """
    manifest = build_manifest(jobs, results, events, runner, error=error,
                              run_id=run_id)
    run_dir = os.path.join(runs_root(directory), manifest["run_id"])
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, "manifest.json")
    atomic_write_json(path, manifest)
    return path


class ManifestError(ValueError):
    """A manifest could not be located or has an unknown schema."""


def resolve_manifest_path(ref: str,
                          root: Optional[str] = None) -> Optional[str]:
    """Resolve *ref* (run id, run dir, or manifest path) to a file path."""
    candidates = [
        ref,
        os.path.join(ref, "manifest.json"),
        os.path.join(runs_root(root), ref, "manifest.json"),
    ]
    for candidate in candidates:
        if os.path.isfile(candidate):
            return candidate
    return None


def load_manifest(ref: str, root: Optional[str] = None) -> Dict[str, Any]:
    """Load and validate a manifest by run id, directory or file path."""
    path = resolve_manifest_path(ref, root)
    if path is None:
        raise ManifestError(
            f"no manifest found for {ref!r} (tried the path itself, "
            f"<ref>/manifest.json, and {runs_root(root)}/<ref>/manifest.json)")
    with open(path) as fh:
        data = json.load(fh)
    if data.get("kind") != MANIFEST_KIND:
        raise ManifestError(f"{path} is not a run manifest")
    if data.get("schema") != MANIFEST_SCHEMA:
        raise ManifestError(
            f"{path} has manifest schema {data.get('schema')!r}; this "
            f"build understands schema {MANIFEST_SCHEMA} — regenerate the "
            f"run or upgrade")
    return data


def list_runs(root: Optional[str] = None) -> List[str]:
    """Run ids under the manifest root, oldest first (ids sort by time)."""
    base = runs_root(root)
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return []
    return [entry for entry in entries
            if os.path.isfile(os.path.join(base, entry, "manifest.json"))]
