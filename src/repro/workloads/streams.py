"""Batch-scoped sharing of workload instruction streams.

A cell's workload stream depends only on ``(benchmark, seed, length
bound)``: generators are seeded, never see simulation state, and no
core mutates a :class:`~repro.isa.instructions.DynInst`.  So inside one
serial batch of jobs (:meth:`repro.exec.JobRunner.run`) on one thread,
:func:`share_streams` generates a key that two or more jobs replay
once, into an ``itertools.tee`` master that is never advanced; each
cell replays a ``copy.copy`` of it on demand, so generation never runs
ahead of what a core fetches.  A key is dropped after its last job and
everything when the batch ends, however it ends.  Elsewhere (a direct
call, a single-job batch, a pool worker) a cell gets a plain
generator: a process-wide memo would keep ``DynInst`` objects alive
and slow later cells (DESIGN.md §6).
"""

from __future__ import annotations

import contextlib
import copy
import threading
from collections import Counter
from itertools import tee
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.isa.instructions import DynInst
from repro.workloads.spec92 import spec92_workload

#: ``(benchmark, seed offset, length bound)``.
StreamKey = Tuple[str, int, int]


def stream_limit(instructions: int, warmup: int) -> int:
    """The length bound of a cell's workload stream: generous enough
    that per-reference instrumentation and replay never exhaust it."""
    return 8 * (instructions + warmup) + 100_000


class StreamBatch:
    """The stream-sharing plan of one batch: how many of its jobs are
    still to replay each shared key, and the live tee masters."""

    def __init__(self, remaining: Dict[StreamKey, int]) -> None:
        self._remaining = remaining
        self._masters: Dict[StreamKey, Iterator[DynInst]] = {}
        self._lock = threading.Lock()

    @property
    def memoised(self) -> int:
        """Keys whose generated stream this batch currently holds."""
        return len(self._masters)

    def stream(self, key: StreamKey) -> Optional[Iterator[DynInst]]:
        """An independent replay of *key*'s stream, or None when *key*
        is not shared in this batch."""
        with self._lock:
            if key not in self._remaining:
                return None
            master = self._masters.get(key)
            if master is None:
                benchmark, seed, limit = key
                source = spec92_workload(benchmark, seed_offset=seed)
                master = tee(source.stream(limit), 1)[0]
                self._masters[key] = master
            return copy.copy(master)

    def release(self, key: Optional[StreamKey]) -> None:
        """One job replaying *key* is done; drop the key after its last."""
        with self._lock:
            left = self._remaining.get(key)
            if left is None:
                return
            if left > 1:
                self._remaining[key] = left - 1
            else:
                del self._remaining[key]
                self._masters.pop(key, None)

    def close(self) -> None:
        with self._lock:
            self._remaining.clear()
            self._masters.clear()


_local = threading.local()


def active_batch() -> Optional[StreamBatch]:
    """The calling thread's current batch, or None."""
    return getattr(_local, "batch", None)


@contextlib.contextmanager
def share_streams(keys: Iterable[Optional[StreamKey]]):
    """Share, on this thread, the streams that two or more of *keys*
    name (None entries are jobs without a workload stream).

    Yields the :class:`StreamBatch`, or None when no key repeats.  On
    exit the batch is emptied and the thread's previous one restored.
    """
    counts = Counter(key for key in keys if key is not None)
    shared = {key: count for key, count in counts.items() if count > 1}
    if not shared:
        yield None
        return
    batch = StreamBatch(shared)
    previous = active_batch()
    _local.batch = batch
    try:
        yield batch
    finally:
        _local.batch = previous
        batch.close()


def workload_stream(benchmark: str, seed: int,
                    limit: int) -> Iterator[DynInst]:
    """The dynamic instruction stream of *benchmark* at workload seed
    offset *seed*, *limit* instructions long: a replay of the batch's
    shared stream when this thread is inside a batch that shares it,
    else a fresh generator."""
    batch = active_batch()
    if batch is not None:
        shared = batch.stream((benchmark, seed, limit))
        if shared is not None:
            return shared
    return spec92_workload(benchmark, seed_offset=seed).stream(limit)
