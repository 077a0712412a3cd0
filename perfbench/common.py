"""Shared helpers: isolation, calibration, percentiles, digests."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import statistics
import sys
import tempfile
import time
from typing import Any, List, Optional, Sequence

#: The checkout the benchmark runs in: the parent of this directory.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for caches, journals and manifests; removed after use.
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
#: Where a traced run writes its spans.
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def isolate() -> None:
    """Run the program cold and confined to the checkout.

    Every ``REPRO_*`` variable is scrubbed, so the program runs with its
    defaults (backend, tracing, observers, sanitizer and cache paths all
    off or unset).  ``git`` — which the program calls for its manifests —
    may not search above the checkout.
    """
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    pin_to_one_core()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def pin_to_one_core() -> None:
    """Keep this process, the threads it starts (the gateway's event
    loop and shard) and the processes it spawns on one core.  Requests
    then hand over between threads on that core, rather than by waking
    a second, idle virtual CPU, whose wake-up time on a shared host
    swung ``serve-mix`` by more than the program did."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def fresh_dir(tag: str) -> str:
    """A new empty directory under :data:`TMP_ROOT`."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{tag}-", dir=TMP_ROOT)


def calibrate_ms(repeats: int = 3) -> float:
    """Median wall of a fixed pure-Python loop: the host-speed yardstick.

    Recorded next to the metrics so drift between sittings stays
    visible; no metric is divided by it.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc = (acc + i) % 1_000_003
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


class Yardstick:
    """The host-speed yardstick.

    A sample is the time of a fixed pure-Python walk of a 4-way LRU
    cache over a pseudo-random address stream: list, dict and integer
    work, like the simulators'.  It is the benchmark's own code, so a
    change to the program cannot change what it runs.  Samples are
    taken in the benchmark's thread between pieces of work, so they see
    the host as the work does (the same core, at about the same time),
    and with the garbage collector off, so the program's heap cannot
    slow them.
    """

    def sample(self, count: int = 1) -> List[float]:
        """*count* samples, in ms."""
        gc.disable()
        try:
            return [_yardstick_walk() for _ in range(count)]
        finally:
            gc.enable()


def _yardstick_walk() -> float:
    start = time.perf_counter()
    sets = [[] for _ in range(64)]
    counts: dict = {}
    address = 12345
    for _ in range(9000):
        address = (address * 1103515245 + 12345) & 0x7FFFFFFF
        line = (address >> 6) & 0x3FF
        ways = sets[line & 63]
        if line in ways:
            ways.remove(line)
        elif len(ways) == 4:
            ways.pop(0)
        ways.append(line)
        counts[line] = counts.get(line, 0) + 1
    return (time.perf_counter() - start) * 1000.0


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, *q* in (0, 1]."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def digest(obj: Any) -> str:
    """sha256 of the canonical JSON of simulated statistics."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def git_sha() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head or None
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip() or None
        with open(os.path.join(git_dir, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None
