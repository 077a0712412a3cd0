"""In-memory span recorder for the traced benchmark run.

Wraps callables from outside the program: each wrapped call is one
span (name, start, end, parent).  Every thread keeps its own stack of
open spans, so nested calls charge their duration to the caller and a
span's *self time* is its duration minus the part its children cover.
All arithmetic is in integer nanoseconds, so on every thread the self
times of all spans add up exactly to the durations of that thread's
root spans.

Hot leaf functions (a cache access runs hundreds of thousands of times
per grid) are aggregated per name — call count, total and self time —
instead of being stored one record per call; only spans created with
``keep=True`` are stored individually and written out at the end.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

_clock = time.perf_counter_ns


class ThreadTally:
    """One thread's open-span stack, per-name totals and kept spans."""

    __slots__ = ("thread", "stack", "agg", "roots_ns", "spans")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        #: Open spans: [child_ns, kept span index or -1, id of the
        #: nearest kept span at or above this one].
        self.stack: List[list] = []
        #: name -> [calls, total_ns, self_ns]
        self.agg: Dict[str, list] = {}
        self.roots_ns = 0
        self.spans: List[Dict[str, Any]] = []


class Recorder:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tallies: List[ThreadTally] = []
        self._next_id = 0

    # -- per-thread state ------------------------------------------------
    def _tally(self) -> ThreadTally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = ThreadTally(threading.current_thread().name)
            self._local.tally = tally
            with self._lock:
                self._tallies.append(tally)
        return tally

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    # -- span boundaries -------------------------------------------------
    def enter(self, name: str, keep: bool = False) -> tuple:
        """Open a span; returns the token :meth:`exit` needs."""
        tally = self._tally()
        stack = tally.stack
        ancestor = stack[-1][2] if stack else None
        if keep:
            span_id = self._new_id()
            tally.spans.append({"id": span_id, "name": name,
                                "parent": ancestor, "start": 0, "end": 0})
            frame = [0, len(tally.spans) - 1, span_id]
        else:
            frame = [0, -1, ancestor]
        stack.append(frame)
        return tally, frame, name, _clock()

    @staticmethod
    def exit(token: tuple) -> int:
        """Close the span opened by :meth:`enter`; returns its self ns."""
        end = _clock()
        tally, frame, name, start = token
        stack = tally.stack
        stack.pop()
        duration = end - start
        self_ns = duration - frame[0]
        if stack:
            stack[-1][0] += duration
        else:
            tally.roots_ns += duration
        entry = tally.agg.get(name)
        if entry is None:
            tally.agg[name] = [1, duration, self_ns]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_ns
        if frame[1] >= 0:
            record = tally.spans[frame[1]]
            record["start"] = start
            record["end"] = end
            record["self"] = self_ns
        return self_ns

    @contextlib.contextmanager
    def span(self, name: str, keep: bool = True) -> Iterator[None]:
        """Context manager form of :meth:`enter`/:meth:`exit`."""
        token = self.enter(name, keep)
        try:
            yield
        finally:
            self.exit(token)

    def wrap(self, fn: Callable, name: str, keep: bool = False,
             post: Optional[Callable] = None) -> Callable:
        """*fn* timed as span *name*.

        *post*, if given, is called as ``post(args, kwargs, result,
        self_ns)`` after each call, to count work done at the boundary.
        """
        enter = self.enter
        leave = self.exit

        def wrapper(*args, **kwargs):
            token = enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                self_ns = leave(token)
            if post is not None:
                post(args, kwargs, result, self_ns)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- results ---------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, int]]:
        """name -> {"calls", "total_ns", "self_ns"} over all threads."""
        out: Dict[str, Dict[str, int]] = {}
        with self._lock:
            tallies = list(self._tallies)
        for tally in tallies:
            for name, (calls, total, self_ns) in tally.agg.items():
                entry = out.setdefault(
                    name, {"calls": 0, "total_ns": 0, "self_ns": 0})
                entry["calls"] += calls
                entry["total_ns"] += total
                entry["self_ns"] += self_ns
        return out

    def roots_ns(self) -> int:
        """Summed duration of every thread's root spans."""
        with self._lock:
            return sum(tally.roots_ns for tally in self._tallies)

    def spans(self) -> List[Dict[str, Any]]:
        """Every kept span, with its thread name."""
        with self._lock:
            tallies = list(self._tallies)
        return [dict(record, thread=tally.thread)
                for tally in tallies for record in tally.spans
                if record["end"]]

    def write(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        spans = self.spans()
        with open(path, "w") as fh:
            for record in spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return len(spans)


def layer_self_ns(totals: Dict[str, Dict[str, int]]) -> Dict[str, int]:
    """Self time per layer, the layer being the span name's first part."""
    layers: Dict[str, int] = {}
    for name, entry in totals.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0) + entry["self_ns"]
    return layers
