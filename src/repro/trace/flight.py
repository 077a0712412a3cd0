"""Always-on flight recorder: a bounded ring of recent engine events.

Unlike spans (sampled, off by default), the flight recorder is always
cheap — appending a small dict to a ``deque(maxlen=...)`` — and only
materializes to disk when something goes wrong: a sanitizer invariant
fires, a pool worker dies, a journal append fails, or SIGTERM drain
begins.  The dump is a small JSON artifact next to the run's other
artifacts so every chaos fault class leaves a trace you can read.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from threading import Lock
from typing import Any, Deque, Dict, List, Optional

FLIGHT_CAPACITY = 256

__all__ = ["FlightRecorder", "flight", "FLIGHT_CAPACITY"]


class FlightRecorder:
    """Bounded in-memory ring buffer of recent events."""

    def __init__(self, capacity: int = FLIGHT_CAPACITY) -> None:
        self.capacity = capacity
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._lock = Lock()
        self.records = 0
        self.dropped = 0
        self.dumps = 0
        self.dump_errors = 0

    def note(self, kind: str, **fields: Any) -> None:
        """Record one event.  Never raises; O(1)."""
        record = {"t": time.time(), "kind": kind}
        if fields:
            record.update(fields)
        with self._lock:
            if len(self._ring) == self.capacity:
                self.dropped += 1
            self._ring.append(record)
            self.records += 1

    def tail(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        with self._lock:
            items = list(self._ring)
        if n is not None:
            items = items[-n:]
        return items

    def stats(self) -> Dict[str, int]:
        with self._lock:
            depth = len(self._ring)
        return {
            "capacity": self.capacity,
            "depth": depth,
            "records": self.records,
            "dropped": self.dropped,
            "dumps": self.dumps,
            "dump_errors": self.dump_errors,
        }

    def dump(self, reason: str, directory: str) -> Optional[str]:
        """Write the ring's tail to ``<directory>/flight_<reason>_<pid>.json``.

        Returns the artifact path, or None on failure (never raises —
        this runs on crash paths).
        """
        safe = "".join(c if (c.isalnum() or c in "-_") else "_" for c in reason) or "unknown"
        path = os.path.join(directory, f"flight_{safe}_{os.getpid()}.json")
        payload = {
            "kind": "flight_dump",
            "reason": reason,
            "pid": os.getpid(),
            "dumped_at": time.time(),
            "stats": self.stats(),
            "events": self.tail(),
        }
        try:
            os.makedirs(directory, exist_ok=True)
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
            os.replace(tmp, path)
            self.dumps += 1
            return path
        except OSError:
            self.dump_errors += 1
            return None


_FLIGHT: Optional[FlightRecorder] = None


def flight() -> FlightRecorder:
    """The process-wide flight recorder (created on first use)."""
    global _FLIGHT
    if _FLIGHT is None:
        _FLIGHT = FlightRecorder()
    return _FLIGHT
