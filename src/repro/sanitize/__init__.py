"""repro.sanitize — runtime invariant sanitizer + chaos harness.

A "simulator sanitizer": an invariant catalog (:data:`INVARIANTS`)
checked live against the cache tag stores, the MSHR file, both pipeline
models, and the paper's informing-mechanism semantics, plus a seeded
fault injector (:class:`ChaosInjector`) that proves the checks catch
real corruption.  Off by default; enable with ``--sanitize`` on the
harness CLI (``ExecOptions.sanitize``, which the
:class:`repro.context.RunContext` carries to every job).  Disabled cost
is one ``if self._san is not None`` per hook point; enabled runs stay
bit-exact with golden results because every check is read-only.
"""

from __future__ import annotations

from typing import Optional

from repro.context import current_context
from repro.sanitize.chaos import CAUGHT_BY, FAULT_CLASSES, ChaosInjector
from repro.sanitize.invariants import DEFAULT_EVERY, INVARIANTS, Sanitizer
from repro.sanitize.violation import InvariantViolation

__all__ = [
    "CAUGHT_BY",
    "ChaosInjector",
    "DEFAULT_EVERY",
    "FAULT_CLASSES",
    "INVARIANTS",
    "InvariantViolation",
    "Sanitizer",
    "maybe_sanitizer",
]


def maybe_sanitizer(explicit: Optional[bool] = None,
                    every: int = DEFAULT_EVERY) -> Optional[Sanitizer]:
    """A fresh :class:`Sanitizer`, or None when checking is off.

    *explicit* overrides the current run context in both directions;
    None defers to it (``RunContext.sanitize``).
    """
    enabled = current_context().sanitize if explicit is None else explicit
    return Sanitizer(every=every) if enabled else None
