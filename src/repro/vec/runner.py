"""Bar-cell entry point for the vec backend.

`run_bar_vec` is the vec twin of :func:`repro.harness.runner.run_bar`:
same arguments, same :class:`BarResult`, digit-exact statistics.  The
difference is purely mechanical — the workload stream is pulled from
the per-process decode cache (:func:`repro.vec.decode.decoded_stream`)
and replayed by the flat kernels instead of the object interpreters.
"""

from __future__ import annotations

from repro.harness.configs import MACHINES, build_core
from repro.harness.runner import BarConfig, BarResult
from repro.vec.decode import decoded_stream
from repro.vec.inorder import run_inorder_vec
from repro.vec.ooo import run_ooo_vec
from repro.workloads.streams import stream_limit

_VARIANT_BY_INSTRUMENTATION = {None: "plain", "mhar": "mhar", "cc": "cc"}


def run_bar_vec(
    benchmark: str,
    machine_key: str,
    bar: BarConfig,
    instructions: int,
    warmup: int,
    seed: int = 0,
    policy: str = "lru",
) -> BarResult:
    """Run one benchmark/machine/bar cell on the flat replay kernels.

    *policy* must be a dict-order policy (``repro.vec.VEC_POLICIES``):
    the kernels' inline L1-hit path only understands the ``_is_lru``
    refresh rule, so stateful policies are rejected here — the dispatch
    in :func:`repro.harness.runner.run_bar` routes them to interp.
    """
    from repro.memory import derive_seed
    from repro.vec import VEC_POLICIES

    if policy not in VEC_POLICIES:
        raise ValueError(
            f"vec backend cannot express replacement policy {policy!r}; "
            f"supported: {sorted(VEC_POLICIES)}")
    spec = MACHINES[machine_key]
    core = build_core(spec, informing=bar.informing,
                      replacement_policy=policy,
                      replacement_seed=derive_seed(seed))
    # Same stream bound as the interp path — the decode cache keys on it.
    limit = stream_limit(instructions, warmup)
    variant = _VARIANT_BY_INSTRUMENTATION[bar.per_ref_instrumentation]
    view = decoded_stream(benchmark, seed, limit, variant)
    kernel = run_ooo_vec if spec.out_of_order else run_inorder_vec
    stats = kernel(core, view, max_app_insts=instructions + warmup,
                   warmup_insts=warmup)
    breakdown = stats.breakdown()
    return BarResult(
        benchmark=benchmark,
        machine=machine_key,
        label=bar.label,
        cycles=stats.cycles,
        busy=breakdown["busy"],
        cache_stall=breakdown["cache_stall"],
        other_stall=breakdown["other_stall"],
        app_instructions=stats.app_instructions,
        handler_instructions=stats.handler_instructions,
        handler_invocations=stats.handler_invocations,
        l1_miss_rate=core.hierarchy.stats.l1_miss_rate,
    )
