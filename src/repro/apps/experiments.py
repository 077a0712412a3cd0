"""The informing-op application lab: named, cacheable experiments.

The paper's §4.1 clients (:mod:`repro.apps.monitoring`,
:mod:`repro.apps.prefetching`, :mod:`repro.apps.bypass`) are library
classes; this module promotes three of them into *experiments* — named
entries in :data:`APP_EXPERIMENTS` that run a benchmark with the client
attached, compare against an uninstrumented baseline, and return one
plain JSON-able dict.  That dict shape is what makes them schedulable:
``SimJob.app`` wraps an experiment invocation as an exec-engine job
(content-addressed, cacheable, resumable), and ``python -m repro.harness
apps`` is the CLI front end.

Experiments:

* ``miss_profile`` — the [HMMS95] per-static-reference miss profiler
  (:class:`~repro.apps.monitoring.MissProfiler`): which loads miss, how
  often, and what the ~10-instruction hash-table handler costs.
* ``prefetch_schedule`` — software prefetch scheduling from the miss
  handler (:class:`~repro.apps.prefetching.AdaptivePrefetcher`): stride
  prediction per static reference, prefetches launched only on misses.
* ``bypass`` — adaptive cache bypass
  (:class:`~repro.apps.bypass.AdaptiveBypassController`): the handler
  classifies streaming references and routes their fills around the L1.

Every experiment takes the same signature
``(benchmark, machine, instructions, warmup, seed, policy)`` and is
deterministic, so results cache under the same content-address rules as
figure bars.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

#: Default run sizes mirror the figure bars (see repro.harness.runner).
DEFAULT_MACHINE = "lab"


def run_cell(
    benchmark: str,
    machine: str,
    informing,
    instructions: int,
    warmup: int,
    seed: int = 0,
    policy: str = "lru",
    stream_wrap: Optional[Callable] = None,
    bypass_filter: Optional[Callable[[int], bool]] = None,
) -> Tuple[Any, Any]:
    """Run one (benchmark, machine) cell and return ``(core, stats)``.

    The shared single-cell runner behind every app experiment: same
    stream bound, warm-up discipline and seed derivation as
    :func:`repro.harness.runner.run_bar`, plus two attachment points the
    clients need — *stream_wrap* (e.g. a profiler's counting pass) and
    *bypass_filter* (installed as ``hierarchy.bypass_filter``).
    """
    from repro.harness.configs import MACHINES, build_core
    from repro.memory import derive_seed
    from repro.workloads.streams import stream_limit, workload_stream

    spec = MACHINES[machine]
    core = build_core(spec, informing=informing,
                      replacement_policy=policy,
                      replacement_seed=derive_seed(seed))
    if bypass_filter is not None:
        core.hierarchy.bypass_filter = bypass_filter
    stream = workload_stream(benchmark, seed,
                             stream_limit(instructions, warmup))
    if stream_wrap is not None:
        stream = stream_wrap(stream)
    stats = core.run(stream, max_app_insts=instructions + warmup,
                     warmup_insts=warmup)
    return core, stats


def run_prefetch_schedule(
    benchmark: str,
    machine: str,
    instructions: int,
    warmup: int,
    seed: int = 0,
    policy: str = "lru",
    degree: int = 2,
) -> Dict[str, Any]:
    """Software prefetch scheduling from the miss handler (§4.1.2).

    The handler predicts a stride per static reference from its recent
    miss addresses and launches *degree* non-binding prefetches ahead of
    the stream — overhead is only paid where the code actually misses.
    """
    from repro.apps.prefetching import AdaptivePrefetcher
    from repro.harness.configs import MACHINES

    base_core, base = run_cell(benchmark, machine, None, instructions,
                               warmup, seed=seed, policy=policy)
    line_size = MACHINES[machine].hierarchy.l1.line_size
    prefetcher = AdaptivePrefetcher(degree=degree, line_size=line_size)
    core, stats = run_cell(benchmark, machine,
                           prefetcher.informing_config(), instructions,
                           warmup, seed=seed, policy=policy)
    return {
        "experiment": "prefetch_schedule",
        "benchmark": benchmark,
        "machine": machine,
        "policy": policy,
        "baseline_cycles": base.cycles,
        "cycles": stats.cycles,
        "speedup": round(base.cycles / stats.cycles, 4) if stats.cycles
        else 0.0,
        "prefetches_launched": prefetcher.launched,
        "handler_invocations": stats.handler_invocations,
        "handler_instructions": stats.handler_instructions,
        "miss_rate_baseline": base_core.hierarchy.stats.l1_miss_rate,
        "miss_rate": core.hierarchy.stats.l1_miss_rate,
    }


def _miss_profile(benchmark, machine, instructions, warmup,
                  seed=0, policy="lru"):
    from repro.apps.miss_profile import run_miss_profile
    return run_miss_profile(benchmark, machine, instructions, warmup,
                            seed=seed, policy=policy)


def _bypass(benchmark, machine, instructions, warmup, seed=0, policy="lru"):
    from repro.apps.bypass import run_adaptive_bypass
    return run_adaptive_bypass(benchmark, machine, instructions, warmup,
                               seed=seed, policy=policy)


#: name -> experiment function, all sharing the run_cell signature.
APP_EXPERIMENTS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "miss_profile": _miss_profile,
    "prefetch_schedule": run_prefetch_schedule,
    "bypass": _bypass,
}


def run_app_experiment(
    name: str,
    benchmark: str,
    machine: str = DEFAULT_MACHINE,
    instructions: int = 30_000,
    warmup: int = 15_000,
    seed: int = 0,
    policy: str = "lru",
) -> Dict[str, Any]:
    """Run one registered app experiment and return its result dict.

    Raises:
        ValueError: for an unregistered experiment name.
    """
    try:
        experiment = APP_EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown app experiment {name!r}; choose from "
            f"{sorted(APP_EXPERIMENTS)}") from None
    return experiment(benchmark, machine, instructions, warmup,
                      seed=seed, policy=policy)
