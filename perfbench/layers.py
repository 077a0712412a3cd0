"""Per-layer instrumentation of the program, installed from outside it.

:class:`LayerProbe` replaces public functions and methods of the
program's modules with :class:`recorder.Recorder` wrappers for the
length of a traced run, then puts the originals back.  Nothing under
``src/`` knows about it.  Span names are ``<layer>.<what>``; the layer
is the program's module name:

========== ==========================================================
workloads  ``SyntheticWorkload`` construction (``spec92_workload``)
vec        ``decoded_stream``, ``StreamView.ensure``, ``decode_chunk``,
           ``run_inorder_vec`` / ``run_ooo_vec``
inorder    ``InOrderCore.run``
ooo        ``OutOfOrderCore.run``
memory     ``MemoryHierarchy.access`` / ``ifetch`` and the stateful
           replacement policies' ``evict`` / ``on_hit`` / ``on_fill``
core       ``build_core``, ``InformingEngine.on_miss``
apps       ``run_app_experiment``, ``CallbackHandler.instructions``
harness    ``run_bar``, ``figure2``, ``run_ablation``
exec       ``JobRunner.run``, ``execute_job``, ``ResultCache.get/put``
durable    ``RunJournal.append``
perf       ``write_run_manifest``
========== ==========================================================

Workload streams are generators consumed inside the core loops, so
their generation time is part of the cores' self time; it is measured
on its own by :func:`generation_ns_per_inst`.  ``Gateway.submit`` is a
coroutine that interleaves with others on the event loop, so it is
timed end to end (``serve.gateway_*``) rather than placed on a stack.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from recorder import Recorder, layer_self_ns

#: Layers whose self time is reported as ``<layer>.self_s``; ``bench``
#: is the benchmark's own code plus program code outside every span.
SELF_LAYERS = ("bench", "harness", "exec", "core", "apps", "workloads",
               "vec", "inorder", "ooo", "memory", "durable", "perf")

_ENGINE_SPANS = ("exec.run", "exec.execute_job", "exec.cache_get",
                 "exec.cache_put", "durable.append", "perf.manifest_write",
                 "harness.run_bar", "core.build", "workloads.build",
                 "workloads.stream", "memory.access", "memory.ifetch")
#: Spans that must fire at least once in a workload's traced rounds; a
#: probe that stopped firing (a renamed or bypassed function) fails the
#: run instead of silently reading 0.
REQUIRED_SPANS = {
    "fig2-grid": _ENGINE_SPANS + ("harness.figure2", "inorder.run",
                                  "ooo.run"),
    "lab-mix": _ENGINE_SPANS + ("harness.ablation", "memory.replacement",
                                "apps.experiment", "apps.callback",
                                "core.on_miss"),
    "serve-mix": _ENGINE_SPANS + ("ooo.run",),
}
#: Spans the fig2-grid check's direct vec re-run must fire.
VEC_SPANS = ("vec.decoded_stream", "vec.decode_build", "vec.inorder",
             "vec.ooo")


class LayerProbe:
    """Installs the wrappers and turns the recorder's totals into
    per-layer metrics."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._patches: List[Tuple[Any, str, Any]] = []
        self._lock = threading.Lock()
        self.streams_built = 0
        self.decodes_built = 0
        self.l1_hits = 0
        self.cache_hits = 0
        self.sim_insts: Dict[str, int] = {}
        self.gateway_ms: Dict[str, List[float]] = {"hit": [], "miss": []}
        from repro.exec.job import execute_job
        #: Pass as ``execute=`` to a JobRunner or Gateway.
        self.execute = recorder.wrap(execute_job, "exec.execute_job",
                                     keep=True)

    # -- patching ------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner: Any, attr: str, name: str, keep: bool = False,
              post: Optional[Callable] = None) -> None:
        original = owner.__dict__[attr]
        self._patch(owner, attr,
                    self.recorder.wrap(original, name, keep, post))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        import repro.harness.configs as configs
        import repro.harness.replacement as replacement
        import repro.harness.runner as runner
        import repro.perf.manifest as manifest
        import repro.vec.decode as decode
        import repro.vec.runner as vec_runner
        import repro.workloads.synthetic as synthetic
        from repro.apps import experiments
        from repro.core.engine import InformingEngine
        from repro.core.handlers import CallbackHandler
        from repro.durable.journal import RunJournal
        from repro.exec.cache import ResultCache
        from repro.exec.engine import JobRunner
        from repro.inorder.core import InOrderCore
        from repro.memory import available_policies, get_policy_class
        from repro.memory.hierarchy import MemoryHierarchy
        from repro.ooo.core import OutOfOrderCore
        from repro.serve.gateway import Gateway

        lock = self._lock

        def count_stream(args, kwargs, result, self_ns):
            with lock:
                self.streams_built += 1

        def count_decode(args, kwargs, result, self_ns):
            with lock:
                self.decodes_built += 1

        def count_l1_hit(args, kwargs, result, self_ns):
            if result is not None and not result.l1_miss:
                with lock:  # serve shards simulate on two threads
                    self.l1_hits += 1

        def count_cache_hit(args, kwargs, result, self_ns):
            if result is not None:
                with lock:
                    self.cache_hits += 1

        def count_insts(kind):
            def post(args, kwargs, result, self_ns):
                warmup = kwargs.get("warmup_insts", 0)
                with lock:
                    self.sim_insts[kind] = (
                        self.sim_insts.get(kind, 0) + warmup
                        + result.app_instructions
                        + result.handler_instructions)
            return post

        self._wrap(synthetic.SyntheticWorkload, "__init__",
                   "workloads.build")
        self._wrap(synthetic.SyntheticWorkload, "stream",
                   "workloads.stream", post=count_stream)

        build_core = self.recorder.wrap(configs.__dict__["build_core"],
                                        "core.build")
        for module in (configs, runner, vec_runner):
            self._patch(module, "build_core", build_core)
        self._wrap(InformingEngine, "on_miss", "core.on_miss")
        self._wrap(CallbackHandler, "instructions", "apps.callback")
        self._wrap(experiments, "run_app_experiment", "apps.experiment")
        self._wrap(runner, "run_bar", "harness.run_bar")
        self._wrap(runner, "figure2", "harness.figure2")
        self._wrap(replacement, "run_ablation", "harness.ablation")

        self._wrap(InOrderCore, "run", "inorder.run",
                   post=count_insts("inorder"))
        self._wrap(OutOfOrderCore, "run", "ooo.run",
                   post=count_insts("ooo"))
        self._wrap(vec_runner, "run_inorder_vec", "vec.inorder",
                   post=count_insts("vec.inorder"))
        self._wrap(vec_runner, "run_ooo_vec", "vec.ooo",
                   post=count_insts("vec.ooo"))
        self._wrap(vec_runner, "decoded_stream", "vec.decoded_stream")
        self._wrap(decode.DecodedWorkload, "__init__", "vec.decode_build",
                   post=count_decode)
        self._wrap(decode.StreamView, "ensure", "vec.decode")
        self._wrap(decode, "decode_chunk", "vec.decode_chunk")

        self._wrap(MemoryHierarchy, "access", "memory.access",
                   post=count_l1_hit)
        self._wrap(MemoryHierarchy, "ifetch", "memory.ifetch")
        for policy in available_policies():
            cls = get_policy_class(policy)
            if cls.dict_order:
                continue  # inlined in the cache: no calls to time
            for method in ("evict", "on_hit", "on_fill"):
                if method in cls.__dict__:
                    self._wrap(cls, method, "memory.replacement")

        self._wrap(JobRunner, "run", "exec.run", keep=True)
        self._wrap(ResultCache, "get", "exec.cache_get",
                   post=count_cache_hit)
        self._wrap(ResultCache, "put", "exec.cache_put")
        self._wrap(RunJournal, "append", "durable.append")
        self._wrap(manifest, "write_run_manifest", "perf.manifest_write")

        submit = Gateway.__dict__["submit"]
        gateway_ms = self.gateway_ms

        async def timed_submit(gateway, *args, **kwargs):
            start = time.perf_counter()
            outcome = await submit(gateway, *args, **kwargs)
            cache = (outcome.get("meta") or {}).get("cache")
            gateway_ms.setdefault(cache, []).append(
                (time.perf_counter() - start) * 1000.0)
            return outcome

        self._patch(Gateway, "submit", timed_submit)

    # -- metrics -------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics from everything recorded so far."""
        totals = self.recorder.totals()

        def calls(name):
            return totals.get(name, {}).get("calls", 0)

        def total_ns(name):
            return totals.get(name, {}).get("total_ns", 0)

        def self_ns(name):
            return totals.get(name, {}).get("self_ns", 0)

        def per(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        insts = self.sim_insts
        decode_calls = calls("vec.decoded_stream")
        cache_calls = calls("exec.cache_get")
        out = {
            "workloads.streams_built": self.streams_built,
            "vec.decode_s": sum(self_ns(name) for name in (
                "vec.decoded_stream", "vec.decode_build", "vec.decode",
                "vec.decode_chunk")) / 1e9,
            "vec.decode_calls": decode_calls,
            "vec.decode_hit_ratio": per(decode_calls - self.decodes_built,
                                        decode_calls),
            "vec.inorder.ns_per_inst": per(self_ns("vec.inorder"),
                                           insts.get("vec.inorder", 0)),
            "vec.ooo.ns_per_inst": per(self_ns("vec.ooo"),
                                       insts.get("vec.ooo", 0)),
            "inorder.ns_per_inst": per(self_ns("inorder.run"),
                                       insts.get("inorder", 0)),
            "ooo.ns_per_inst": per(self_ns("ooo.run"), insts.get("ooo", 0)),
            "memory.access_calls": calls("memory.access"),
            "memory.access_ns": per(total_ns("memory.access"),
                                    calls("memory.access")),
            "memory.ifetch_calls": calls("memory.ifetch"),
            "memory.ifetch_ns": per(total_ns("memory.ifetch"),
                                    calls("memory.ifetch")),
            "memory.l1_hit_ratio": per(self.l1_hits, calls("memory.access")),
            "memory.replacement_calls": calls("memory.replacement"),
            "apps.callback_s": total_ns("apps.callback") / 1e9,
            "exec.overhead_s": (total_ns("exec.run")
                                - total_ns("exec.execute_job")) / 1e9,
            "exec.cache_get_ms": per(total_ns("exec.cache_get"),
                                     cache_calls) / 1e6,
            "exec.cache_put_ms": per(total_ns("exec.cache_put"),
                                     calls("exec.cache_put")) / 1e6,
            "exec.cache_hit_ratio": per(self.cache_hits, cache_calls),
            "durable.journal_appends": calls("durable.append"),
            "durable.append_ms": per(total_ns("durable.append"),
                                     calls("durable.append")) / 1e6,
            "perf.manifest_write_ms": per(total_ns("perf.manifest_write"),
                                          calls("perf.manifest_write")) / 1e6,
        }
        layers = layer_self_ns(totals)
        unknown = set(layers) - set(SELF_LAYERS)
        if unknown:
            raise ValueError(f"spans outside the known layers: {unknown}")
        for layer in SELF_LAYERS:
            out[f"{layer}.self_s"] = layers.get(layer, 0) / 1e9
        return out

    def missing(self, names) -> List[str]:
        """The span names among *names* that were never entered."""
        totals = self.recorder.totals()
        return [name for name in names
                if not totals.get(name, {}).get("calls")]


def generation_ns_per_inst(benchmarks, seed: int, length: int) -> float:
    """Host ns per instruction to materialise each benchmark's stream on
    its own, outside any core."""
    from repro.workloads import spec92_workload

    elapsed = 0
    produced = 0
    for benchmark in benchmarks:
        start = time.perf_counter_ns()
        count = sum(1 for _ in spec92_workload(
            benchmark, seed_offset=seed).stream(length))
        elapsed += time.perf_counter_ns() - start
        produced += count
    return elapsed / produced
