"""The two grid workloads: ``fig2-grid`` and ``lab-mix``.

Both run cells serially (``jobs=1``) through a ``JobRunner`` wired the
way the harness CLI wires one: result cache, run journal and run
manifest, all under a fresh directory.  A *round* is one cold grid: a
new directory and an empty vec decode cache each time.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional

from common import ROOT, fresh_dir

#: Figure 2 at ``--quick`` sizes (a quarter of the harness defaults).
QUICK_INSTRUCTIONS = 7500
QUICK_WARMUP = 3750

LAB_MACHINE = "lab"
LAB_BENCHMARKS = ("compress", "espresso", "su2cor", "ora")
LAB_POLICIES = ("lru", "fifo", "random", "plru", "rrip", "brrip")
LAB_APPS = ("miss_profile", "prefetch_schedule", "bypass")


class CellClock:
    """JobRunner telemetry sink timing each executed cell from
    ``started`` to ``finished``: the simulation plus the cache store.
    ``cell_ms`` maps each cell's job key to its time, in run order.
    While ``yardstick`` is set (a :class:`common.Yardstick`), one
    host-speed sample is taken before each cell starts (outside the
    cell's time) into ``yard_ms``."""

    def __init__(self) -> None:
        self.yardstick = None
        self.yard_ms: List[float] = []
        self._started: Dict[str, float] = {}
        self.cell_ms: Dict[str, float] = {}
        self.backends: Dict[str, int] = {}
        self.failed = 0

    def emit(self, event) -> None:
        from repro.exec.telemetry import FAILED, FINISHED, STARTED

        kind = event.event
        if kind == STARTED and self.yardstick is not None:
            self.yard_ms.extend(self.yardstick.sample())
        now = time.perf_counter()
        if kind == STARTED:
            self._started[event.key] = now
        elif kind == FINISHED and event.key in self._started:
            self.cell_ms[event.key] = (
                (now - self._started.pop(event.key)) * 1000.0)
            backend = event.backend or "none"
            self.backends[backend] = self.backends.get(backend, 0) + 1
        elif kind == FAILED:
            self.failed += 1


class Round:
    """One timed grid."""

    def __init__(self, wall: float, rows: List[Dict[str, Any]],
                 clock: CellClock, sim_insts: int) -> None:
        self.wall = wall
        self.rows = rows
        self.clock = clock
        self.sim_insts = sim_insts
        self.yard_ms = clock.yard_ms

    @property
    def miss_ms(self) -> List[float]:
        """Times of the cells the round executed."""
        return list(self.clock.cell_ms.values())


class GridWorkload:
    """Common round and check machinery of the grid workloads."""

    name = ""

    def __init__(self, seed: int, instructions: int = QUICK_INSTRUCTIONS,
                 warmup: int = QUICK_WARMUP,
                 benchmarks: Optional[List[str]] = None) -> None:
        self.seed = seed
        self.instructions = instructions
        self.warmup = warmup
        self.benchmarks = list(benchmarks or self.default_benchmarks())
        self._dirs: List[str] = []
        self.engine = None
        self.clock: Optional[CellClock] = None
        self.mismatches: List[str] = []

    # -- lifecycle -----------------------------------------------------------
    def setup(self) -> None:
        """Imports the program's run path and builds the first engine."""
        import repro.apps.experiments  # noqa: F401
        import repro.durable.journal  # noqa: F401
        import repro.exec  # noqa: F401
        import repro.harness.replacement  # noqa: F401
        import repro.harness.runner  # noqa: F401
        import repro.perf.manifest  # noqa: F401

        self.new_engine()

    def new_engine(self, execute=None) -> None:
        """A JobRunner over a fresh directory, with cold caches."""
        from repro.exec import ExecOptions, JobRunner
        from repro.exec.job import execute_job
        from repro.vec.decode import clear_decode_cache

        directory = fresh_dir(self.name)
        self._dirs.append(directory)
        self.clock = CellClock()
        self.engine = JobRunner(
            ExecOptions(jobs=1, cache=True,
                        cache_dir=os.path.join(directory, "cache"),
                        manifest_dir=os.path.join(directory, "runs"),
                        run_meta={"experiment": self.name,
                                  "argv": None, "seed": self.seed}),
            execute=execute or execute_job, sinks=[self.clock])
        clear_decode_cache()

    def close(self) -> None:
        import shutil

        for directory in self._dirs:
            shutil.rmtree(directory, ignore_errors=True)
        self._dirs.clear()

    # -- measurement ---------------------------------------------------------
    def run_round(self, recorder=None, execute=None,
                  yardstick=None) -> Round:
        """Time one cold grid.  Each round gets its own engine, built
        before the clock starts; *recorder* puts the grid under a root
        span and *execute* replaces the engine's job body.  With a
        *yardstick*, a host-speed sample precedes each cell; the
        samples' time is taken out of the round's wall."""
        if self.engine is None:
            self.new_engine(execute)
        engine, clock = self.engine, self.clock
        clock.yardstick = yardstick
        self.engine = None
        start = time.perf_counter()
        if recorder is None:
            rows = self.run_grid(engine)
        else:
            with recorder.span("bench.round"):
                rows = self.run_grid(engine)
        wall = time.perf_counter() - start - sum(clock.yard_ms) / 1000.0
        return Round(wall, rows, clock,
                     sum(self.sim_instructions(row) for row in rows))

    # -- subclass hooks ------------------------------------------------------
    def default_benchmarks(self) -> List[str]:
        raise NotImplementedError

    def run_grid(self, engine) -> List[Dict[str, Any]]:
        """Run the grid on *engine*; one result row per cell."""
        raise NotImplementedError

    def check(self, round_: Round) -> List[str]:
        """Correctness of one round's rows; mismatch descriptions."""
        raise NotImplementedError

    def sim_instructions(self, row: Dict[str, Any]) -> int:
        """Simulated instructions of one cell: warm-up + measured
        application + handler instructions."""
        return (self.warmup + row["app_instructions"]
                + row["handler_instructions"])


class Figure2Grid(GridWorkload):
    """13 benchmarks x {ooo, inorder} x {N, S1, U1, S10, U10}."""

    name = "fig2-grid"
    GOLDEN = os.path.join(ROOT, "results", "golden", "figure2_quick.json")

    def default_benchmarks(self) -> List[str]:
        from repro.workloads import FIGURE2_BENCHMARKS
        return list(FIGURE2_BENCHMARKS)

    def run_grid(self, engine) -> List[Dict[str, Any]]:
        from repro.harness import runner

        result = runner.figure2(instructions=self.instructions,
                                warmup=self.warmup,
                                benchmarks=self.benchmarks,
                                seed=self.seed, engine=engine)
        return [asdict(bar) for bar in result.bars]

    def check(self, round_: Round) -> List[str]:
        rows = round_.rows
        problems = []
        for row in rows:
            if row["label"] == "N" and row["normalized"] != 1.0:
                problems.append(f"fig2-grid: N bar of {row['benchmark']}/"
                                f"{row['machine']} not normalized to 1")
        if (self.seed == 0 and self.instructions == QUICK_INSTRUCTIONS
                and self.warmup == QUICK_WARMUP):
            with open(self.GOLDEN) as fh:
                golden = {(bar["benchmark"], bar["machine"], bar["label"]):
                          bar for bar in json.load(fh)["bars"]}
            for row in rows:
                cell = (row["benchmark"], row["machine"], row["label"])
                if golden.get(cell) != row:
                    problems.append(f"fig2-grid: {'/'.join(cell)} differs "
                                    f"from the golden capture")
            if len(rows) != len(golden):
                problems.append(f"fig2-grid: {len(rows)} cells, golden "
                                f"capture has {len(golden)}")
        problems.extend(self._check_against_vec(rows))
        return problems

    def _check_against_vec(self, rows) -> List[str]:
        """Every cell of one seeded benchmark re-run directly on the vec
        backend, which is digit-exact with interp by design.  Its ten
        cells share one decoded stream, so the traced run reads the vec
        layer's metrics off this re-run."""
        from repro.harness.runner import bar_config, run_bar

        benchmark = random.Random(self.seed).choice(self.benchmarks)
        problems = []
        for row in rows:
            if row["benchmark"] != benchmark:
                continue
            direct = asdict(run_bar(benchmark, row["machine"],
                                    bar_config(row["label"]),
                                    self.instructions, self.warmup,
                                    seed=self.seed, backend="vec"))
            expected = dict(row, normalized=0.0)
            if direct != expected:
                problems.append(
                    f"fig2-grid: {benchmark}/{row['machine']}/"
                    f"{row['label']} differs from a direct vec run")
        return problems


class LabMix(GridWorkload):
    """Replacement-policy ablation cells plus informing-op app cells, on
    the ``lab`` machine: the cells the vec backend does not take."""

    name = "lab-mix"
    ABLATION = os.path.join(ROOT, "results", "replacement_ablation.json")

    def default_benchmarks(self) -> List[str]:
        return list(LAB_BENCHMARKS)

    def run_grid(self, engine) -> List[Dict[str, Any]]:
        from repro.exec import SimJob
        from repro.harness.replacement import run_ablation

        payload = run_ablation(self.benchmarks, list(LAB_POLICIES),
                               LAB_MACHINE, self.instructions, self.warmup,
                               seed=self.seed, engine=engine)
        rows: List[Dict[str, Any]] = []
        for benchmark in self.benchmarks:
            for policy in LAB_POLICIES:
                cell = payload["cells"][benchmark][policy]
                rows.append({"benchmark": benchmark, "policy": policy,
                             "cycles": cell["cycles"],
                             "l1_miss_rate": cell["l1_miss_rate"],
                             "delta_vs_lru": cell["delta_vs_lru"]})
        jobs = [SimJob.app(experiment, benchmark, LAB_MACHINE,
                           self.instructions, self.warmup, seed=self.seed)
                for experiment in LAB_APPS for benchmark in self.benchmarks]
        rows.extend(engine.run(jobs))
        return rows

    def sim_instructions(self, row: Dict[str, Any]) -> int:
        """Ablation cells are N bars of the configured length; an app
        cell runs a baseline and an instrumented cell and returns the
        instrumented one's handler count."""
        if "experiment" not in row:
            return self.warmup + self.instructions
        return (2 * (self.warmup + self.instructions)
                + row["handler_instructions"])

    def check(self, round_: Round) -> List[str]:
        rows = round_.rows
        problems = []
        bars = [row for row in rows if "policy" in row
                and "experiment" not in row]
        if (self.seed == 0 and self.instructions == QUICK_INSTRUCTIONS
                and self.warmup == QUICK_WARMUP):
            with open(self.ABLATION) as fh:
                committed = json.load(fh)["cells"]
            for row in bars:
                cell = committed.get(row["benchmark"], {}).get(row["policy"])
                if cell is None or (cell["cycles"], cell["l1_miss_rate"]) != (
                        row["cycles"], row["l1_miss_rate"]):
                    problems.append(
                        f"lab-mix: {row['benchmark']}/{row['policy']} "
                        f"differs from results/replacement_ablation.json")
        problems.extend(self._check_direct(rows, bars))
        return problems

    def _check_direct(self, rows, bars) -> List[str]:
        """One seeded bar cell and one app cell re-run without the
        engine must equal what the engine returned."""
        from repro.apps.experiments import run_app_experiment
        from repro.harness.runner import bar_config, run_bar

        problems = []
        rng = random.Random(self.seed)
        bar = rng.choice(bars)
        direct = run_bar(bar["benchmark"], LAB_MACHINE, bar_config("N"),
                         self.instructions, self.warmup, seed=self.seed,
                         policy=bar["policy"])
        if (direct.cycles, direct.l1_miss_rate) != (bar["cycles"],
                                                    bar["l1_miss_rate"]):
            problems.append(f"lab-mix: {bar['benchmark']}/{bar['policy']} "
                            f"differs from a direct run")
        app = rng.choice([row for row in rows if "experiment" in row])
        direct_app = run_app_experiment(
            app["experiment"], app["benchmark"], LAB_MACHINE,
            self.instructions, self.warmup, seed=self.seed)
        if direct_app != app:
            problems.append(f"lab-mix: {app['experiment']}/"
                            f"{app['benchmark']} differs from a direct run")
        return problems
