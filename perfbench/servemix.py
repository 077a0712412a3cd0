"""The ``serve-mix`` workload: a closed loop against an in-process
``repro.serve`` gateway.

Set-up boots ``App`` + ``Gateway`` on an ephemeral localhost port, with
a result cache, a journal and run manifests in a fresh directory, and
warms a catalog of small cells.  A *round* is a fixed list of
:data:`ROUND_REQUESTS` draws sent by one keep-alive ``ServeClient``,
each request only when the previous one has returned.  Draws follow a
zipf popularity over the catalog (cache hits, i.e. reads); a fixed
:data:`ROUND_MISSES` of them are cells never seen before (fresh seeds),
which simulate and write the cache, the journal and a manifest.

The catalog, the cell sizes and the zipf weights are those of
``benchmarks/bench_serve.py`` (``build_catalog(24)``, ``zipf_picks``),
copied rather than imported so that this workload stays fixed when that
script changes; when it is retired, this copy is the one to keep.
"""

from __future__ import annotations

import asyncio
import os
import random
import threading
import time
from typing import Any, Dict, List, Optional

from common import fresh_dir

#: ``bench_serve.py``'s cell size and 24-cell catalog.
CELL_INSTRUCTIONS = 1500
CELL_WARMUP = 300
CATALOG_BENCHMARKS = ("compress", "espresso", "ora", "su2cor")
CATALOG_LABELS = ("N", "S10", "U8")
CATALOG_SEEDS = (0, 1)
ROUND_REQUESTS = 200
#: Misses per round, set so that misses take about half the client's
#: time (measured on a 2-core host with one client: 5 of 200 -> 0.47,
#: with hits at a p50 of ~1.3 ms and misses at ~70 ms; pinned to one
#: core, hits ~0.85 ms and misses ~60 ms, 0.64), so a change to either
#: path moves ``req_per_s`` by a large share of its own size.  The
#: misses cycle through the twelve catalog shapes from round to round.
ROUND_MISSES = 5
ZIPF_EXPONENT = 1.1
#: Miss seeds start here, above every catalog seed, and stay inside
#: the range a served spec accepts.
MISS_SEED_BASE = 1000
#: Rounds each side of a traced run does, fixed so its counts repeat.
TRACE_ROUNDS = 4
#: A host-speed yardstick sample precedes every this many requests of a
#: measured round.
YARD_EVERY = 20
#: Served results re-run directly per run, from round 0.
SAMPLE_HITS = 2
SAMPLE_MISSES = 2


def catalog() -> List[Dict[str, Any]]:
    return [{"kind": "bar", "benchmark": benchmark, "machine": "ooo",
             "label": label, "instructions": CELL_INSTRUCTIONS,
             "warmup": CELL_WARMUP, "seed": seed}
            for seed in CATALOG_SEEDS
            for benchmark in CATALOG_BENCHMARKS
            for label in CATALOG_LABELS]


def plan_round(seed: int, index: int) -> List[Dict[str, Any]]:
    """The request list of round *index*: a pure function of the seed.

    The catalog and the miss cells' shapes are the same for every seed;
    the seed sets the zipf draw order, where the misses fall, and the
    misses' workload seeds.
    """
    cells = catalog()
    rng = random.Random(seed * 1_000_003 + index)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
               for rank in range(len(cells))]
    order = list(range(len(cells)))
    rng.shuffle(order)  # which cells are popular
    draws = [dict(cells[order[pick]]) for pick in
             rng.choices(range(len(cells)), weights=weights,
                         k=ROUND_REQUESTS)]
    shapes = len(CATALOG_BENCHMARKS) * len(CATALOG_LABELS)
    for j, position in enumerate(sorted(rng.sample(range(ROUND_REQUESTS),
                                                   ROUND_MISSES))):
        shape = cells[(index * ROUND_MISSES + j) % shapes]
        draws[position] = dict(
            shape, seed=MISS_SEED_BASE + (seed % 20_000) * 100_000
            + index * ROUND_MISSES + j)
    return draws


class Server:
    """The gateway on its own event-loop thread."""

    def __init__(self, options, execute) -> None:
        from repro.serve.app import App
        from repro.serve.gateway import Gateway

        self.gateway = Gateway(options, execute=execute)
        self.app = App(self.gateway)
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop = None
        self._stop = None
        self._thread = threading.Thread(target=self._run, name="serve-loop")

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except Exception as exc:  # reported by start() or stop()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.host, self.port = await self.app.start("127.0.0.1", 0)
        self._ready.set()
        await self._stop.wait()
        await self.app.shutdown(grace=30)

    def start(self) -> None:
        self._thread.start()
        if not self._ready.wait(60) or self._error is not None:
            raise RuntimeError(f"gateway failed to start: {self._error}")

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(60)
        if self._thread.is_alive():
            raise RuntimeError("gateway did not shut down within 60 s")
        if self._error is not None:
            raise RuntimeError(f"gateway failed: {self._error}")


class Round:
    """One closed-loop round: per-request outcomes in plan order, and the
    instructions its misses simulated."""

    def __init__(self, wall: float, outcomes: List[Dict[str, Any]],
                 yard_ms: List[float]) -> None:
        self.wall = wall
        self.outcomes = outcomes
        self.yard_ms = yard_ms
        self.sim_insts = sum(CELL_WARMUP + o["result"]["app_instructions"]
                             + o["result"]["handler_instructions"]
                             for o in outcomes if o["cache"] == "miss")

    @property
    def rows(self):
        return [outcome["result"] for outcome in self.outcomes]

    @property
    def miss_ms(self) -> List[float]:
        """Client-observed latencies of the requests that simulated."""
        return [o["ms"] for o in self.outcomes if o["cache"] == "miss"]


class ServeMix:
    name = "serve-mix"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rounds_started = 0
        self.mismatches: List[str] = []
        self.server: Optional[Server] = None
        self.client: Any = None
        self.directory: Optional[str] = None

    # -- lifecycle -----------------------------------------------------------
    def setup(self) -> None:
        """Boot the gateway and warm the catalog through it."""
        from repro.exec.job import execute_job
        from repro.serve import ServeClient, ServeOptions

        self.directory = fresh_dir(self.name)
        # One client never has more than one job in flight, so more
        # shards would never run; the queue limit is bench_serve's.
        options = ServeOptions(
            shards=1, queue_limit=max(64, 2 * len(catalog())),
            cache_dir=os.path.join(self.directory, "cache"),
            manifest_dir=os.path.join(self.directory, "runs"),
            journal_path=os.path.join(self.directory, "serve.journal"))
        self.server = Server(options, execute_job)
        self.server.start()
        self.client = ServeClient(self.server.host, self.server.port,
                                  timeout=120)
        for spec in catalog():
            status, body = self.client.submit(spec)
            if status != 200:
                raise RuntimeError(f"catalog warm-up failed: {status} "
                                   f"{body}")

    def close(self) -> None:
        import shutil

        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.stop()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)

    # -- measurement ---------------------------------------------------------
    def run_round(self, recorder=None, execute=None,
                  yardstick=None) -> Round:
        """Run the next round: the plan's requests one after another on
        the keep-alive client.  The client is not traced: it only waits;
        *execute*, if given, becomes the gateway's job body from this
        round on.  With a *yardstick*, a host-speed sample precedes every
        :data:`YARD_EVERY`-th request, while the gateway waits; the
        samples' time is taken out of the round's wall."""
        if execute is not None:
            self.server.gateway.execute = execute
        plan = plan_round(self.seed, self.rounds_started)
        self.rounds_started += 1
        outcomes: List[Dict[str, Any]] = []
        yard_ms: List[float] = []
        round_start = time.perf_counter()
        for index, spec in enumerate(plan):
            if yardstick is not None and index % YARD_EVERY == 0:
                yard_ms.extend(yardstick.sample())
            start = time.perf_counter()
            status, body = self.client.submit(spec)
            elapsed = (time.perf_counter() - start) * 1000.0
            ok = status == 200
            outcomes.append({
                "status": status, "ms": elapsed,
                "cache": body.get("meta", {}).get("cache") if ok else None,
                "result": body.get("result") if ok else None})
        wall = time.perf_counter() - round_start - sum(yard_ms) / 1000.0
        expected_misses = {index for index, spec in enumerate(plan)
                           if spec["seed"] >= MISS_SEED_BASE}
        for index, outcome in enumerate(outcomes):
            if outcome["status"] != 200:
                continue
            want = "miss" if index in expected_misses else "hit"
            if outcome["cache"] != want:
                self.mismatches.append(
                    f"serve-mix: request {index} of round "
                    f"{self.rounds_started - 1} was a cache "
                    f"{outcome['cache']}, expected a {want}")
        return Round(wall, outcomes, yard_ms)

    def stats_counters(self) -> Dict[str, int]:
        status, body = self.client.stats()
        if status != 200:
            raise RuntimeError(f"/stats returned {status}")
        return body["metrics"]["counters"]

    # -- correctness ---------------------------------------------------------
    def check(self, first: Round) -> List[str]:
        """Sampled served results must equal a direct JobRunner run."""
        from repro.exec import ExecOptions, JobRunner
        from repro.serve import validate_job_spec

        plan = plan_round(self.seed, 0)
        rng = random.Random(self.seed)
        hits = [i for i, o in enumerate(first.outcomes) if o["cache"] == "hit"]
        misses = [i for i, o in enumerate(first.outcomes)
                  if o["cache"] == "miss"]
        sample = (rng.sample(hits, min(SAMPLE_HITS, len(hits)))
                  + rng.sample(misses, min(SAMPLE_MISSES, len(misses))))
        problems = []
        runner = JobRunner(ExecOptions(jobs=1, cache=False))
        for index in sample:
            direct = runner.run([validate_job_spec(plan[index])])[0]
            if direct != first.outcomes[index]["result"]:
                problems.append(f"serve-mix: served result of request "
                                f"{index} differs from a direct run")
        return problems
