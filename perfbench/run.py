"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig2-grid --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` is a separate run that reports the per-layer metrics.
Both check the program's outputs.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it carries the digest of the simulated statistics, the
unscaled stopwatch figures (``raw``) and the run's metadata.  The exit code is 1 when an output is wrong and 2 when
the benchmark could not run at all (then no result line is printed).
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import common

WORKLOADS = ("fig2-grid", "lab-mix", "serve-mix")
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
#: One round's length on the host the benchmark was tuned on.  A run
#: does ``--seconds`` over this many rounds, and never fewer than
#: MIN_ROUNDS, so the work a run measures depends on ``--seconds``
#: alone and not on how fast the host happens to be.
NOMINAL_ROUND_S = {"fig2-grid": 20.0, "lab-mix": 5.0, "serve-mix": 0.8}
MIN_ROUNDS = 2
#: The yardstick's mean sample on the reference host, in ms.  Host
#: times are reported as they would read on a host where the mean
#: yardstick sample takes this long.
YARD_REF_MS = 7.5
#: The largest share of the traced grid wall that may fall outside
#: every layer's spans.
UNCOVERED_TOLERANCE = 0.01


def make_workload(name: str, seed: int):
    if name == "serve-mix":
        from servemix import ServeMix
        return ServeMix(seed)
    from grids import Figure2Grid, LabMix
    return {"fig2-grid": Figure2Grid, "lab-mix": LabMix}[name](seed)


def host_factor(yard_ms) -> float:
    """Scale from this run's host speed to the reference host's: the
    reference yardstick time over the mean of the run's samples.  The
    mean, not the median: the host flips between a fast and a slow
    state, the samples fall in two clusters, and a median jumps from one
    to the other where a mean follows the share of time in each."""
    return YARD_REF_MS / statistics.fmean(yard_ms)


def rounds_for(name: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S[name]))


def probe_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    the program and finished the workload's set-up."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, cwd=common.ROOT,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rounds, scale) -> dict:
    """The end-to-end metrics other than ``setup_s`` and memory.  Each
    round's host times are multiplied, and its rates divided, by
    ``scale(round)``: its :func:`host_factor`, or 1 for raw figures."""
    miss_ms = [ms * scale(r) for r in rounds for ms in r.miss_ms]
    return {
        "wall_s": statistics.median([r.wall * scale(r) for r in rounds]),
        "sim_kips": statistics.median([r.sim_insts / r.wall / 1000.0
                                       / scale(r) for r in rounds]),
        "req_per_s": statistics.median([len(r.rows) / r.wall / scale(r)
                                        for r in rounds]),
        "miss_p50_ms": common.percentile(miss_ms, 0.50),
        "miss_p90_ms": common.percentile(miss_ms, 0.90),
    }


def count_ops(workload, rounds) -> tuple:
    """(attempted, failed) operations of the timed rounds."""
    if workload.name == "serve-mix":
        outcomes = [o for r in rounds for o in r.outcomes]
        return len(outcomes), sum(1 for o in outcomes if o["status"] != 200)
    return (sum(len(r.rows) for r in rounds),
            sum(r.clock.failed for r in rounds))


def measure(workload, seconds: float, yardstick) -> tuple:
    """The untraced run: :func:`rounds_for` rounds, each with its
    *yardstick* samples and scaled by its own :func:`host_factor`.
    Returns the rounds, the metrics and the raw (unscaled) figures."""
    rounds = [workload.run_round(yardstick=yardstick)
              for _ in range(rounds_for(workload.name, seconds))]
    metrics = end_to_end(rounds, lambda r: host_factor(r.yard_ms))
    metrics["peak_rss_mb"] = peak_rss_mb()
    raw = dict(end_to_end(rounds, lambda r: 1.0),
               yard_mean_ms=statistics.fmean(
                   ms for r in rounds for ms in r.yard_ms))
    return rounds, metrics, raw


def serve_layers(workload, reference, traced, probe, recorder,
                 before) -> dict:
    """serve.* metrics (client latency of hits from the untraced
    rounds, the rest from the traced ones); backends per core run."""
    after = workload.stats_counters()
    metrics = {f"serve.{name}": after.get(f"serve.{name}", 0)
               - before.get(f"serve.{name}", 0)
               for name in ("executed", "cache_hits", "coalesced")}
    metrics["serve.rejected"] = sum(
        after[key] - before.get(key, 0) for key in after
        if key.startswith("serve.rejected"))
    gateway = probe.gateway_ms
    for cache in ("hit", "miss"):
        samples = gateway.get(cache, [])
        metrics[f"serve.gateway_{cache}_ms"] = (
            statistics.median(samples) if samples else 0.0)
    hit_ms = [o["ms"] for r in reference for o in r.outcomes
              if o["cache"] == "hit"]
    metrics["serve.hit_p50_ms"] = common.percentile(hit_ms, 0.50)
    metrics["serve.hit_p99_ms"] = common.percentile(hit_ms, 0.99)
    outcomes = [o for r in traced for o in r.outcomes]
    client_ms = sum(o["ms"] for o in outcomes)
    gateway_ms = sum(sum(samples) for samples in gateway.values())
    metrics["serve.http_ms"] = (client_ms - gateway_ms) / len(outcomes)
    totals = recorder.totals()
    metrics["core.cells_vec"] = sum(totals.get(n, {}).get("calls", 0)
                                    for n in ("vec.inorder", "vec.ooo"))
    metrics["core.cells_interp"] = sum(totals.get(n, {}).get("calls", 0)
                                       for n in ("inorder.run", "ooo.run"))
    return metrics


def grid_layers(traced) -> dict:
    """serve.* are zero on the grids; backends from the job events."""
    metrics = {f"serve.{name}": 0 for name in (
        "executed", "cache_hits", "coalesced", "rejected")}
    metrics.update({f"serve.{name}": 0.0 for name in (
        "hit_p50_ms", "hit_p99_ms", "gateway_hit_ms", "gateway_miss_ms",
        "http_ms")})
    executed = sum(len(r.clock.cell_ms) for r in traced)
    vec = sum(r.clock.backends.get("vec", 0) for r in traced)
    # App cells have no backend choice: they always run on interp.
    metrics["core.cells_vec"] = vec
    metrics["core.cells_interp"] = executed - vec
    return metrics


def measure_traced(workload, seed: int) -> tuple:
    """The traced run: a fixed number of untraced rounds, then as many
    traced ones, so the traced counts repeat exactly for a seed.  The
    check of the first round runs under a recorder of its own: on
    fig2-grid its direct vec re-run gives the ``vec.*`` metrics."""
    from layers import (REQUIRED_SPANS, VEC_SPANS, LayerProbe,
                        generation_ns_per_inst)
    from recorder import Recorder

    serve = workload.name == "serve-mix"
    if serve:
        from servemix import CELL_INSTRUCTIONS, CELL_WARMUP, TRACE_ROUNDS
        count, length = TRACE_ROUNDS, CELL_INSTRUCTIONS + CELL_WARMUP
    else:
        count, length = 1, workload.instructions + workload.warmup
    reference = [workload.run_round() for _ in range(count)]
    recorder = Recorder()
    probe = LayerProbe(recorder)
    before = workload.stats_counters() if serve else {}
    probe.install()
    try:
        traced = [workload.run_round(recorder=recorder,
                                     execute=probe.execute)
                  for _ in range(count)]
    finally:
        probe.uninstall()
    check_probe = LayerProbe(Recorder())
    check_probe.install()
    try:
        problems = workload.check(reference[0])
    finally:
        check_probe.uninstall()

    traced_wall = sum(r.wall for r in traced)
    metrics = probe.metrics()
    metrics.update({name: value for name, value
                    in check_probe.metrics().items()
                    if name.startswith("vec.") and name != "vec.self_s"})
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_ratio"] = traced_wall / sum(
        r.wall for r in reference)
    missing = probe.missing(REQUIRED_SPANS[workload.name])
    if workload.name == "fig2-grid":
        missing += check_probe.missing(VEC_SPANS)
    if missing:
        problems.append(f"{workload.name}: probes never fired: "
                        f"{', '.join(missing)}")
    if serve:
        metrics.update(serve_layers(workload, reference, traced, probe,
                                    recorder, before))
        # The traced wall is the client's; the spans run on the shard.
        metrics["trace.uncovered_ratio"] = 0.0
        executed = [o["result"] for r in traced for o in r.outcomes
                    if o["cache"] == "miss"]
        benchmarks = sorted({row["benchmark"] for row in executed})
    else:
        metrics.update(grid_layers(traced))
        executed = [row for r in traced for row in r.rows]
        benchmarks = workload.benchmarks
        # The part of the rounds no program span covers: the
        # benchmark's own code, and program code the probe misses.
        uncovered = recorder.totals()["bench.round"]["self_ns"] / 1e9
        metrics["trace.uncovered_ratio"] = uncovered / traced_wall
        if metrics["trace.uncovered_ratio"] > UNCOVERED_TOLERANCE:
            problems.append(
                f"{workload.name}: {uncovered:.3f} s of the "
                f"{traced_wall:.3f} s traced wall is in no layer")
        if any(ref.rows != run.rows for ref, run in zip(reference, traced)):
            problems.append("a traced grid differs from the untraced one")
    cells = metrics["core.cells_vec"] + metrics["core.cells_interp"]
    metrics["core.vec_ratio"] = (metrics["core.cells_vec"] / cells
                                 if cells else 0.0)
    metrics["apps.handler_invocations"] = sum(
        row.get("handler_invocations", 0) for row in executed)
    metrics["apps.handler_instructions"] = sum(
        row.get("handler_instructions", 0) for row in executed)
    metrics["workloads.gen_ns_per_inst"] = generation_ns_per_inst(
        benchmarks, seed, length)
    os.makedirs(common.OUT_ROOT, exist_ok=True)
    stem = os.path.join(common.OUT_ROOT, f"{workload.name}-seed{seed}")
    recorder.write(stem + ".spans.jsonl")
    with open(stem + ".totals.json", "w") as fh:
        json.dump(recorder.totals(), fh, indent=1, sort_keys=True)
    return reference + traced, metrics, problems


def declared_units(trace: int) -> dict:
    """name -> unit of the metrics ``BENCHMARK.json`` lists for a run
    with tracing *trace*: per-layer when traced, else end-to-end."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def collect(args, yardstick) -> tuple:
    """Set up and measure the workload: the traced run when
    ``--trace 1``, else set-up probes and the rounds, with *yardstick*
    samples beside the rounds.  Returns the rounds, metrics, problems,
    raw (unscaled) figures, ``setup_s`` and (attempted, failed)."""
    raw: dict = {}
    setup_s = None
    if not args.trace:
        setup_s = statistics.median([probe_setup(args.workload, args.seed)
                                     for _ in range(SETUP_PROBES)])
    workload = make_workload(args.workload, args.seed)
    try:
        workload.setup()
        if args.trace:
            rounds, metrics, problems = measure_traced(workload, args.seed)
        else:
            rounds, metrics, measured_raw = measure(workload, args.seconds,
                                                    yardstick)
            raw.update(measured_raw)
            problems = workload.check(rounds[0])
        problems.extend(workload.mismatches)
        if workload.name != "serve-mix":
            if any(other.rows != rounds[0].rows for other in rounds[1:]):
                problems.append(f"{workload.name}: rounds of one run "
                                f"differ")
        ops = count_ops(workload, rounds)
    finally:
        workload.close()
    return rounds, metrics, problems, raw, setup_s, ops


def run(args) -> int:
    if args.setup_probe:
        workload = make_workload(args.workload, args.seed)
        try:
            workload.setup()
            print("ready", flush=True)
        finally:
            workload.close()
        return 0

    units = declared_units(args.trace)
    calib_start = common.calibrate_ms()
    rounds, metrics, problems, raw, setup_s, ops = collect(
        args, None if args.trace else common.Yardstick())
    attempted, failed = ops
    stats_digest = common.digest(rounds[0].rows)
    calib_end = common.calibrate_ms()

    if args.trace:
        metrics["host.calib_ms"] = calib_start
        metrics["host.calib_end_ms"] = calib_end
    else:
        metrics["setup_s"] = setup_s
    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "digest": stats_digest, "rounds": len(rounds),
        "mismatches": problems,
        "raw": raw,
        "meta": {"host.calib_ms": calib_start,
                 "host.calib_end_ms": calib_end,
                 "nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "git_sha": common.git_sha()}}, sort_keys=True))
    for line in problems:
        print(f"MISMATCH: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in sorted(units.items())}}))
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not common.program_present():
        print(f"perfbench: no program to measure under {common.SRC}",
              file=sys.stderr)
        return 2
    common.isolate()
    try:
        return run(args)
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
