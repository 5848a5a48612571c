"""tempcoh benchmark: one workload per run, in one process, one BLAS thread.

    python3 perfbench/run.py --workload arm-pair --seed 0 --seconds 60 --trace 0

Each run is a closed loop with one caller: the workload's iteration runs
again while another one is expected to end within `--seconds` (at least
once). With `--trace 0` it
prints the end-to-end metrics, its times scaled to nominal host speed
(`hostspeed.py`); with `--trace 1` it alternates an untraced and a traced
iteration and prints the per-layer metrics, unscaled. The last line of
stdout is the result JSON; the line before it holds the detail record
(environment, reference timing, spreads, output hashes, quality scores).
Exit code 2 when the tempcoh sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("arm-pair", "paper-shape", "cli-chain")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pretrain_tuples_per_s": "1/s",
    "finetune_frames_per_s": "1/s",
    "ops_per_s": "1/s",
}
# Stage throughputs: medians over pretraining and fine-tuning epochs.
STAGE_METRICS = {"pretrain_tuples_per_s": "pretrain",
                 "finetune_frames_per_s": "finetune"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # time set-up only, in a fresh process
    return p.parse_args(argv)


def _stats(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _probe_setup(args) -> tuple[float, float]:
    """(set-up seconds, reference seconds) of a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=150, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["reference_s"]


def _iterate(workload, ops, clock, tracer=None) -> tuple[float, float, float]:
    """One timed iteration; returns (wall seconds, wall seconds at nominal
    host speed, CPU seconds per wall second). With the clock's host-speed
    reference, it is timed before and after the iteration as well as
    inside it (`layers.StageClock`), and the time spent in it is left out."""
    if tracer is not None:
        tracer.reset()
    reference = clock.reference
    if reference is not None:
        first = len(reference.marks)
        reference.measure()
    wall, cpu = time.perf_counter(), time.process_time()
    workload.iterate(ops, clock)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if reference is None:
        return wall, wall, cpu / wall
    reference.measure()
    return (*reference.elapsed(first), cpu / wall)


def _done(began: float, iterations: int, seconds: float) -> bool:
    """Stop before an iteration that would end after `seconds`."""
    elapsed = time.perf_counter() - began
    return elapsed + elapsed / iterations > seconds


def run_untraced(args, started):
    import layers
    import workloads
    from hostspeed import Reference
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    setups = [(time.perf_counter() - started, Reference().measure())]
    clock = layers.StageClock(Reference())
    clock.install()
    ops = workloads.OpLog()
    samples = {name: [] for name in END_TO_END}
    raw = {"wall_s": [], "setup_s": []}
    cpu = []
    try:
        began = time.perf_counter()
        while True:
            before = ops.attempted
            wall, scaled, cpu_per_wall = _iterate(workload, ops, clock)
            raw["wall_s"].append(wall)
            samples["wall_s"].append(scaled)
            samples["ops_per_s"].append((ops.attempted - before) / scaled)
            cpu.append(cpu_per_wall)
            if _done(began, len(raw["wall_s"]), args.seconds):
                break
    finally:
        clock.uninstall()
        workload.close()
    samples["peak_rss_mb"].append(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    for metric, stage in STAGE_METRICS.items():
        samples[metric] = clock.samples[stage]
        raw[metric] = clock.raw_samples[stage]
    setups += [_probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    raw["setup_s"] = [setup for setup, _ in setups]
    samples["setup_s"] = [setup / Reference.speed(reference)
                          for setup, reference in setups]
    stats = {name: {"unit": END_TO_END[name], **_stats(samples[name])}
             for name in END_TO_END}
    metrics = {name: {"value": s["median"], "unit": s["unit"]}
               for name, s in stats.items()}
    # Evaluation lasts about 0.3 s of a 20 s arm-pair iteration, too short
    # for a steady median there, so its rate is recorded but not a metric.
    detail = {"iterations": len(samples["wall_s"]), "metric_stats": stats,
              "unscaled_stats": {name: _stats(v) for name, v in raw.items()},
              "reference_stats": _stats(clock.reference.seconds()),
              "eval_frames_per_s": _stats(clock.samples["evaluate"]),
              "cpu_per_wall": _stats(cpu)}
    return metrics, detail, ops, workload


def run_traced(args):
    import layers
    import workloads
    from tracer import Tracer
    clock, traced = layers.StageClock(), Tracer()

    def install():
        clock.install()
        layers.install_layers(traced)

    def uninstall():
        traced.unwrap_all()
        clock.uninstall()

    install()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    finally:
        uninstall()
    setup_bucket = layers.bucket_metrics(traced)
    ops = workloads.OpLog()
    walls = {"untraced": [], "traced": []}
    buckets, durations = [], {}
    try:
        began = time.perf_counter()
        while True:
            clock.install()
            try:
                walls["untraced"].append(_iterate(workload, ops, clock)[0])
            finally:
                clock.uninstall()
            install()
            try:
                walls["traced"].append(_iterate(workload, ops, clock, traced)[0])
            finally:
                uninstall()
            buckets.append(layers.bucket_metrics(traced))
            for name, span in traced.spans.items():
                durations.setdefault(name, []).extend(span.durations)
            if _done(began, len(walls["traced"]), args.seconds):
                break
        rng_calls = workload.sampler_probe()
    finally:
        workload.close()
    values = layers.median_metrics(buckets)
    for name, setup_value in setup_bucket.items():
        if name.endswith((".calls", ".self_s")) or name in layers.COUNTERS:
            values[name] += setup_value
    values.update(layers.percentile_metrics(durations))
    values["sampling.rng_calls_per_tuple"] = rng_calls
    values["trace_overhead_ratio"] = (statistics.median(walls["traced"])
                                      / statistics.median(walls["untraced"]))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in layers.LAYER_METRICS.items()}
    spans = {name: {"calls": s.calls, "self_s": s.self_s, "total_s": s.total_s}
             for name, s in sorted(traced.spans.items())}
    detail = {"iterations": len(buckets), "wall_s": walls,
              "spans_last_traced_iteration": spans}
    return metrics, detail, ops, workload


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tempcoh" / "__init__.py").is_file():
        print(f"perfbench: no tempcoh sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    # Set-up time includes importing numpy and tempcoh, so the benchmark's
    # modules are imported here and not at the top of this file.
    import workloads
    from hostspeed import Reference
    if args.setup_probe:
        workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
        elapsed = time.perf_counter() - started
        workload.close()
        print(json.dumps({"setup_s": elapsed,
                          "reference_s": Reference().measure()}))
        return 0
    if args.trace:
        metrics, detail, ops, workload = run_traced(args)
    else:
        metrics, detail, ops, workload = run_untraced(args, started)

    import envinfo
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **detail,
        "environment": envinfo.environment(ROOT, THREAD_VARS),
        "reference_s": Reference().measure(),
        "output_sha256": ops.output_sha256(), "op_sha256": ops.digests,
        "errors": ops.errors, "quality": workload.quality,
    }
    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
