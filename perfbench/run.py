"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_bca --seed 1 --seconds 20 --trace 0

Run from the repository root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, measured with only the probes installed;
with --trace 1 the commands run in pairs, one traced and one not, and the
run reports the per-layer metrics and the tracing overhead within the pairs.
Lines above it are a human-readable report under the workload's own metric
names. Full results, the environment and (traced) the spans are written to
.perfbench_out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# BENCHMARK.json name -> (unit, key in workloads.end_to_end's result)
END_TO_END = {
    "throughput_ex_per_s": ("ex/s", "throughput"),
    "latency_p50_ms": ("ms", "latency_p50_ms"),
    "latency_tail_ms": ("ms", "tail"),
    "setup_s": ("s", "setup_s"),
    "peak_rss_mb": ("MB", "peak_rss_mb"),
    "quality_loss": ("nat", "loss"),
}
# the same numbers under the names a user of each workload knows them by
REPORT_NAMES = {
    "train": {
        "throughput_ex_per_s": "train_ex_per_s",
        "latency_p50_ms": "step_p50_ms",
        "latency_tail_ms": "step_tail_ms",
        "quality_loss": "train_loss_end",
    },
    "infer": {
        "throughput_ex_per_s": "eval_ex_per_s",
        "latency_p50_ms": "predict_p50_ms",
        "latency_tail_ms": "predict_tail_ms",
        "quality_loss": "eval_loss",
    },
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train_bca", "train_small", "infer_bca"))
    parser.add_argument("--seed", type=int, required=True, help="seed for the generated inputs")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.25 has no mode argument
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "stancegen" / "cli.py").is_file():
        print(f"perfbench: no stancegen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    # one BLAS thread, set before numpy loads, in this process (and its children) only
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    child_path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(child_path))

    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-s{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        try:
            prepared = wl.prepare(workload, work, args.seed, child_env)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: cannot prepare {workload.name}: {exc}", file=sys.stderr)
            return 1
        session = wl.run(workload, work, args.seconds, bool(args.trace), prepared)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it

    env = environment()
    e2e = wl.end_to_end(workload, session)
    names = REPORT_NAMES[workload.kind]
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {workload.why}")
    print("env: " + json.dumps(env))
    print(f"commands: {e2e['commands']}")
    for name, (unit, key) in END_TO_END.items():
        value = e2e[key]
        if key == "tail" and value is not None:
            pct, value, beyond = value
            where = f"(p{pct:.1f} of {e2e['samples']}, {beyond} beyond)"
            print(f"  {names.get(name, name):<18}{value:12.4f} {unit:<5} {where}")
        elif value is not None:
            print(f"  {names.get(name, name):<18}{value:12.4f} {unit}")
    print(f"  {'error_rate':<18}{e2e['failed'] / max(e2e['attempted'], 1):12.4f} ({e2e['failed']}/{e2e['attempted']})")
    for problem in e2e["problems"][:10]:
        print(f"  problem: {problem}")

    result = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "env": env, "end_to_end": e2e}
    if args.trace:
        layer_metrics, by_layer = wl.per_layer(workload, session)
        print("per layer (median per traced command):")
        for name, value in layer_metrics.items():
            print(f"  {name:<30}{value:14.6f} {wl.PER_LAYER_UNITS[name]}")
        print("self time by command kind and layer (median per command):")
        for key, value in by_layer.items():
            print(f"  {key:<30}{value:14.6f} s")
        metrics = {name: {"value": v, "unit": wl.PER_LAYER_UNITS[name]} for name, v in layer_metrics.items()}
        result.update(per_layer=layer_metrics, self_by_layer=by_layer)
        session.recorder.write(out_dir / f"{tag}-spans.jsonl")
    else:
        metrics = {}
        for name, (unit, key) in END_TO_END.items():
            value = e2e[key][1] if key == "tail" and e2e[key] else e2e[key]
            if value is None:
                print(f"perfbench: no measurement for {name}; every operation failed?", file=sys.stderr)
                return 1
            metrics[name] = {"value": value, "unit": unit}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")
    # every problem is counted in "failed"
    print(json.dumps({"correct": e2e["failed"] == 0, "attempted": e2e["attempted"], "failed": e2e["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
