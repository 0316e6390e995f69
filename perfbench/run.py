"""kinverify benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]

NAME is one of the workloads in BENCHMARK.json, or ``all`` to run each of
them in turn. The run prints every metric as ``metric NAME = VALUE UNIT``,
the environment, the output checks and, as its last line, one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. Full results (and, traced, the spans) are written under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS threads are pinned, never above the CPUs this process may use. The cap
# of 2 keeps numbers comparable between hosts with different core counts.
MAX_BLAS_THREADS = 2

# Layer metrics named by the benchmark's design; printed (0 when a workload
# does not reach the layer) even when BENCHMARK.json does not list them.
NAMED_LAYER_METRICS = {
    "comparator.forward.busy_ms": "ms", "comparator.forward.self_ms": "ms",
    "comparator.forward.calls": "count", "comparator.forward.rows": "count",
    "comparator.forward.gflop": "GFLOP", "comparator.forward.gflop_per_s": "GFLOP/s",
    "comparator.useful_expert_frac": "ratio", "comparator.trace_mb_peak": "MB",
    "comparator.verify.busy_us": "us", "comparator.score_unknown.busy_ms": "ms",
    "comparator.attention_forward.busy_ms": "ms",
    "training.backward.busy_ms": "ms", "training.l2_penalty.busy_ms": "ms",
    "training.adam_step.busy_ms": "ms", "training.bce_loss.busy_ms": "ms",
    "training.steps": "count", "training.train.self_ms": "ms",
    "training._macro_accuracy_curve.busy_ms": "ms",
    "data.augment_symmetric.busy_ms": "ms", "data.resample_nonkin.busy_ms": "ms",
    "data.pairs_to_arrays.busy_ms": "ms", "data.load_embeddings.busy_ms": "ms",
    "data.load_pairs.busy_ms": "ms", "data.load_embeddings.mb_per_s": "MB/s",
    "data.save_embeddings.busy_ms": "ms", "data.save_pairs.busy_ms": "ms",
    "data.save_tri.busy_ms": "ms", "synth.generate_world.busy_ms": "ms",
    "synth.save_pedigree.busy_ms": "ms", "config.write_manifest.busy_ms": "ms",
    "evaluation.score_pairs.self_ms": "ms", "evaluation.calibrate_threshold.busy_ms": "ms",
    "evaluation.accuracy_report.busy_ms": "ms", "evaluation.auc.busy_ms": "ms",
    "evaluation.score_tris.busy_ms": "ms", "evaluation.tri_score.busy_ms": "ms",
    "model_io.load_model.busy_ms": "ms", "model_io.save_model.busy_ms": "ms",
    "cli.interpreter_ms": "ms", "cli.import_ms": "ms",
    "trace.overhead_frac": "ratio", "trace.coverage_frac": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("default", "tiny"), default="default")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _openblas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest():
    """sha256 over the package sources, which identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": threads,
        "blas_threads_runtime": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }


def probe_cli_start(run) -> None:
    """Cold-start costs outside any span: bare interpreter, then the CLI import."""

    def median_s(cmd):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            subprocess.run(cmd, env=run.env, cwd=ROOT, capture_output=True, check=True, timeout=120)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    bare = median_s([sys.executable, "-c", "pass"])
    imported = median_s([sys.executable, "-c", "import kinverify.cli"])
    run.metric("cli.interpreter_ms", 1e3 * bare, "ms")
    run.metric("cli.import_ms", 1e3 * (imported - bare), "ms")


def layer_metrics(run) -> None:
    """Per-layer metrics from the spans of set-up and the traced round."""
    tracer = run.tracer
    summary = tracer.summarize({"bench.setup", "bench.measure"})
    layers = {n: a for n, a in summary.items() if not n.startswith("bench.")}
    for name, agg in sorted(layers.items()):
        run.metric(f"{name}.busy_ms", agg["busy_ns"] / 1e6, "ms")
        run.metric(f"{name}.self_ms", agg["self_ns"] / 1e6, "ms")
        run.metric(f"{name}.calls", agg["calls"], "count")

    def counter(name, key):
        return layers.get(name, {}).get("counters", {}).get(key, 0)

    fwd_s = layers.get("comparator.forward", {}).get("busy_ns", 0) / 1e9
    run.metric("comparator.forward.rows", counter("comparator.forward", "rows"), "count")
    run.metric("comparator.forward.gflop", counter("comparator.forward", "gflop"), "GFLOP")
    if fwd_s:
        run.metric("comparator.forward.gflop_per_s", counter("comparator.forward", "gflop") / fwd_s, "GFLOP/s")
    run.metric("comparator.trace_mb_peak", counter("comparator.forward", "trace_mb_max"), "MB")
    useful = sum(a["counters"].get("expert_useful", 0) for a in layers.values())
    total = sum(a["counters"].get("expert_total", 0) for a in layers.values())
    if total:
        run.metric("comparator.useful_expert_frac", useful / total, "ratio")
    if "comparator.verify" in layers:
        run.metric("comparator.verify.busy_us", layers["comparator.verify"]["busy_ns"] / 1e3, "us")
    run.metric("training.steps", layers.get("training.backward", {}).get("calls", 0), "count")
    load_s = layers.get("data.load_embeddings", {}).get("busy_ns", 0) / 1e9
    if load_s:
        run.metric("data.load_embeddings.mb_per_s", counter("data.load_embeddings", "mb") / load_s, "MB/s")

    roots = [s for s in tracer.spans if s[4] is None and s[1] in ("bench.setup", "bench.measure")]
    wall_ns = sum(s[3] - s[2] for s in roots)
    covered_ns = sum(a["self_ns"] for a in layers.values())
    run.metric("trace.coverage_frac", covered_ns / wall_ns, "ratio")
    run.metric("trace.bench_self_ms", (wall_ns - covered_ns) / 1e6, "ms")
    run.metric("trace.spans", len(tracer.spans), "count")
    # Where the traced round spent its time, one benchmark operation kind at a time.
    kinds = sorted({s[1] for s in tracer.spans if s[1].startswith("bench.") and s[4] is not None})
    for kind in kinds:
        part = tracer.summarize({"bench.measure"}, runs={kind})
        u = sum(a["counters"].get("expert_useful", 0) for a in part.values())
        t = sum(a["counters"].get("expert_total", 0) for a in part.values())
        if t:
            run.metric(f"comparator.useful_expert_frac.{kind[6:]}", u / t, "ratio")
    for name, unit in NAMED_LAYER_METRICS.items():
        run.metrics.setdefault(name, (0.0, unit))


def run_all(args, spec) -> int:
    """Run every workload in its own process and relay its output."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "kinverify" / "__init__.py").is_file():
        print(f"error: kinverify sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    threads = min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:  # before numpy is imported, here and in every child
        os.environ[var] = str(threads)
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path.insert(0, str(ROOT / "src"))

    import kinverify.cli  # noqa: F401  (loads every module before the tracer patches them)
    import workloads
    from tracer import Tracer

    env = environment(threads)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(args.seed, args.seconds, Tracer() if args.trace else None, args.size,
                        workdir, dict(os.environ))
    try:
        workloads.WORKLOADS[args.workload](run)
        if run.tracer is not None:
            probe_cli_start(run)
            layer_metrics(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run.metric("peak_rss_mb", workloads.peak_rss_mb(), "MB")
    checks_failed = sum(1 for _, ok, _ in run.checks if not ok)
    attempted = run.ops + len(run.checks)
    failed = run.ops_failed + checks_failed
    run.metric("ops_attempted", attempted, "count")
    run.metric("ops_failed", failed, "count")
    run.metric("failed_frac", failed / attempted, "ratio")

    for name, (value, unit) in sorted(run.metrics.items()):
        print(f"metric {name} = {value!r} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    tally = Counter((name, ok) for name, ok, _ in run.checks)
    for name in sorted({name for name, _, _ in run.checks}):
        bad = [d for n, ok, d in run.checks if n == name and not ok]
        status = "FAIL" if bad else "PASS"
        print(f"check {name} {status} ({tally[(name, True)]} passed, {tally[(name, False)]} failed)"
              + (f": {bad[0]}" if bad else ""))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "env": env,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in sorted(run.metrics.items())},
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in run.checks],
        "samples": run.samples,
    }
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if run.tracer is not None:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        run.tracer.dump(OUT / "spans" / f"{tag}.jsonl")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        if args.trace and m["name"] not in run.metrics:
            run.metric(m["name"], 0.0, m["unit"])  # a layer that this version does not have
        value, unit = run.metrics[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"metric {m['name']} measured in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
