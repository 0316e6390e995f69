"""The benchmark's workloads: train_default and score_eval.

Every workload builds its inputs from the seed, sets up, measures and then
checks the program's outputs. Untraced, set-up runs several times (setup_s
is the median) and measured rounds repeat until the time budget is spent.
Traced, set-up runs once under the tracer, then one round runs untraced and
one traced; the difference is the tracing overhead and the traced spans give
the per-layer metrics. Only the program's own public functions are called,
through their module attributes, so the tracer sees every call.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from kinverify import comparator, config, data, evaluation, model_io, synth, training

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# World sizes. "tiny" only serves the self-test.
SIZES = {
    "default": {},
    "tiny": {"n_train_families": 30, "n_val_families": 8, "n_test_families": 8},
}
_CLI_SIZE_FLAGS = {
    "n_train_families": "--train-families",
    "n_val_families": "--val-families",
    "n_test_families": "--test-families",
}
SETUP_REPEATS = 3
# Every epoch does the same work, so one epoch stands for the 4-epoch recipe.
TRAIN_EPOCHS = 1
# Raw kin pairs of the short seeded run that trains the set-up model of
# score_eval; scoring cost does not depend on the weights.
SHORT_TRAIN_PAIRS = 2000
VERIFY_BLOCK = 250
MAX_ROUNDS = 50
SCORE_ATOL = 1e-9
# A threshold calibrated on the scored pairs themselves lifts even a useless
# scorer above 0.5 macro accuracy, so chance is the best of this many seeded
# shuffles of the same scores.
CHANCE_SHUFFLES = 10
CLI_TIMEOUT_S = 120
# Each score_eval round ends with cold CLI calls: synth, then three queries
# (one of each kind) taken in turn from QUERY_SETS seeded sets.
QUERY_SETS = 4

_now = time.perf_counter


class Run:
    """State of one benchmark invocation: inputs, metrics and checks."""

    def __init__(self, seed, seconds, tracer, size, workdir, env):
        self.seed, self.seconds = seed, seconds
        self.tracer, self.size, self.workdir, self.env = tracer, size, workdir, env
        self.metrics: dict[str, tuple[float, str]] = {}
        self.samples: dict[str, list[float]] = {}
        self.checks: list[tuple[str, bool, str]] = []
        self.ops = 0
        self.ops_failed = 0

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def op(self, ok: bool = True) -> None:
        self.ops += 1
        self.ops_failed += 0 if ok else 1

    def synth_config(self) -> synth.SynthConfig:
        return synth.SynthConfig(seed=self.seed, **SIZES[self.size])

    # -- the set-up / measure skeleton shared by every workload ---------

    def setup(self, build):
        """Set up; timed as the median of SETUP_REPEATS untraced builds."""
        if self.tracer is not None:
            with self.tracer.installed(), self.tracer.span("setup"):
                return build()
        times, value = [], None
        for _ in range(SETUP_REPEATS):
            value = None
            start = _now()
            value = build()
            times.append(_now() - start)
        self.metric("setup_s", statistics.median(times), "s")
        return value

    def measure(self, one_round, min_rounds: int) -> list[dict]:
        """Measured rounds; ``one_round(traced)`` returns a dict with "wall_s".

        Untraced, rounds repeat while the next one is expected to end within
        the time budget. Traced, one untraced and one traced round run, and
        their difference is the tracing overhead.
        """
        if self.tracer is None:
            start = _now()
            end = start + self.seconds
            rounds = [one_round(False)]
            while len(rounds) < MAX_ROUNDS and (
                len(rounds) < min_rounds or _now() + rounds[-1]["wall_s"] <= end
            ):
                rounds.append(one_round(False))
            return rounds
        plain = one_round(False)
        with self.tracer.installed(), self.tracer.span("measure"):
            traced = one_round(True)
        self.metric("trace.overhead_frac", traced["wall_s"] / plain["wall_s"] - 1.0, "ratio")
        return [plain, traced]

    def op_span(self, name: str, traced: bool):
        return self.tracer.span(name) if traced else contextlib.nullcontext()


def _finite_unit(values) -> bool:
    arr = np.asarray(values, dtype=np.float64)
    return bool(arr.size and np.isfinite(arr).all() and arr.min() >= 0.0 and arr.max() <= 1.0)


def _short_model(world, seed: int):
    """Model for score_eval: a short seeded run, the relation head and a calibrated threshold."""
    store = world.store
    kin = data.PairSet(world.kin_pairs["train"].pairs[:SHORT_TRAIN_PAIRS])
    val = data.PairSet(world.eval_pairs["val"].pairs[::16])
    comp = comparator.ComparatorConfig(input_dim=2 * store.dim)
    tc = training.TrainConfig(epochs=1, seed=seed)
    params, _ = training.train(store, kin, val, comp, tc)
    params = training.train_attention(params, store, kin, tc)
    scored = evaluation.score_pairs(params, store, world.eval_pairs["val"])
    params.threshold, _ = evaluation.calibrate_threshold(scored)
    return params


def _check_above_chance(run: Run, scored) -> None:
    """Calibrated macro accuracy beats that of every seeded shuffle of the scores.

    Not checked on the tiny world, which is too small to learn from.
    """
    if run.size == "tiny":
        return
    _, macro = evaluation.calibrate_threshold(scored)
    rng = np.random.default_rng(run.seed)
    scores = np.array([s.score for s in scored])
    chance = max(
        evaluation.calibrate_threshold(
            [evaluation.ScoredPair(s.pair, float(x)) for s, x in zip(scored, rng.permutation(scores))]
        )[1]
        for _ in range(CHANCE_SHUFFLES)
    )
    run.check("macro_above_chance", macro > chance,
              f"calibrated macro {macro:.4f}, best of {CHANCE_SHUFFLES} shuffled {chance:.4f}")


def _check_batch_matches_verify(run: Run, params, store, pairs, batch_scores, threshold):
    """Per-pair ``verify`` reproduces the batch score of a seeded sample of pairs."""
    rng = random.Random(run.seed)
    idx = rng.sample(range(len(pairs)), min(50, len(pairs)))
    worst = 0.0
    for i in idx:
        p = pairs[i]
        s, _ = comparator.verify(
            params, store.embedding(p.id1), store.embedding(p.id2), p.relation, threshold
        )
        worst = max(worst, abs(s - batch_scores[i]))
    run.check("batch_equals_verify", worst <= SCORE_ATOL, f"max |diff| {worst:.3e} on {len(idx)} pairs")


# -- train_default -------------------------------------------------------


def train_default(run: Run) -> None:
    def build():
        world = synth.generate_world(run.synth_config())
        return world, 2 * len(data.augment_symmetric(world.kin_pairs["train"]))

    world, pairs_per_epoch = run.setup(build)
    store = world.store
    comp = comparator.ComparatorConfig(input_dim=2 * store.dim)
    tc = training.TrainConfig(epochs=TRAIN_EPOCHS, seed=run.seed)

    def one_round(traced):
        with run.op_span("train", traced):
            start = _now()
            params, history = training.train(
                store, world.kin_pairs["train"], world.eval_pairs["val"], comp, tc
            )
            wall = _now() - start
        run.op()
        return {"wall_s": wall, "params": params, "history": history}

    rounds = run.measure(one_round, min_rounds=2)
    walls = [r["wall_s"] for r in (rounds[:1] if run.tracer else rounds)]
    run.samples["train_s"] = walls
    params, history = rounds[-1]["params"], rounds[-1]["history"]
    call_s = statistics.median(walls)
    rate = pairs_per_epoch * TRAIN_EPOCHS / call_s
    run.metric("train_pairs_per_s", rate, "pairs/s")
    run.metric("train_call_ms", 1e3 * call_s, "ms")
    run.metric("train_calls", len(walls), "count")
    run.metric("val_macro_acc", history[-1].val_macro_acc, "ratio")
    run.metric("items_per_s", rate, "1/s")

    blobs = {model_io.serialize_model(r["params"]) for r in rounds}
    what = "untraced and traced" if run.tracer else f"{len(rounds)} seeded"
    run.check("train_deterministic", len(blobs) == 1, f"{what} train() calls, {len(blobs)} distinct model byte strings")
    val = world.eval_pairs["val"].pairs
    scored = evaluation.score_pairs(params, store, val)
    scores = [s.score for s in scored]
    run.check("scores_finite_unit", _finite_unit(scores), f"{len(scores)} val scores")
    _check_above_chance(run, scored)
    _check_batch_matches_verify(run, params, store, val, scores, 0.5)


# -- cold CLI calls (part of score_eval) ---------------------------------

SYNTH_ARTIFACTS = (
    "embeddings.csv", "pedigree.csv", "pairs_train.csv", "pairs_val.csv", "pairs_test.csv",
    "tri_train.csv", "tri_val.csv", "tri_test.csv",
)
_PATTERNS = {
    "verify": re.compile(r"score=(\S+)"),
    "tri-verify": re.compile(r"fused=(\S+)"),
    "predict-relation": re.compile(r"\(soft\): (\S+)"),
}
# Printed scores carry six decimals.
CLI_SCORE_ATOL = 5.0000001e-7


def _save_world(world, out: Path, run_config) -> None:
    """Write a world exactly as ``kinverify synth`` lays it out."""
    out.mkdir(parents=True, exist_ok=True)
    data.save_embeddings(world.store, out / "embeddings.csv")
    synth.save_pedigree(world.pedigree, out / "pedigree.csv")
    data.save_pairs(world.kin_pairs["train"], out / "pairs_train.csv")
    for split in ("val", "test"):
        data.save_pairs(world.eval_pairs[split], out / f"pairs_{split}.csv")
    for split in synth.SPLITS:
        data.save_tri(world.tris[split], out / f"tri_{split}.csv")
    config.write_manifest(out, "synth", run_config, [out / a for a in SYNTH_ARTIFACTS])


def _queries(world, params, model: Path, emb: Path, seed: int) -> list[tuple[list[str], float]]:
    """Seeded cold queries, one each of verify, tri-verify and predict-relation per round."""
    rng = random.Random(seed)
    store = world.store
    pairs, tris = world.eval_pairs["val"].pairs, world.tris["val"].samples
    common = ["--model", str(model), "--embeddings", str(emb)]
    out = []
    for kind in ("verify", "tri-verify", "predict-relation") * QUERY_SETS:
        if kind == "tri-verify":
            t = rng.choice(tris)
            argv = [kind, *common, "--father", t.father_id, "--mother", t.mother_id, "--child", t.child_id]
            expected = evaluation.tri_score(params, store, t)[2]
            out.append((argv, expected))
            continue
        p = rng.choice(pairs)
        f1, f2 = store.embedding(p.id1), store.embedding(p.id2)
        argv = [kind, *common, "--id1", p.id1, "--id2", p.id2]
        if kind == "verify":
            argv += ["--relation", p.relation.value]
            expected = comparator.verify(params, f1, f2, p.relation)[0]
        else:
            argv += ["--pooling", "soft"]
            expected = comparator.score_unknown(
                params, data.concat_features(f1, f2), comparator.PoolingMode.SOFT_ATTENTION
            )
        out.append((argv, expected))
    return out


def _cli(run: Run, argv: list[str], traced: bool):
    """One CLI subprocess; returns (completed process or None, wall seconds)."""
    if traced:
        spans_file = run.workdir / "child_spans.json"
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_file), *argv]
    else:
        cmd = [sys.executable, "-m", "kinverify.cli", *argv]
    with run.op_span("cli_call", traced) as rec:
        start = _now()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=run.env, cwd=ROOT,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        wall = _now() - start
    ok = proc is not None and proc.returncode == 0
    run.op(ok)
    problem = "timed out" if proc is None else proc.stderr.strip()[-300:]
    run.check("cli_exit_0", ok, argv[0] + ("" if ok else f": {problem}"))
    if traced and ok:
        run.tracer.adopt(json.loads(spans_file.read_text(encoding="utf-8")), rec, "cli")
    return (proc if ok else None), wall


# -- score_eval ----------------------------------------------------------


def score_eval(run: Run) -> None:
    world_dir, model_path = run.workdir / "world", run.workdir / "model.kinc"
    synth_flags, overrides = ["--seed", str(run.seed)], {"seed": run.seed}
    for key, value in SIZES[run.size].items():
        synth_flags += [_CLI_SIZE_FLAGS[key], str(value)]
        overrides[f"synth.{key}"] = value

    def build():
        world = synth.generate_world(run.synth_config())
        params = _short_model(world, run.seed)
        _save_world(world, world_dir, config.parse_config(None, overrides))
        model_io.save_model(params, model_path)
        pairs = tuple(p for split in synth.SPLITS for p in world.eval_pairs[split].pairs)
        tris = data.TriSet(tuple(t for split in synth.SPLITS for t in world.tris[split].samples))
        queries = _queries(world, params, model_path, world_dir / "embeddings.csv", run.seed)
        return world.store, params, pairs, tris, queries

    store, params, pairs, tris, queries = run.setup(build)
    reference = {a: config.sha256_file(world_dir / a) for a in SYNTH_ARTIFACTS}
    round_number = itertools.count()
    pairset = data.PairSet(pairs)
    modes = tuple(comparator.PoolingMode)
    n, n_tri = len(pairs), len(tris)
    next_pair = itertools.count()

    def verify_block(out, threshold, traced):
        """Closed loop of single-pair calls, one caller, pairs under their stated relation."""
        latencies = []
        for _ in range(VERIFY_BLOCK):
            i = next(next_pair) % n
            p = pairs[i]
            f1, f2 = store.embedding(p.id1), store.embedding(p.id2)
            with run.op_span("verify", traced):
                t0 = _now()
                s, _ = comparator.verify(params, f1, f2, p.relation, threshold)
                latencies.append(_now() - t0)
            out["verify_scores"].append((i, s))
            run.op()
        out["verify_blocks"].append(latencies)

    def cold_cli(out, traced):
        """(e) ``kinverify synth`` into a fresh directory, then three cold queries."""
        k = next(round_number)
        out_dir = run.workdir / f"synth_{k}"
        proc, out["synth_s"] = _cli(run, ["synth", "--out", str(out_dir), *synth_flags], traced)
        if proc is not None:
            manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
            run.check("synth_sha256_match", manifest["artifacts"] == reference,
                      f"{len(reference)} artifacts vs in-process generate_world + save")
        shutil.rmtree(out_dir, ignore_errors=True)
        first = 3 * k % len(queries)
        for argv, expected in queries[first:first + 3]:
            proc, wall = _cli(run, argv, traced)
            out["query_s"].append(wall)
            if proc is not None:
                found = _PATTERNS[argv[0]].search(proc.stdout)
                got = float(found.group(1)) if found else float("nan")
                run.check("cli_score_matches", abs(got - expected) <= CLI_SCORE_ATOL,
                          f"{argv[0]}: printed {got} vs in-process {expected:.9f}")

    def one_round(traced):
        out = {"unknown": {}, "b_s": {}, "verify_scores": [], "verify_blocks": [], "query_s": []}
        start = _now()
        with run.op_span("eval_batch", traced):
            t0 = _now()
            scored = evaluation.score_pairs(params, store, pairset)
            threshold, macro = evaluation.calibrate_threshold(scored)
            report = evaluation.accuracy_report(scored, threshold, include_auc=True)
            out["a_s"] = _now() - t0
        run.op()
        verify_block(out, threshold, traced)
        for mode in modes:
            with run.op_span("unknown_batch", traced):
                t0 = _now()
                features, _, _ = data.pairs_to_arrays(store, pairset, params.config.relations)
                out["unknown"][mode] = comparator.score_unknown(params, features, mode)
                out["b_s"][mode] = _now() - t0
            run.op()
            verify_block(out, threshold, traced)
        with run.op_span("tri_batch", traced):
            t0 = _now()
            out["tri"] = evaluation.score_tris(params, store, tris)
            out["c_s"] = _now() - t0
        run.op()
        verify_block(out, threshold, traced)
        cold_cli(out, traced)
        out.update(wall_s=_now() - start, scored=scored, macro=macro, report=report)
        return out

    # The first large batch of a process pays the page faults of its ~1.3 GB
    # forward trace; later batches reuse the allocator's memory. One untimed
    # batch first, so that every measured round does the same work.
    evaluation.score_pairs(params, store, pairset)
    rounds = run.measure(one_round, min_rounds=2)
    timed = rounds[:1] if run.tracer else rounds
    samples = run.samples
    samples["a_s"] = [r["a_s"] for r in timed]
    samples["b_s"] = [r["b_s"][m] for r in timed for m in modes]
    samples["c_s"] = [r["c_s"] for r in timed]
    blocks = [1e6 * np.array(blk) for r in timed for blk in r["verify_blocks"]]
    samples["verify_block_p50_us"] = [float(np.median(blk)) for blk in blocks]
    a = statistics.median(samples["a_s"])
    b = len(modes) * statistics.median(samples["b_s"])
    c = statistics.median(samples["c_s"])
    all_us = np.concatenate(blocks)
    p50 = float(np.median(all_us))
    run.metric("eval_pairs_per_s", n / a, "pairs/s")
    run.metric("unknown_pairs_per_s", len(modes) * n / b, "pairs/s")
    run.metric("tri_per_s", n_tri / c, "triples/s")
    run.metric("verify_p50_us", p50, "us")
    run.metric("verify_p99_us", float(np.percentile(all_us, 99)), "us")
    run.metric("verify_samples", all_us.size, "count")
    # A triple is two pair scorings.
    run.metric("items_per_s", (n + len(modes) * n + 2 * n_tri) / (a + b + c), "1/s")
    samples["synth_s"] = [r["synth_s"] for r in timed]
    samples["query_s"] = [q for r in timed for q in r["query_s"]]
    # A run holds only a few synth calls; their mean uses every one of them.
    run.metric("cli_synth_s", statistics.mean(samples["synth_s"]), "s")
    run.metric("cli_query_p50_ms", 1e3 * statistics.median(samples["query_s"]), "ms")
    run.metric("cli_query_samples", len(samples["query_s"]), "count")

    for r in rounds:
        scores = np.array([s.score for s in r["scored"]])
        run.metric("eval_macro_acc", r["macro"], "ratio")
        run.check("scores_finite_unit", _finite_unit(scores), f"{scores.size} batch scores")
        run.check("unknown_finite_unit", all(_finite_unit(v) for v in r["unknown"].values()),
                  f"{len(modes)} poolings x {n} pairs")
        z_f, z_m, fused, _ = r["tri"]
        run.check("tri_fused_is_mean", _finite_unit(fused) and np.array_equal(fused, (z_f + z_m) / 2.0),
                  f"{n_tri} triples")
        idx, vs = np.array(r["verify_scores"]).T
        diff = float(np.max(np.abs(vs - scores[idx.astype(np.intp)])))
        run.check("verify_equals_batch", diff <= SCORE_ATOL, f"max |diff| {diff:.3e} over {vs.size} calls")
        # The set-up model is barely trained; only a degenerate scorer stays at 0.5.
        run.check("macro_above_half", r["macro"] > 0.5, f"calibrated macro {r['macro']:.4f}")
        aucs = [row.auc for row in r["report"].rows if row.auc is not None]
        run.check("auc_in_unit", bool(aucs) and all(0.0 <= x <= 1.0 for x in aucs), f"{len(aucs)} relations")
    rng = random.Random(run.seed)
    z_f, z_m, fused, _ = rounds[0]["tri"]
    worst = 0.0
    for i in rng.sample(range(n_tri), min(20, n_tri)):
        f, m, u = evaluation.tri_score(params, store, tris.samples[i])
        worst = max(worst, abs(f - z_f[i]), abs(m - z_m[i]), abs(u - fused[i]))
    run.check("tri_score_equals_batch", worst <= SCORE_ATOL, f"max |diff| {worst:.3e}")


def peak_rss_mb() -> float:
    """Peak resident set of the benchmark process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {"train_default": train_default, "score_eval": score_eval}
