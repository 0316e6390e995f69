"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The expensive fixtures (default world, paper-default training) are
session-scoped and shared with the rest of the suite.
"""

import itertools
import time

import numpy as np
import pytest

from kinverify.comparator import (
    Activation,
    ComparatorConfig,
    PoolingMode,
    SharingMode,
    attention_forward,
    forward,
    init_params,
    score_unknown,
)
from kinverify.data import KinPair, PairLabel, pairs_to_arrays
from kinverify.evaluation import (
    Objective,
    ScoredPair,
    Scorer,
    _calibrate,
    auc,
    calibrate_threshold,
    histogram,
    score_pairs,
    score_tris,
)
from kinverify.model_io import deserialize_model, ModelFormatError, serialize_model
from kinverify.relations import KinshipRelation
from kinverify.training import (
    AblationCell,
    TrainConfig,
    ablation_run,
    backward,
    default_ablation_grid,
    gradcheck,
    train,
)

from oracles import auc_bruteforce, best_threshold_bruteforce, dense_forward_oracle

OPPOSITE = {KinshipRelation.FD, KinshipRelation.MS, KinshipRelation.SIBS}
SAME = {KinshipRelation.FS, KinshipRelation.MD, KinshipRelation.BB, KinshipRelation.SS}

_retrain_cache = {}


def check(name, condition, detail):
    print(f"[{'PASS' if condition else 'FAIL'}] {name}: {detail}")
    assert condition, f"{name}: {detail}"


def rand_params(config, seed, spread=0.4):
    rng = np.random.default_rng(seed)
    params = init_params(config, seed)
    for key in params.values:
        params.values[key] = params.values[key] + spread * rng.standard_normal(
            params.values[key].shape
        )
    return params


def retrained(default_world):
    """Second paper-default training run, timed, cached per session."""
    if "params" not in _retrain_cache:
        world = default_world
        config = ComparatorConfig(input_dim=2 * world.store.dim)
        start = time.time()
        params, history = train(
            world.store,
            world.kin_pairs["train"],
            world.eval_pairs["val"],
            config,
            TrainConfig(seed=4),
        )
        _retrain_cache["params"] = params
        _retrain_cache["history"] = history
        _retrain_cache["seconds"] = time.time() - start
    return _retrain_cache


def test_c01_gradient_correctness():
    start = time.time()
    worst = gradcheck(seed=0)
    elapsed = time.time() - start
    check(
        "C1 gradient correctness",
        worst < 1e-6 and elapsed < 1.0,
        f"max rel err {worst:.2e} (< 1e-6), all activations x sharing modes in {elapsed:.2f}s (< 1s)",
    )


def test_c02_forward_oracle_equivalence():
    rng = np.random.default_rng(2024)
    draws = 0
    worst = 0.0
    for activation, sharing in itertools.product(Activation, SharingMode):
        config = ComparatorConfig(
            input_dim=6,
            hidden=3,
            activation=activation,
            dropout_p=0.0,
            sharing=sharing,
            relations=("BB", "FD", "GMGS"),
        )
        for _ in range(10):
            params = rand_params(config, int(rng.integers(100_000)))
            fc = rng.standard_normal(6)
            z2, _ = forward(params, fc)
            worst = max(worst, float(np.max(np.abs(z2 - dense_forward_oracle(params, fc)))))
            draws += 1
    check(
        "C2 forward oracle",
        draws >= 100 and worst < 1e-12,
        f"{draws} random draws, max abs dev {worst:.2e} (< 1e-12)",
    )


def test_c03_cascade_locality():
    config = ComparatorConfig(
        input_dim=8, hidden=4, dropout_p=0.0, relations=("BB", "SIBS", "SS", "FD", "FS")
    )
    rng = np.random.default_rng(99)
    n_checked = 0
    for draw in range(10):
        params = rand_params(config, draw)
        features = rng.standard_normal((100, 8))
        base, _ = forward(params, features)
        j = int(rng.integers(5))

        bumped = params.copy()
        bumped.values[f"expert{j}.W2"] += 0.31
        bumped.values[f"expert{j}.b2"] += 0.17
        z, _ = forward(bumped, features)
        others_fixed = np.array_equal(np.delete(z, j, axis=1), np.delete(base, j, axis=1))
        selected_moved = np.all(z[:, j] != base[:, j])

        bumped = params.copy()
        bumped.values[f"expert{j}.W1"] += 0.23
        z, _ = forward(bumped, features)
        upstream_fixed = np.array_equal(z[:, :j], base[:, :j])

        # per-sample gradient zero structure, single-sample batches
        zero_ok = True
        for s in range(100):
            k = int(rng.integers(5))
            target = np.array([float(rng.integers(2))])
            _, trace = forward(params, features[s : s + 1], mode="train", positions=np.array([k]))
            grads = backward(trace, params, np.array([k]), target)
            for i in range(5):
                if i != k and not (
                    np.all(grads[f"expert{i}.W2"] == 0.0)
                    and np.all(grads[f"expert{i}.b2"] == 0.0)
                ):
                    zero_ok = False
                if i > k and not all(
                    np.all(grads[f"expert{i}.{part}"] == 0.0)
                    for part in ("W1", "b1", "W2", "b2")
                ):
                    zero_ok = False
            n_checked += 1
        assert others_fixed and selected_moved and upstream_fixed and zero_ok
    check(
        "C3 cascade locality",
        n_checked >= 1000,
        f"perturbation + gradient-zero structure exact on {n_checked} samples",
    )


def test_c04_calibration_optimality():
    rng = np.random.default_rng(11)
    relations = list(KinshipRelation)
    sets_checked = 0
    for _ in range(50):
        n = int(rng.integers(30, 250))
        scores = np.round(rng.random(n), 3)
        labels = rng.random(n) < rng.uniform(0.3, 0.7)
        if labels.all() or not labels.any():
            labels[:2] = [True, False]
        rels = [relations[i] for i in rng.integers(0, 11, n)]
        scored = [
            ScoredPair(KinPair("a", "b", r, PairLabel.KIN if k else PairLabel.NONKIN), float(s))
            for s, k, r in zip(scores, labels, rels)
        ]
        for objective in Objective:
            _, achieved = calibrate_threshold(scored, objective)
            brute = best_threshold_bruteforce(
                scores, labels, [r.value for r in rels], objective.value
            )
            assert abs(achieved - brute) <= 1e-12, (achieved, brute)
        sets_checked += 1
    check(
        "C4 calibration optimality",
        sets_checked == 50,
        "calibrated objective equals an every-cut brute force on 50 random sets",
    )


def test_c05_auc_oracle():
    rng = np.random.default_rng(12)
    worst_dev = 0.0
    for _ in range(25):
        n_kin = int(rng.integers(1, 100))
        n_non = int(rng.integers(1, 100))
        kin = np.round(rng.random(n_kin), 2)
        non = np.round(rng.random(n_non), 2)
        scored = [
            ScoredPair(KinPair("a", "b", KinshipRelation.BB, PairLabel.KIN), float(s))
            for s in kin
        ] + [
            ScoredPair(KinPair("a", "c", KinshipRelation.BB, PairLabel.NONKIN), float(s))
            for s in non
        ]
        fast = auc(scored)
        brute = auc_bruteforce(kin, non)
        worst_dev = max(worst_dev, abs(fast - brute))
        assert fast == brute
    check("C5 AUC oracle", worst_dev == 0.0, "midrank AUC equals brute-force pairwise count exactly")


def test_c06_gender_bias_reproduction(default_world, trained_default):
    world = default_world
    cosine = score_pairs(None, world.store, world.eval_pairs["val"], Scorer.COSINE)
    cos_opp = [s for s in cosine if s.pair.relation in OPPOSITE]
    cos_same = [s for s in cosine if s.pair.relation in SAME]
    overlap_opp = histogram(cos_opp, 50, (0.0, 2.0)).overlap()
    overlap_same = histogram(cos_same, 50, (0.0, 2.0)).overlap()

    cache = retrained(world)
    params = cache["params"]
    seconds = cache["seconds"]
    scored = score_pairs(params, world.store, world.eval_pairs["val"])
    net_auc = auc([s for s in scored if s.pair.relation in OPPOSITE])
    cos_auc = auc([ScoredPair(s.pair, -s.score) for s in cos_opp])
    margin = net_auc - cos_auc
    check(
        "C6 gender-bias reproduction",
        overlap_opp > overlap_same and margin >= 0.05 and seconds < 60.0,
        f"cosine overlap opp {overlap_opp:.3f} > same {overlap_same:.3f}; "
        f"comparator-vs-cosine AUC margin {margin:+.3f} (>= 0.05); "
        f"default training {seconds:.1f}s (< 60s)",
    )


def test_c07_end_to_end_training(default_world, trained_default):
    params_a, history = trained_default
    macro = history[-1].val_macro_acc
    cache = retrained(default_world)
    identical = serialize_model(params_a) == serialize_model(cache["params"])
    check(
        "C7 end-to-end training",
        macro >= 0.85 and identical,
        f"val macro accuracy {macro:.4f} (>= 0.85), two runs byte-identical: {identical}",
    )


def test_c08_tri_subject(default_world, trained_default):
    world = default_world
    params, _ = trained_default

    # exact-mean fusion on random parameters
    config = ComparatorConfig(input_dim=2 * world.store.dim, hidden=6)
    rand = rand_params(config, 5)
    z_fc, z_mc, fused, _ = score_tris(rand, world.store, world.tris["val"])
    exact = np.array_equal(fused, (z_fc + z_mc) / 2.0)

    z_fc, z_mc, fused, targets = score_tris(params, world.store, world.tris["val"])
    is_kin = targets == 1.0
    _, acc_f = _calibrate(z_fc, is_kin, None, Objective.MICRO)
    _, acc_m = _calibrate(z_mc, is_kin, None, Objective.MICRO)
    _, acc_fused = _calibrate(fused, is_kin, None, Objective.MICRO)
    ok = acc_fused >= max(acc_f, acc_m) - 0.02
    check(
        "C8 tri-subject fusion",
        exact and ok,
        f"fused == mean exactly; tri accuracy {acc_fused:.4f} vs best single "
        f"{max(acc_f, acc_m):.4f} (>= best - 0.02)",
    )


def test_c09_relation_prediction(default_world, trained_with_attention):
    world = default_world
    params = trained_with_attention
    val_kin = [p for p in world.eval_pairs["val"] if p.label is PairLabel.KIN]
    features, rel_idx, _ = pairs_to_arrays(world.store, val_kin, params.config.relations)
    top1 = float((attention_forward(params, features).argmax(axis=1) == rel_idx).mean())

    all_feats, _, targets = pairs_to_arrays(
        world.store, list(world.eval_pairs["val"].pairs), params.config.relations
    )
    def pool_auc(mode):
        z = score_unknown(params, all_feats, mode)
        scored = [
            ScoredPair(
                KinPair("a", "b", KinshipRelation.BB, PairLabel.KIN if t else PairLabel.NONKIN),
                float(s),
            )
            for s, t in zip(z, targets)
        ]
        return auc(scored)

    soft = pool_auc(PoolingMode.SOFT_ATTENTION)
    mean = pool_auc(PoolingMode.MEAN_POOL)
    check(
        "C9 relation prediction",
        top1 > 0.27 and soft > mean,
        f"attention top-1 {top1:.4f} (> 0.27 = 3x chance); "
        f"soft-attention AUC {soft:.4f} > mean-pool {mean:.4f}",
    )


def test_c10_serialization(trained_default):
    params, _ = trained_default
    blob = serialize_model(params)
    loaded = deserialize_model(blob)
    roundtrip = serialize_model(loaded) == blob and all(
        np.array_equal(loaded.values[k], params.values[k]) for k in params.values
    )

    rejected = 0
    corrupt = bytearray(blob)
    corrupt[:4] = b"ABCD"
    for bad in (bytes(corrupt), blob[: len(blob) // 2], blob + b"x"):
        try:
            deserialize_model(bad)
        except ModelFormatError:
            rejected += 1
    payload_flip = bytearray(blob)
    payload_flip[-12] ^= 0x55
    try:
        deserialize_model(bytes(payload_flip))
    except ModelFormatError:
        rejected += 1
    check(
        "C10 serialization",
        roundtrip and rejected == 4,
        f"round-trip bit-exact; {rejected}/4 corrupted variants rejected with no partial state",
    )


def test_c11_ablation_grid(reduced_world):
    world = reduced_world
    start = time.time()
    results = ablation_run(
        world.store,
        world.kin_pairs["train"],
        world.eval_pairs["val"],
        train_config=TrainConfig(seed=4, epochs=2),
    )
    elapsed = time.time() - start
    grid = default_ablation_grid()
    shape_ok = (
        len(results) == 13
        and [r.cell for r in results] == list(grid)
        and all(0.0 <= r.accuracy <= 1.0 for r in results)
    )
    check(
        "C11 ablation grid",
        shape_ok and elapsed < 600.0,
        f"13-row activation/dropout/hidden grid on reduced fixture in {elapsed:.0f}s (< 600s)",
    )


def test_hidden_size_trend(default_world):
    # narrow hidden layer loses badly to the default-family sizes
    world = default_world
    results = ablation_run(
        world.store,
        world.kin_pairs["train"],
        world.eval_pairs["val"],
        train_config=TrainConfig(seed=4),
        grid=(AblationCell("lrelu", 0.2, 8), AblationCell("lrelu", 0.2, 64)),
    )
    gap = results[1].accuracy - results[0].accuracy
    assert gap > 0.02, f"hidden=64 should beat hidden=8 by > 2 points, got {gap:.4f}"


def test_verify_fixture_fd_pair(default_world, trained_default):
    # a held-out kin FD pair from the fixture world verifies as kin at the
    # calibrated threshold
    from kinverify.comparator import verify

    world = default_world
    params, _ = trained_default
    scored = score_pairs(params, world.store, world.eval_pairs["val"])
    threshold, _ = calibrate_threshold(scored, Objective.MACRO)
    pair = next(
        p
        for p in world.eval_pairs["val"]
        if p.relation is KinshipRelation.FD and p.label is PairLabel.KIN
    )
    score, decision = verify(
        params,
        world.store.embedding(pair.id1),
        world.store.embedding(pair.id2),
        pair.relation,
        threshold,
    )
    assert decision is PairLabel.KIN and score >= threshold


def test_comparator_z_overlap_smaller_than_cosine(default_world, trained_default):
    # parent-daughter histograms: the trained comparator separates kin from
    # nonkin more cleanly than raw cosine distance
    world = default_world
    params, _ = trained_default
    group = {KinshipRelation.FD, KinshipRelation.MD}
    pairs = [p for p in world.eval_pairs["val"] if p.relation in group]
    z_scored = score_pairs(params, world.store, pairs)
    cos_scored = score_pairs(None, world.store, pairs, Scorer.COSINE)
    z_overlap = histogram(z_scored, 50, (0.0, 1.0)).overlap()
    cos_overlap = histogram(cos_scored, 50, (0.0, 2.0)).overlap()
    assert z_overlap < cos_overlap
