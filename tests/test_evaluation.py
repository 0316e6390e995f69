import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinverify.comparator import ComparatorConfig, forward, init_params
from kinverify.data import EmbeddingStore, KinPair, PairLabel, PairSet, PersonRef, pairs_to_arrays
from kinverify.evaluation import (
    Objective,
    ScoredPair,
    ScoredSet,
    Scorer,
    accuracy_report,
    auc,
    calibrate_per_relation,
    calibrate_threshold,
    histogram,
    score_pairs,
    score_tris,
    tri_score,
)
from kinverify.relations import CANONICAL_RELATION_CODES, Gender, KinshipRelation, relation_index
from kinverify.training import AblationCell, TrainConfig, ablation_run, default_ablation_grid, train

from oracles import auc_bruteforce, best_threshold_bruteforce, cosine_distances_whole_array


# Scored sets for the property tests: scores on a coarse lattice (so ties
# are common and an even grid of cuts visits every partition), a random
# subset of relations (so some are missing), mixed labels.
LATTICE = 9


@st.composite
def scored_sets(draw, min_size=2, max_size=120):
    n = draw(st.integers(min_size, max_size))
    relations = draw(st.lists(st.sampled_from(list(KinshipRelation)), min_size=1, max_size=11))
    rels = draw(st.lists(st.sampled_from(relations), min_size=n, max_size=n))
    scores = draw(st.lists(st.integers(0, LATTICE - 1), min_size=n, max_size=n))
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    labels[0], labels[-1] = True, False  # both classes present
    return [
        ScoredPair(KinPair("a", "b", r, PairLabel.KIN if k else PairLabel.NONKIN), float(s))
        for s, k, r in zip(scores, labels, rels)
    ]


def columns(scored):
    scores = np.array([s.score for s in scored])
    is_kin = np.array([s.pair.label is PairLabel.KIN for s in scored])
    return scores, is_kin, [s.pair.relation.value for s in scored]


def recount(scored, cut, objective):
    """Objective value at ``cut`` by direct per-pair counting."""
    scores, is_kin, rels = columns(scored)
    correct = (scores >= cut) == is_kin
    if objective is Objective.MICRO:
        return correct.mean()
    return np.mean([correct[[r == rel for r in rels]].mean() for rel in sorted(set(rels))])


def scored_from(kin_scores, non_scores, relation=KinshipRelation.BB):
    out = []
    for s in kin_scores:
        out.append(ScoredPair(KinPair("a", "b", relation, PairLabel.KIN), float(s)))
    for s in non_scores:
        out.append(ScoredPair(KinPair("a", "c", relation, PairLabel.NONKIN), float(s)))
    return out


def test_calibrate_separable_toy():
    scored = scored_from([0.9, 0.8], [0.2, 0.1])
    threshold, best = calibrate_threshold(scored, Objective.MICRO)
    assert best == 1.0
    assert threshold == pytest.approx(0.5)


def test_calibrate_degenerate_identical_scores():
    scored = scored_from([0.4, 0.4, 0.4], [0.4])
    threshold, best = calibrate_threshold(scored, Objective.MICRO)
    assert best == pytest.approx(0.75)  # majority-class prior
    assert threshold < 0.4  # sentinel below the single score, ties go to kin


def test_calibrate_single_class_rejected():
    with pytest.raises(ValueError):
        calibrate_threshold(scored_from([0.5], []))


@settings(max_examples=150, deadline=None)
@given(scored_sets(), st.sampled_from(list(Objective)))
def test_calibrate_beats_bruteforce_grid(scored, objective):
    # The brute force visits every partition of the scores, so it is the true optimum.
    scores, is_kin, rels = columns(scored)
    threshold, achieved = calibrate_threshold(scored, objective)
    brute = best_threshold_bruteforce(scores, is_kin, rels, objective.value)
    assert achieved == pytest.approx(brute, abs=1e-12)
    assert recount(scored, threshold, objective) == pytest.approx(achieved, abs=1e-12)


def test_accuracy_report_toy_and_order():
    scored = []
    for relation in (KinshipRelation.BB, KinshipRelation.FD, KinshipRelation.GMGS):
        scored += scored_from([0.9], [0.1], relation)
    report = accuracy_report(scored, threshold=0.5)
    assert report.macro_accuracy == 1.0
    assert [r.relation for r in report.rows] == ["BB", "FD", "GMGS"]  # canonical order
    assert set(report.missing) == {
        r.value for r in KinshipRelation
    } - {"BB", "FD", "GMGS"}
    assert all(r.count == 2 for r in report.rows)


def test_accuracy_report_names_relations_a_threshold_map_lacks():
    scored = []
    for relation in (KinshipRelation.BB, KinshipRelation.FD, KinshipRelation.GMGS):
        scored += scored_from([0.9], [0.1], relation)
    with pytest.raises(ValueError, match="no threshold for relation.s. FD, GMGS"):
        accuracy_report(scored, {"BB": 0.5})
    report = accuracy_report(scored, {"BB": 0.5, "FD": 0.5, "GMGS": 0.5, "SS": 0.5})
    assert report.macro_accuracy == 1.0  # a threshold for an absent relation is harmless


def test_accuracy_report_refuses_a_nan_threshold():
    scored = []
    for relation in (KinshipRelation.BB, KinshipRelation.FD, KinshipRelation.GMGS):
        scored += scored_from([0.9], [0.1], relation)
    nan = float("nan")
    with pytest.raises(ValueError, match="^NaN threshold$"):
        accuracy_report(scored, nan)
    with pytest.raises(ValueError, match="^NaN threshold for relation.s. FD, GMGS$"):
        accuracy_report(scored, {"BB": 0.5, "FD": nan, "GMGS": nan})
    # finite cuts outside [0, 1] stay legal: negated cosine distances need them
    assert accuracy_report(scored, -2.0).macro_accuracy == 0.5
    assert accuracy_report(scored, {"BB": 3.0, "FD": -3.0, "GMGS": 0.5}).macro_accuracy == 2 / 3


@settings(max_examples=100, deadline=None)
@given(
    scored_sets(),
    st.data(),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)
def test_consumers_refuse_a_non_finite_score(scored, data, bad):
    at = data.draw(st.sets(st.integers(0, len(scored) - 1), min_size=1))
    scored = [ScoredPair(s.pair, bad) if i in at else s for i, s in enumerate(scored)]
    as_set = ScoredSet(
        tuple(s.pair for s in scored),
        np.array([s.score for s in scored]),
        np.array([relation_index(s.pair.relation) for s in scored], dtype=np.intp),
        np.array([s.pair.label is PairLabel.KIN for s in scored]),
    )
    consumers = [
        lambda s: calibrate_threshold(s, Objective.MACRO),
        lambda s: calibrate_threshold(s, Objective.MICRO),
        calibrate_per_relation,
        auc,
        lambda s: histogram(s, 5, (0.0, float(LATTICE))),
        lambda s: accuracy_report(s, 0.5),
        lambda s: accuracy_report(s, {r.value: 0.5 for r in KinshipRelation}),
    ]
    for form in (scored, as_set):
        for consume in consumers:
            with pytest.raises(ValueError) as exc:
                consume(form)
            assert str(exc.value) == f"scored pair {min(at)} has a non-finite score {bad!r}"


@settings(max_examples=150, deadline=None)
@given(
    scored_sets(min_size=1),
    st.floats(-1.0, LATTICE),
    st.booleans(),
)
def test_accuracy_report_macro_is_mean_of_rows(scored, cut, per_relation):
    rng = np.random.default_rng(3)
    fixed = []
    for relation in KinshipRelation:
        kin = rng.random(5)
        non = rng.random(5)
        fixed += scored_from(kin, non, relation)
    report = accuracy_report(fixed, threshold=0.5)
    npt.assert_allclose(report.macro_accuracy, np.mean([r.accuracy for r in report.rows]))

    # every row equals a direct recount of its relation's pairs
    threshold = cut
    if per_relation:
        threshold = {r.value: cut + 0.5 * i for i, r in enumerate(KinshipRelation)}
    report = accuracy_report(scored, threshold, include_auc=True)
    present = [r for r in KinshipRelation if any(s.pair.relation is r for s in scored)]
    assert [row.relation for row in report.rows] == [r.value for r in present]
    assert report.missing == tuple(r.value for r in KinshipRelation if r not in present)
    for row in report.rows:
        mine = [s for s in scored if s.pair.relation.value == row.relation]
        rel_cut = threshold[row.relation] if per_relation else threshold
        hits = 0
        for s in mine:
            hits += (s.score >= rel_cut) == (s.pair.label is PairLabel.KIN)
        assert row.count == len(mine)
        assert row.accuracy == hits / len(mine)
        kin_scores = [s.score for s in mine if s.pair.label is PairLabel.KIN]
        non_scores = [s.score for s in mine if s.pair.label is PairLabel.NONKIN]
        if kin_scores and non_scores:
            assert row.auc == auc_bruteforce(kin_scores, non_scores)
        else:
            assert row.auc is None
    assert report.macro_accuracy == float(np.mean([r.accuracy for r in report.rows]))


def test_histogram_counts():
    scored = scored_from([0.1], [0.9, 0.9, 0.9])
    table = histogram(scored, n_bins=2, value_range=(0.0, 1.0))
    assert table.kin_counts.tolist() == [1, 0]
    assert table.nonkin_counts.tolist() == [0, 3]

    rng = np.random.default_rng(0)
    scored = scored_from(rng.random(137), rng.random(91))
    table = histogram(scored, n_bins=50, value_range=(0.0, 1.0))
    assert table.kin_counts.sum() == 137
    assert table.nonkin_counts.sum() == 91
    assert len(table.edges) == 51
    npt.assert_allclose(np.diff(table.edges), np.full(50, 1 / 50), atol=1e-15)


def test_histogram_rejects_bad_input():
    with pytest.raises(ValueError):
        histogram([], 5, (0.0, 1.0))
    with pytest.raises(ValueError):
        histogram(scored_from([0.5], [0.5]), 0, (0.0, 1.0))
    with pytest.raises(ValueError):
        histogram(scored_from([1.5], [0.5]), n_bins=5, value_range=(0.0, 1.0))
    for value_range in ((0.0, np.inf), (-np.inf, 1.0)):  # would give NaN edges and no counts
        with pytest.raises(ValueError, match="invalid range"):
            histogram(scored_from([0.9], [0.5]), 10, value_range)


def test_auc_toy_cases():
    assert auc(scored_from([0.9, 0.8], [0.2, 0.1])) == 1.0
    assert auc(scored_from([0.5, 0.5], [0.5, 0.5])) == 0.5
    assert auc(scored_from([0.1], [0.9])) == 0.0
    with pytest.raises(ValueError):
        auc(scored_from([0.5], []))


@settings(max_examples=150, deadline=None)
@given(scored_sets())
def test_auc_matches_bruteforce_exactly(scored):
    scores, is_kin, _ = columns(scored)
    assert auc(scored) == auc_bruteforce(scores[is_kin], scores[~is_kin])


def test_auc_monotone_invariance():
    rng = np.random.default_rng(9)
    kin = rng.random(40)
    non = rng.random(60)
    base = auc(scored_from(kin, non))
    transformed = auc(scored_from(np.exp(3 * kin), np.exp(3 * non)))
    assert base == transformed


def test_score_pairs_zero_params(tiny_world):
    world = tiny_world
    config = ComparatorConfig(input_dim=2 * world.store.dim, hidden=3)
    params = init_params(config, 0)
    for key in params.values:
        params.values[key][:] = 0.0
    scored = score_pairs(params, world.store, world.eval_pairs["val"])
    assert all(s.score == 0.5 for s in scored)

    # a pair whose relation the model has no expert for is rejected by name
    bb_only = init_params(ComparatorConfig(config.input_dim, hidden=3, relations=("BB",)), 0)
    fd = next(p for p in world.eval_pairs["val"] if p.relation is KinshipRelation.FD)
    with pytest.raises(ValueError, match="'FD'"):
        score_pairs(bb_only, world.store, [fd])


def test_score_pairs_cosine_self_pair():
    from kinverify.data import EmbeddingStore, PersonRef
    from kinverify.relations import Gender

    v = np.array([0.3, 0.4, 0.5])
    store = EmbeddingStore(
        [PersonRef("a", "f1", Gender.MALE), PersonRef("b", "f1", Gender.MALE)], np.stack([v, v])
    )
    pair = KinPair("a", "b", KinshipRelation.BB, PairLabel.KIN)
    scored = score_pairs(None, store, [pair], Scorer.COSINE)
    assert scored.scores[0] == pytest.approx(0.0, abs=1e-12)


def cosine_scores(vectors, index_pairs):
    """Cosine scores of ``score_pairs`` for pairs of rows of ``vectors``."""
    vectors = np.asarray(vectors, dtype=np.float64)
    store = EmbeddingStore(
        [PersonRef(f"p{i}", f"f{i}", Gender.MALE) for i in range(len(vectors))], vectors
    )
    pairs = [KinPair(f"p{i}", f"p{j}", KinshipRelation.BB, PairLabel.KIN) for i, j in index_pairs]
    return np.array([s.score for s in score_pairs(None, store, pairs, Scorer.COSINE)])


def test_score_pairs_cosine_basics():
    v = np.array([0.3, -1.2, 2.0])
    vectors = [v, 3.0 * v, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], np.zeros(3)]
    parallel, scaled, orthogonal = cosine_scores(vectors, [(0, 0), (0, 1), (2, 3)])
    assert parallel == pytest.approx(0.0, abs=1e-12)
    assert orthogonal == pytest.approx(1.0)
    assert scaled == pytest.approx(0.0, abs=1e-12)
    for zero_pair in [(4, 0), (0, 4)]:
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_scores(vectors, [(2, 3), zero_pair])


def test_score_pairs_cosine_properties():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((200, 6))
    b = rng.standard_normal((200, 6))
    vectors = np.concatenate([a, b, 1.7 * a])
    i = np.arange(200)
    d, swapped, scaled = (
        cosine_scores(vectors, zip(first, second))
        for first, second in [(i, 200 + i), (200 + i, i), (400 + i, 200 + i)]
    )
    assert np.all((d >= -1e-12) & (d <= 2.0 + 1e-12))
    npt.assert_allclose(swapped, d, atol=1e-12, rtol=0)
    npt.assert_allclose(scaled, d, atol=1e-10, rtol=0)


def _consumer_outcomes(scored):
    """repr of every consumer's result on ``scored``, or of the ValueError it raised.

    repr round-trips floats, so equal outcomes mean equal bits.
    """

    def run(fn, *args, **kwargs):
        try:
            return repr(fn(scored, *args, **kwargs))
        except ValueError as exc:
            return f"ValueError: {exc}"

    def histogram_counts(scored):
        table = histogram(scored, 7, (-1.0, float(LATTICE)))
        return table.edges.tolist(), table.kin_counts.tolist(), table.nonkin_counts.tolist()

    one_each = {code: i / 10 for i, code in enumerate(CANONICAL_RELATION_CODES)}
    out = [run(calibrate_threshold, objective) for objective in Objective]
    out += [run(calibrate_per_relation), run(auc), run(histogram_counts)]
    for threshold in (0.5, float(LATTICE // 2), one_each, {"BB": 0.5}):
        out += [run(accuracy_report, threshold, include_auc=a) for a in (False, True)]
    try:
        per_relation = calibrate_per_relation(scored)
    except ValueError:
        return out
    return out + [run(accuracy_report, per_relation, include_auc=a) for a in (False, True)]


@st.composite
def scored_set_cases(draw):
    """A model over a random subset of relations in a random expert order, and
    pairs of six persons under those relations with kin, nonkin or no label."""
    codes = tuple(draw(st.permutations(CANONICAL_RELATION_CODES))[: draw(st.integers(1, 11))])
    n = draw(st.integers(1, 60))
    pairs = tuple(
        KinPair(f"p{a}", f"p{b}", KinshipRelation(code), label)
        for a, b, code, label in zip(
            draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
            draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
            draw(st.lists(st.sampled_from(codes), min_size=n, max_size=n)),
            draw(st.lists(st.sampled_from([PairLabel.KIN, PairLabel.NONKIN, None]),
                          min_size=n, max_size=n)),
        )
    )
    lattice = draw(st.lists(st.integers(0, LATTICE - 1), min_size=n, max_size=n))
    return codes, pairs, np.array(lattice, dtype=np.float64), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(scored_set_cases())
def test_consumers_agree_on_a_scored_set_and_its_list(case):
    codes, pairs, lattice, seed = case
    rng = np.random.default_rng(seed)
    refs = [PersonRef(f"p{i}", f"f{i}", Gender.MALE) for i in range(6)]
    store = EmbeddingStore(refs, rng.standard_normal((6, 3)))
    params = init_params(ComparatorConfig(input_dim=6, hidden=3, relations=codes), seed)
    scored = score_pairs(params, store, PairSet(pairs))
    tied = ScoredSet(scored.pairs, lattice, scored.rel, scored.is_kin)  # ties on a lattice
    for scored_set in (scored, score_pairs(None, store, pairs, Scorer.COSINE), tied):
        assert _consumer_outcomes(scored_set) == _consumer_outcomes(list(scored_set))


def test_score_pairs_yields_the_scored_pair_objects_of_whole_array_scoring(tiny_world):
    world = tiny_world
    store, pairs = world.store, world.eval_pairs["val"]
    # a permuted expert order, so the columns must map it back to canonical
    config = ComparatorConfig(2 * store.dim, hidden=3, relations=CANONICAL_RELATION_CODES[::-1])
    params = init_params(config, 5)
    features, pos, _ = pairs_to_arrays(store, pairs, config.relations)
    expected = {
        Scorer.COMPARATOR: forward(params, features, mode="eval", positions=pos)[0],
        Scorer.COSINE: cosine_distances_whole_array(store, pairs),
    }
    for scorer, scores in expected.items():
        scored = score_pairs(params, store, pairs, scorer)
        assert scored.pairs is pairs.pairs
        assert list(scored) == [ScoredPair(p, float(s)) for p, s in zip(pairs, scores)]
        assert all(s.pair is p for s, p in zip(scored, pairs))
        assert scored.rel.tolist() == [relation_index(p.relation) for p in pairs]
        assert scored.is_kin.tolist() == [p.label is PairLabel.KIN for p in pairs]
    from_list = score_pairs(params, store, list(pairs))
    assert from_list.pairs == pairs.pairs and isinstance(from_list.pairs, tuple)


def test_scored_set_has_a_length_iteration_and_read_only_columns(tiny_world):
    world = tiny_world
    params = init_params(ComparatorConfig(input_dim=2 * world.store.dim, hidden=3), 2)
    scored = score_pairs(params, world.store, world.eval_pairs["val"])
    items = list(scored)
    assert scored and len(scored) == len(items) > 10
    assert items == [ScoredPair(p, float(x)) for p, x in zip(scored.pairs, scored.scores)]
    with pytest.raises(ValueError, match="read-only"):
        scored.scores[0] = 1.0
    empty = score_pairs(params, world.store, [])
    assert not empty and len(empty) == 0 and list(empty) == []
    assert scored != ScoredSet(scored.pairs, scored.scores, scored.rel, scored.is_kin)  # identity


def test_score_pairs_on_no_pairs(tiny_world):
    empty = score_pairs(None, tiny_world.store, [], Scorer.COSINE)
    assert empty.pairs == () and list(empty) == []
    columns = (empty.scores, empty.rel, empty.is_kin)
    assert [c.dtype for c in columns] == [np.float64, np.intp, bool]
    assert all(c.shape == (0,) for c in columns)
    with pytest.raises(ValueError, match="comparator scoring needs model parameters"):
        score_pairs(None, tiny_world.store, [])


def test_negating_cosine_columns_matches_negating_each_scored_pair(tiny_world):
    # README's recipe for calibrating and ranking lower-is-kin distances
    scored = score_pairs(None, tiny_world.store, tiny_world.eval_pairs["val"], Scorer.COSINE)
    negated = dataclasses.replace(scored, scores=-scored.scores)
    listed = [ScoredPair(s.pair, -s.score) for s in scored]
    for objective in Objective:
        assert calibrate_threshold(negated, objective) == calibrate_threshold(listed, objective)
    assert auc(negated) == auc(listed) > 0.5


# Frozen from the first verified run: seeded init params (seed 123) on the
# tiny world, first three val pairs.
GOLDEN_SCORES = [0.5027441391262828, 0.501096069140849, 0.4987757679615521]


def test_score_pairs_golden_values(tiny_world):
    world = tiny_world
    config = ComparatorConfig(input_dim=2 * world.store.dim, hidden=3)
    params = init_params(config, seed=123)
    scored = score_pairs(params, world.store, world.eval_pairs["val"].pairs[:3])
    npt.assert_allclose([s.score for s in scored], GOLDEN_SCORES, atol=1e-9)


def test_tri_score_is_exact_mean(tiny_world, monkeypatch):
    import kinverify.evaluation as evaluation

    world = tiny_world
    config = ComparatorConfig(input_dim=2 * world.store.dim, hidden=3)
    rng = np.random.default_rng(4)
    params = init_params(config, 1)
    for key in params.values:
        params.values[key] = params.values[key] + 0.3 * rng.standard_normal(
            params.values[key].shape
        )
    for sample in list(world.tris["val"])[:10]:
        z_fc, z_mc, fused = tri_score(params, world.store, sample)
        assert fused == (z_fc + z_mc) / 2.0
        assert fused == ((z_mc + z_fc) / 2.0)  # symmetric in the two scores

    calls = []
    cascade = evaluation._cascade

    def counting_cascade(*args, **kwargs):
        calls.append(args[1])  # the rows it runs on
        return cascade(*args, **kwargs)

    monkeypatch.setattr(evaluation, "_cascade", counting_cascade)
    z_fc, z_mc, fused, targets = score_tris(params, world.store, world.tris["val"])
    npt.assert_array_equal(fused, (z_fc + z_mc) / 2.0)
    n = len(world.tris["val"])
    assert calls == [2 * n]  # one stacked forward for both parents
    monkeypatch.undo()
    for i, sample in enumerate(world.tris["val"]):
        single = tri_score(params, world.store, sample)
        npt.assert_allclose(single, (z_fc[i], z_mc[i], fused[i]), rtol=0, atol=1e-12)
        # each parent's score is that parent-child pair scored on its own
        fc_rel, mc_rel = ("FS", "MS") if sample.child_gender is Gender.MALE else ("FD", "MD")
        fc = KinPair(sample.father_id, sample.child_id, KinshipRelation(fc_rel), sample.label)
        mc = KinPair(sample.mother_id, sample.child_id, KinshipRelation(mc_rel), sample.label)
        pair_scores = [s.score for s in score_pairs(params, world.store, [fc, mc])]
        npt.assert_allclose(pair_scores, (z_fc[i], z_mc[i]), rtol=0, atol=1e-12)


def test_tri_score_zero_params(tiny_world):
    world = tiny_world
    config = ComparatorConfig(input_dim=2 * world.store.dim, hidden=3)
    params = init_params(config, 0)
    for key in params.values:
        params.values[key][:] = 0.0
    sample = list(world.tris["val"])[0]
    z_fc, z_mc, fused = tri_score(params, world.store, sample)
    assert (z_fc, z_mc, fused) == (0.5, 0.5, 0.5)


def test_default_ablation_grid_shape():
    grid = default_ablation_grid()
    assert len(grid) == 13
    assert grid[:3] == (
        AblationCell("relu", 0.2, 192),
        AblationCell("prelu", 0.2, 192),
        AblationCell("tanh", 0.2, 192),
    )
    assert [c.dropout_p for c in grid[3:7]] == [0.0, 0.1, 0.3, 0.4]
    assert [c.hidden for c in grid[7:12]] == [64, 128, 256, 512, 1024]
    assert grid[12] == AblationCell("lrelu", 0.2, 192)


def test_ablation_single_cell_equals_plain_train(tiny_world):
    world = tiny_world
    tcfg = TrainConfig(epochs=1, batch_size=64, seed=5)
    cell = AblationCell("lrelu", 0.2, 4)
    results = ablation_run(
        world.store,
        world.kin_pairs["train"],
        world.eval_pairs["val"],
        train_config=tcfg,
        grid=(cell,),
    )
    config = ComparatorConfig(input_dim=2 * world.store.dim, hidden=4, dropout_p=0.2)
    params, history = train(
        world.store, world.kin_pairs["train"], world.eval_pairs["val"], config, tcfg
    )
    scored = score_pairs(params, world.store, world.eval_pairs["val"])
    _, expected = calibrate_threshold(scored, Objective.MACRO)
    assert results[0].accuracy == expected
    assert history[-1].val_macro_acc == expected  # the array validation path, bit for bit


def test_per_relation_thresholds_extension():
    # BB pairs separate around 0.5, FD pairs around 0.2: a single global
    # threshold cannot be perfect, per-relation thresholds can
    scored = scored_from([0.6, 0.7], [0.3, 0.4], KinshipRelation.BB)
    scored += scored_from([0.25, 0.3], [0.1, 0.15], KinshipRelation.FD)
    _, single_best = calibrate_threshold(scored, Objective.MACRO)
    per_rel = calibrate_per_relation(scored)
    assert set(per_rel) == {"BB", "FD"}
    report = accuracy_report(scored, per_rel)
    assert report.macro_accuracy == 1.0
    assert single_best < 1.0


def test_per_relation_thresholds_name_a_relation_without_nonkin():
    scored = scored_from([0.6, 0.7], [0.3, 0.4], KinshipRelation.BB)
    scored += scored_from([0.25, 0.3], [], KinshipRelation.FD)
    with pytest.raises(ValueError, match="^relation FD: calibration needs both kin and nonkin"):
        calibrate_per_relation(scored)
