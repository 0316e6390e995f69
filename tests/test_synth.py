import numpy as np
import pytest

from kinverify.data import PairLabel
from kinverify.evaluation import (
    Direction,
    Objective,
    Scorer,
    calibrate_threshold,
    filter_relations,
    score_pairs,
)
from kinverify.relations import Gender, KinshipRelation
from kinverify.seeding import STREAM_GENDER_AXIS, derive_rng
from kinverify.synth import SPLITS, SynthConfig, expression_mask, generate_world, make_person

from conftest import TINY_SYNTH

# Exact kin-pair counts of the default train split, recorded from the
# frozen default seed. Parent-child relations stay comfortably above 500.
DEFAULT_TRAIN_KIN_COUNTS = {
    "BB": 1029,
    "SIBS": 1994,
    "SS": 994,
    "FD": 1556,
    "FS": 1583,
    "MD": 1556,
    "MS": 1583,
    "GFGD": 1556,
    "GFGS": 1583,
    "GMGD": 1556,
    "GMGS": 1583,
}


def axis_and_mask(config):
    rng = derive_rng(config.seed, STREAM_GENDER_AXIS)
    axis = rng.standard_normal(config.dim)
    axis /= np.linalg.norm(axis)
    return axis, expression_mask(config, rng)


def test_make_person_noise_free_founders():
    config = SynthConfig(noise_weight=0.0)
    axis, _ = axis_and_mask(config)
    rng = np.random.default_rng(0)
    m1 = make_person(Gender.MALE, None, axis, config, rng)
    m2 = make_person(Gender.MALE, None, axis, config, rng)
    f1 = make_person(Gender.FEMALE, None, axis, config, rng)
    np.testing.assert_allclose(m1, m2, atol=1e-15)
    np.testing.assert_allclose(m1, axis, atol=1e-15)
    np.testing.assert_allclose(np.dot(m1, f1), -1.0, atol=1e-12)  # antipodal: distance 2


def test_make_person_unit_norm():
    config = SynthConfig()
    axis, mask = axis_and_mask(config)
    rng = np.random.default_rng(3)
    for _ in range(50):
        parent = rng.standard_normal(config.dim) * 0.3
        v = make_person(Gender.FEMALE, parent, axis, config, rng, mask)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_make_person_gender_gap_monte_carlo():
    # Unrelated founders: same-gender pairs must sit closer in cosine
    # distance than opposite-gender pairs (gender axis pulls them apart).
    config = SynthConfig()
    axis, mask = axis_and_mask(config)
    rng = np.random.default_rng(11)
    males = [make_person(Gender.MALE, None, axis, config, rng, mask) for _ in range(80)]
    females = [make_person(Gender.FEMALE, None, axis, config, rng, mask) for _ in range(80)]
    same, opposite = [], []
    for i in range(40):
        same.append(1.0 - np.dot(males[2 * i], males[2 * i + 1]))
        same.append(1.0 - np.dot(females[2 * i], females[2 * i + 1]))
        opposite.append(1.0 - np.dot(males[i], females[i]))
        opposite.append(1.0 - np.dot(males[40 + i], females[40 + i]))
    assert len(same) + len(opposite) >= 1000 / 8  # 160 sampled pairs of each kind
    assert np.mean(same) < np.mean(opposite)


def test_world_determinism(tmp_path):
    w1 = generate_world(TINY_SYNTH)
    w2 = generate_world(TINY_SYNTH)
    np.testing.assert_array_equal(w1.store.matrix, w2.store.matrix)
    assert w1.kin_pairs["train"].pairs == w2.kin_pairs["train"].pairs
    assert w1.eval_pairs["val"].pairs == w2.eval_pairs["val"].pairs
    assert w1.tris["test"].samples == w2.tris["test"].samples

    from kinverify.data import save_embeddings

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_embeddings(w1.store, p1)
    save_embeddings(w2.store, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_world_covers_all_relations(tiny_world):
    for split in SPLITS:
        present = {p.relation for p in tiny_world.kin_pairs[split]}
        assert present == set(KinshipRelation)


def test_default_train_kin_counts(default_world):
    from collections import Counter

    counts = Counter(p.relation.value for p in default_world.kin_pairs["train"])
    assert dict(counts) == DEFAULT_TRAIN_KIN_COUNTS
    for code in ("FS", "FD", "MS", "MD"):
        assert counts[code] >= 500


def test_single_family_pedigree_inventory():
    # One family whose two children are one boy and one girl: exactly one
    # kin pair per sibling/parent-child relation and the four grandparent
    # relations through those children.
    config = SynthConfig(
        dim=8,
        identity_dims=4,
        n_train_families=1,
        n_val_families=1,
        n_test_families=1,
        children_choices=(2,),
        seed=0,
    )
    world = generate_world(config)
    children = [p for p in world.pedigree if p.person_id.startswith("train") and p.father_id]
    genders = sorted(
        p.gender.value for p in children if p.person_id.split("_")[-1].startswith("c")
    )
    assert genders == ["F", "M"], "seed chosen so the two children are one boy, one girl"
    from collections import Counter

    counts = Counter(p.relation.value for p in world.kin_pairs["train"])
    assert counts == {
        "SIBS": 1,
        "FS": 1,
        "FD": 1,
        "MS": 1,
        "MD": 1,
        "GFGS": 1,
        "GFGD": 1,
        "GMGS": 1,
        "GMGD": 1,
    }


def test_kin_pairs_satisfy_pedigree(tiny_world):
    world = tiny_world
    parents = {e.person_id: (e.father_id, e.mother_id) for e in world.pedigree}
    gender = {e.person_id: e.gender for e in world.pedigree}

    def role_ok(pair):
        f1, m1 = parents[pair.id1]
        f2, m2 = parents[pair.id2]
        rel = pair.relation.value
        if rel in ("BB", "SS", "SIBS"):
            return (f2, m2) == (f1, m1) and f1 is not None
        if rel in ("FS", "FD", "MS", "MD"):
            return pair.id1 in (f2, m2)
        # grandparent: id1 is a parent of one of id2's parents
        grand = []
        for p in (f2, m2):
            if p is not None and p in parents:
                grand.extend(x for x in parents[p] if x is not None)
        return pair.id1 in grand

    for split in SPLITS:
        for pair in world.kin_pairs[split]:
            assert role_ok(pair), f"{pair} violates pedigree"
            from kinverify.relations import genders_match

            assert genders_match(pair.relation, gender[pair.id1], gender[pair.id2])


def test_tri_sets_shape(tiny_world):
    for split in SPLITS:
        tris = tiny_world.tris[split]
        kin = [t for t in tris if t.label is PairLabel.KIN]
        non = [t for t in tris if t.label is PairLabel.NONKIN]
        assert len(kin) == len(non)
        fams = tiny_world.store.family_of
        for t in non:
            assert fams(t.child_id) != fams(t.father_id)
            assert tiny_world.store.person(t.child_id).gender is t.child_gender


def test_gender_bias_overlap_gap(default_world):
    # The headline phenomenon: at the best single threshold, kin and nonkin
    # cosine distances separate far worse for opposite-gender relations.
    world = default_world
    scored = score_pairs(None, world.store, world.eval_pairs["val"], Scorer.COSINE)
    opposite = {KinshipRelation.FD, KinshipRelation.MS, KinshipRelation.SIBS}
    same = {KinshipRelation.FS, KinshipRelation.MD, KinshipRelation.BB, KinshipRelation.SS}
    overlaps = {}
    for name, group in (("opposite", opposite), ("same", same)):
        subset = filter_relations(scored, group)
        _, acc = calibrate_threshold(subset, Objective.MICRO, Direction.LOWER_IS_KIN)
        overlaps[name] = 1.0 - acc
    assert overlaps["opposite"] > overlaps["same"]


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(dim=1).validate()
    with pytest.raises(ValueError):
        SynthConfig(children_choices=(1,)).validate()
    with pytest.raises(ValueError):
        SynthConfig(heritability=-0.1).validate()
    with pytest.raises(ValueError):
        SynthConfig(identity_dims=100).validate()
    with pytest.raises(ValueError):
        SynthConfig(parent_blend="nope").validate()


def test_convex_blend_mode():
    config = SynthConfig(
        dim=8,
        identity_dims=4,
        n_train_families=2,
        n_val_families=1,
        n_test_families=1,
        parent_blend="convex",
        seed=9,
    )
    world = generate_world(config)
    assert len(world.store) > 0


@pytest.mark.parametrize("seed", [4, 1])
def test_nonkin_tris_match_per_triple_draw(seed):
    from dataclasses import replace

    from oracles import nonkin_tris_loop

    world = generate_world(replace(TINY_SYNTH, seed=seed))
    children = [e.person_id for e in world.pedigree if e.person_id.split("_")[-1].startswith("c")]
    for index, split in enumerate(SPLITS):
        samples = world.tris[split].samples
        kin = [t for t in samples if t.label is PairLabel.KIN]
        assert len(samples) == 2 * len(kin)
        assert list(samples[len(kin) :]) == nonkin_tris_loop(kin, children, world.store, seed, index)


def test_nonkin_tris_without_cross_family_child():
    from kinverify.data import EmbeddingStore, PersonRef, TriSample
    from kinverify.synth import _with_nonkin_tris

    # the only male child belongs to the kin triple's own family
    people = [
        ("f", "f1", Gender.MALE),
        ("m", "f1", Gender.FEMALE),
        ("c0", "f1", Gender.MALE),
        ("c1", "f2", Gender.FEMALE),
    ]
    store = EmbeddingStore(2, [(PersonRef(p, fam, g), np.ones(2)) for p, fam, g in people])
    children = {"train": ["c0", "c1"], "val": [], "test": []}
    kin = [TriSample("f", "m", "c0", Gender.MALE, PairLabel.KIN)]
    with pytest.raises(ValueError, match="no cross-family child of gender M"):
        _with_nonkin_tris(kin, children, store, 0, "train")
