import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinverify.data import PairLabel
from kinverify.evaluation import (
    Objective,
    ScoredPair,
    Scorer,
    calibrate_threshold,
    score_pairs,
)
from kinverify.relations import Gender, KinshipRelation
from kinverify.seeding import STREAM_GENDER_AXIS, derive_rng
from kinverify.synth import (
    SPLITS,
    PedigreeEntry,
    SynthConfig,
    _latent,
    expression_mask,
    generate_world,
    save_pedigree,
)

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


def test_latent_noise_free_founders():
    config = SynthConfig(noise_weight=0.0)
    axis, _ = axis_and_mask(config)
    noise = np.random.default_rng(0).standard_normal((3, config.identity_dims))
    unflipped = np.ones(config.dim)
    (m1, m2, f1), _ = _latent(noise, None, np.array([True, True, False]), axis, config, unflipped)
    np.testing.assert_allclose(m1, m2, atol=1e-15)
    np.testing.assert_allclose(m1, axis, atol=1e-15)
    np.testing.assert_allclose(np.dot(m1, f1), -1.0, atol=1e-12)  # antipodal: distance 2


def test_latent_unit_norm():
    config = SynthConfig()
    axis, mask = axis_and_mask(config)
    rng = np.random.default_rng(3)
    parents = rng.standard_normal((50, config.dim)) * 0.3
    noise = rng.standard_normal((50, config.identity_dims))
    vecs, _ = _latent(noise, parents, np.zeros(50, dtype=bool), axis, config, mask)
    for v in vecs:
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_latent_gender_gap_monte_carlo():
    # Unrelated founders: same-gender pairs must sit closer in cosine
    # distance than opposite-gender pairs (gender axis pulls them apart).
    config = SynthConfig()
    axis, mask = axis_and_mask(config)
    rng = np.random.default_rng(11)
    k = config.identity_dims
    males, _ = _latent(
        rng.standard_normal((80, k)), None, np.ones(80, dtype=bool), axis, config, mask
    )
    females, _ = _latent(
        rng.standard_normal((80, k)), None, np.zeros(80, dtype=bool), axis, config, mask
    )
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
        store = tiny_world.store
        for t in non:
            assert store.person(t.child_id).family_id != store.person(t.father_id).family_id
            assert store.person(t.child_id).gender is t.child_gender


def test_gender_bias_overlap_gap(default_world):
    # The headline phenomenon: at the best single threshold, kin and nonkin
    # cosine distances separate far worse for opposite-gender relations.
    world = default_world
    scored = score_pairs(None, world.store, world.eval_pairs["val"], Scorer.COSINE)
    opposite = {KinshipRelation.FD, KinshipRelation.MS, KinshipRelation.SIBS}
    same = {KinshipRelation.FS, KinshipRelation.MD, KinshipRelation.BB, KinshipRelation.SS}
    overlaps = {}
    for name, group in (("opposite", opposite), ("same", same)):
        subset = [ScoredPair(s.pair, -s.score) for s in scored if s.pair.relation in group]
        _, acc = calibrate_threshold(subset, Objective.MICRO)
        overlaps[name] = 1.0 - acc
    assert overlaps["opposite"] > overlaps["same"]


@pytest.mark.parametrize("field", ["person_id", "family_id", "father_id", "mother_id"])
def test_save_pedigree_rejects_separator_ids(field, tmp_path):
    ids = {"person_id": "c", "family_id": "f1", "father_id": "a", "mother_id": "b"}
    ids[field] = "a,b"
    path = tmp_path / "pedigree.csv"
    with pytest.raises(ValueError, match=re.escape(f"{field} 'a,b' contains a CSV field")):
        save_pedigree((PedigreeEntry(gender=Gender.MALE, **ids),), path)
    assert list(tmp_path.iterdir()) == []
    # a founder's missing parent ids are written as empty fields
    save_pedigree((PedigreeEntry("a", "f1", Gender.MALE),), path)
    assert path.read_text().splitlines()[1] == "a,f1,M,,"


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(dim=1)
    with pytest.raises(ValueError):
        SynthConfig(children_choices=(1,))
    with pytest.raises(ValueError):
        SynthConfig(heritability=-0.1)
    with pytest.raises(ValueError):
        SynthConfig(identity_dims=100)
    with pytest.raises(ValueError):
        SynthConfig(parent_blend="nope")
    nan = float("nan")
    for bad in ({"heritability": nan}, {"gender_weight": float("inf")},
                {"heritability": nan, "gender_weight": nan, "noise_weight": nan},
                {"founder_scale": nan}):
        with pytest.raises(ValueError):
            SynthConfig(**bad)


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
    from kinverify.data import EmbeddingStore, PersonRef, TriSample, _nonkin_tris

    # the only male child belongs to the kin triple's own family
    people = [
        ("f", "f1", Gender.MALE),
        ("m", "f1", Gender.FEMALE),
        ("c0", "f1", Gender.MALE),
        ("c1", "f2", Gender.FEMALE),
    ]
    store = EmbeddingStore([PersonRef(*person) for person in people], np.ones((len(people), 2)))
    pool = np.array([store.row("c0"), store.row("c1")])
    kin = [TriSample("f", "m", "c0", Gender.MALE, PairLabel.KIN)]
    with pytest.raises(ValueError, match="no cross-family child of gender M"):
        _nonkin_tris(kin, pool, np.array([store.row("c0")]), store, 0, 0)


# sha256 of TINY_SYNTH's store matrix bytes and of the eight files `kinverify synth`
# writes for it, recorded before synthesis moved to array passes.
PINNED_SYNTH_SHA256 = {
    "mean": {
        "matrix": "775d37c0d485df70a6a4a5379a4c2b69311aa4100aef259c889a92ff9f93ba0d",
        "embeddings.csv": "f2ddbfecd0a7ed6d89a28c3fea0577d2b85ac9b32fcca60ea6c7d5a73b86cfd4",
        "pedigree.csv": "5998e7d1844ce24dfa396e84b1e50efbe877ae19adb3a23356ac33b9a6ecb0f8",
        "pairs_train.csv": "1b314f86012a8fa96072e3cef030aa6b5862a4fc4295c0fd4bb12d73f7d4d316",
        "pairs_val.csv": "43ff830476923010528a955fdd8c7bb3a9e7ebc1f823e4fe7da575c8bcf710c5",
        "pairs_test.csv": "ce5773d9af992f5fb60b7ad574ddb4ae566fadb1541c3aad7860658541846279",
        "tri_train.csv": "31d2d125e21fecf0171769aa0ba39608e5e870f0d58d7c867d26837a386cb316",
        "tri_val.csv": "6dbb4d168ebeff7b9b19b621ce0de230e70ef4eb5a1e18ec116baa2cdc945677",
        "tri_test.csv": "d6c19e6ef490c7a9906ab674f121f5142d5ccb2ef1c9e7bb282d30ef7dc3dee8",
    },
    "convex": {
        "matrix": "b1c6a028aad702aead9782d8f89f99c2cfc7b3f6a66bd2ac4645284e266d4445",
        "embeddings.csv": "e8f68d596d2d010b9c1f66f809b82bd66175da1f128efb78b5e1ada8c7ed3d82",
        "pedigree.csv": "c1b0b3770411ded74a6659f8b97ffb657cc414b5aeb4acdaf6b9e847351bc77b",
        "pairs_train.csv": "8a7602bdc793aaa6c937ff9446719ead73b4ba381aade1a7c4f472378b7fe5ae",
        "pairs_val.csv": "1d3c5a0cffcfcaaf8cd10e80ca437c6383d59d2174b32507de96a64d30e50497",
        "pairs_test.csv": "b05eccc0902b21467c26f0f33039a6c18d65067780f129064c7bc806ea1c916a",
        "tri_train.csv": "dfe3eb20e9540006b67f9b010f314f501e7879d9258552d170919f82516d9874",
        "tri_val.csv": "7bcb347b00c453c0a1e38f60d0cad496030de493b0820810338578fee77d4b68",
        "tri_test.csv": "9ef1eb5e6483c031f7347c5ef57e8f730c64e08e1d1d5f61ef10ed6fbd2014f0",
    },
}


@pytest.mark.parametrize("blend", ["mean", "convex"])
def test_synthesis_bytes_are_pinned(blend, tmp_path):
    import hashlib
    import json
    from dataclasses import replace

    from kinverify.cli import main

    def sha256(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    pinned = PINNED_SYNTH_SHA256[blend]
    world = generate_world(replace(TINY_SYNTH, parent_blend=blend))
    assert sha256(world.store.matrix.tobytes()) == pinned["matrix"]

    config = tmp_path / "cfg.json"
    sections = ("dim", "identity_dims", "n_train_families", "n_val_families", "n_test_families")
    synth = {name: getattr(TINY_SYNTH, name) for name in sections}
    config.write_text(json.dumps({"seed": TINY_SYNTH.seed, "synth": {**synth, "parent_blend": blend}}))
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "world")]) == 0
    written = {p.name: sha256(p.read_bytes()) for p in (tmp_path / "world").glob("*.csv")}
    assert written == {name: digest for name, digest in pinned.items() if name != "matrix"}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 9).flatmap(lambda dim: st.tuples(st.just(dim), st.integers(1, dim))),
    st.integers(1, 5),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_latent_rows_match_one_person_at_a_time(dims, n, founders, masked, seed):
    from kinverify.synth import _latent
    from oracles import latent_scalar

    dim, k = dims
    config = SynthConfig(dim=dim, identity_dims=k, parent_blend="convex")
    axis, mask = axis_and_mask(config)
    mask = mask if masked else None  # the oracle's unflipped case is a mask of ones here
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n, k))
    parent_mean = None if founders else rng.standard_normal((n, dim))
    male = rng.integers(2, size=n).astype(bool)
    flips = np.ones(dim) if mask is None else mask
    vecs, identities = _latent(noise, parent_mean, male, axis, config, flips)
    for i in range(n):
        pm = None if founders else parent_mean[i]
        vec, identity = latent_scalar(male[i], noise[i], pm, axis, config, mask)
        assert vecs[i].tobytes() == vec.tobytes()
        assert identities[i].tobytes() == identity.tobytes()
