import dataclasses
import itertools
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinverify.data import (
    DataFormatError,
    EmbeddingStore,
    KinPair,
    PairLabel,
    PairSet,
    PersonRef,
    augment_symmetric,
    concat_features,
    load_embeddings,
    load_pairs,
    load_tri,
    resample_nonkin,
    save_embeddings,
    save_pairs,
    save_tri,
    TriSample,
    TriSet,
    _nonkin_draw,
    _pair_rows,
)
from kinverify.relations import RELATION_ORDER, Gender, KinshipRelation, relation_index

from oracles import augment_symmetric_loop, pair_rows_loop, resample_nonkin_loop


def small_store():
    refs = [
        PersonRef("a", "f1", Gender.MALE),
        PersonRef("b", "f1", Gender.FEMALE),
        PersonRef("c", "f2", Gender.FEMALE),
        PersonRef("d", "f2", Gender.MALE),
        PersonRef("e", "f3", Gender.FEMALE),
    ]
    matrix = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.25, 0.1, 0.3, 1.0],
        ]
    )
    return EmbeddingStore(refs, matrix)


def test_concat_features():
    out = concat_features(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert out.tolist() == [1.0, 2.0, 3.0, 4.0]
    zeros = concat_features(np.array([1.0, 2.0]), np.zeros(2))
    assert zeros[2:].tolist() == [0.0, 0.0]
    with pytest.raises(ValueError):
        concat_features(np.ones(3), np.ones(2))


def test_concat_length_for_default_dim():
    f = np.ones(512)
    assert concat_features(f, f).shape == (1024,)


def test_embeddings_roundtrip_byte_identical(tmp_path):
    store = small_store()
    p1 = tmp_path / "emb.csv"
    p2 = tmp_path / "emb2.csv"
    save_embeddings(store, p1)
    loaded = load_embeddings(p1)
    assert len(loaded) == 5 and loaded.dim == 4
    npt.assert_array_equal(loaded.matrix, store.matrix)
    save_embeddings(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


# A comma splits CSV fields; the rest split lines for str.splitlines.
SEPARATORS = ",\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
chars = st.one_of(
    st.sampled_from(list(SEPARATORS) + list('" ;\t\ufeffé')),
    st.characters(exclude_categories=("Cs",)),
)
clean_ids = st.text(st.characters(exclude_categories=("Cs",), exclude_characters=SEPARATORS))
edge_floats = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def stores(draw):
    dim = draw(st.integers(1, 4))
    pids = draw(st.lists(clean_ids, max_size=6, unique=True))
    refs = [
        PersonRef(pid, draw(clean_ids.filter(bool)), draw(st.sampled_from(list(Gender))))
        for pid in pids
    ]
    values = draw(st.lists(edge_floats, min_size=dim * len(pids), max_size=dim * len(pids)))
    return EmbeddingStore(refs, np.array(values).reshape(len(pids), dim))


@settings(max_examples=150, deadline=None)
@given(stores())
def test_embeddings_roundtrip_property(store):
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        save_embeddings(store, p1)
        loaded = load_embeddings(p1)
        save_embeddings(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
    assert loaded.person_ids == store.person_ids
    # bit patterns, so that -0.0 and subnormals count
    assert loaded.matrix.tobytes() == store.matrix.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.text(chars), st.sampled_from(SEPARATORS), st.text(chars), st.booleans())
def test_store_rejects_separator_ids(head, sep, tail, as_family):
    bad = head + sep + tail
    ref = PersonRef("p", bad, Gender.MALE) if as_family else PersonRef(bad, "f", Gender.MALE)
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        EmbeddingStore([ref], np.zeros((1, 1)))


adversarial_ids = st.text(
    st.one_of(
        st.sampled_from(list('" ;\t\ufeffé')),
        st.characters(exclude_categories=("Cs",), exclude_characters=SEPARATORS),
    )
)


@st.composite
def labeled_sets(draw):
    """A store with adversarial ids, and valid pairs and triples over it."""
    pids = draw(st.lists(adversarial_ids, min_size=3, max_size=8, unique=True))
    families = draw(st.lists(adversarial_ids.filter(bool), min_size=2, max_size=2, unique=True))
    refs = [
        PersonRef(pid, draw(st.sampled_from(families)), draw(st.sampled_from(list(Gender))))
        for pid in pids
    ]
    store = EmbeddingStore(refs, np.zeros((len(refs), 1)))

    def label(a, b):
        return PairLabel.KIN if a.family_id == b.family_id else PairLabel.NONKIN

    sibs = KinshipRelation.SIBS
    sibling = {
        (Gender.MALE, Gender.MALE): KinshipRelation.BB,
        (Gender.FEMALE, Gender.FEMALE): KinshipRelation.SS,
    }
    pairs = [
        KinPair(a.person_id, b.person_id, sibling.get((a.gender, b.gender), sibs), label(a, b))
        for a, b in draw(st.lists(st.permutations(refs).map(lambda r: r[:2]), max_size=6))
    ]
    tris = [
        TriSample(f.person_id, m.person_id, c.person_id, c.gender, label(f, c))
        for f in refs
        for m in refs
        for c in refs
        if f.gender is Gender.MALE
        and m.gender is Gender.FEMALE
        and f.family_id == m.family_id
        and c not in (f, m)
    ]
    drawn = draw(st.lists(st.sampled_from(tris), max_size=6)) if tris else []
    return store, PairSet(tuple(pairs)), TriSet(tuple(drawn))


@settings(max_examples=150, deadline=None)
@given(labeled_sets())
def test_pairs_and_tri_roundtrip_property(case):
    store, pairs, tris = case
    with tempfile.TemporaryDirectory() as tmp:
        pair_path, tri_path = Path(tmp) / "pairs.csv", Path(tmp) / "tri.csv"
        save_pairs(pairs, pair_path)
        save_tri(tris, tri_path)
        assert load_pairs(pair_path, store).pairs == pairs.pairs
        assert load_tri(tri_path, store).samples == tris.samples


# one valid file of each format over one store
VALID_CSVS = {
    "emb": "person_id,family_id,gender,f0,f1\n"
    "a,f1,M,0.5,-1.25\nb,f1,F,1e-300,-0.0\nc,f1,M,3.0,2.0\nd,f2,F,7.5,0.0\n",
    "pairs": "id1,id2,relation,label\na,b,FD,kin\nb,c,MS,kin\na,d,FD,nonkin\n",
    "tri": "father_id,mother_id,child_id,label\na,b,c,kin\n",
}
edits = st.tuples(
    st.sampled_from(["change", "delete", "insert"]),
    st.integers(0, 200),
    st.sampled_from(list(b",\n\r-.e0")) | st.integers(0, 255),
)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(VALID_CSVS)), st.lists(edits, min_size=1, max_size=4))
def test_mutated_csv_loads_or_fails_as_format_error_naming_the_path(kind, changes):
    data = bytearray(VALID_CSVS[kind].encode())
    for op, at, byte in changes:
        if op == "insert":
            data.insert(at % (len(data) + 1), byte)
        elif data:
            if op == "delete":
                del data[at % len(data)]
            else:
                data[at % len(data)] = byte
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "emb.csv"
        store.write_text(VALID_CSVS["emb"])
        path = Path(tmp) / f"{kind}.csv"
        path.write_bytes(bytes(data))
        load = {"emb": load_embeddings, "pairs": load_pairs, "tri": load_tri}[kind]
        try:
            load(path) if kind == "emb" else load(path, load_embeddings(store))
        except DataFormatError as exc:
            assert str(path) in str(exc)


@settings(max_examples=150, deadline=None)
@given(st.text(chars), st.sampled_from(SEPARATORS), st.text(chars), st.integers(0, 4))
def test_pair_and_tri_writers_reject_separator_ids(head, sep, tail, slot):
    bad = head + sep + tail
    ids = ["a", "b", "c"]
    if slot < 2:
        ids[slot] = bad
        rows = PairSet((KinPair(ids[0], ids[1], KinshipRelation.BB, PairLabel.KIN),))
        save = save_pairs
    else:
        ids[slot - 2] = bad
        rows = TriSet((TriSample(*ids, Gender.MALE, PairLabel.KIN),))
        save = save_tri
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        path.write_bytes(b"old")
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            save(rows, path)
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp) == ["out.csv"]


def test_tri_writer_rejects_unlabeled_triple(tmp_path):
    rows = TriSet(
        (
            TriSample("f", "m", "c", Gender.MALE, PairLabel.KIN),
            TriSample("f2", "m2", "c2", Gender.FEMALE, None),
        )
    )
    path = tmp_path / "out.csv"
    path.write_bytes(b"old")
    with pytest.raises(ValueError, match=re.escape("('f2', 'm2', 'c2') has no label")):
        save_tri(rows, path)
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_pair_writer_rejects_unlabeled_pair(tmp_path):
    rows = PairSet(
        (
            KinPair("a", "b", KinshipRelation.FD, PairLabel.KIN),
            KinPair("c", "d", KinshipRelation.MS, None),
        )
    )
    path = tmp_path / "out.csv"
    path.write_bytes(b"old")
    with pytest.raises(ValueError, match=re.escape("pair ('c', 'd') has no label")):
        save_pairs(rows, path)
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_writers_without_round_trip_write_pinned_bytes(tmp_path, monkeypatch):
    from kinverify import cli
    from kinverify.comparator import ComparatorConfig, init_params
    from kinverify.evaluation import EvaluationReport, HistogramTable, ReportRow
    from kinverify.synth import PedigreeEntry, save_pedigree
    from kinverify.training import AblationCell, AblationResult, EpochStats, save_ablation_csv

    third = 1.0 / 3.0
    report = EvaluationReport(
        (ReportRow("BB", third, 3), ReportRow("FD", 1.0, 2, auc=0.5)), 0.6666666666666666, 0.5
    )
    report.save_csv(tmp_path / "report.csv")
    HistogramTable(np.linspace(0.0, 0.3, 4), np.array([1, 0, 2]), np.array([0, 5, 1])).save_csv(
        tmp_path / "hist.csv"
    )
    cells = [
        AblationResult(AblationCell("relu", 0.2, 192), third),
        AblationResult(AblationCell("lrelu", 0.0, 64), 1.0),
    ]
    save_ablation_csv(cells, tmp_path / "ablation.csv")
    pedigree = (
        PedigreeEntry("p", "fam", Gender.MALE),
        PedigreeEntry("c", "fam", Gender.FEMALE, father_id="p", mother_id="m"),
    )
    save_pedigree(pedigree, tmp_path / "pedigree.csv")
    # history.csv is written by the train command; its training is replaced by a fixed history
    world = tmp_path / "world"
    world.mkdir()
    save_embeddings(small_store(), world / "embeddings.csv")
    for split in ("train", "val"):
        save_pairs(PairSet(()), world / f"pairs_{split}.csv")
    history = [EpochStats(1, 0.001, 0.7, third), EpochStats(2, 0.0005, 0.25, 0.5)]
    params = init_params(ComparatorConfig(input_dim=8, hidden=2), 0)
    monkeypatch.setattr(cli, "train", lambda *args: (params, history))
    assert cli.main(["train", "--data", str(world), "--out", str(tmp_path / "run")]) == 0

    expected = {
        "report.csv": "relation,accuracy,count\nBB,0.3333333333333333,3\nFD,1.0,2\n"
        "macro,0.6666666666666666,5\n",
        "hist.csv": "bin_lo,bin_hi,kin,nonkin\n0.0,0.09999999999999999,1,0\n"
        "0.09999999999999999,0.19999999999999998,0,5\n0.19999999999999998,0.3,2,1\n",
        "ablation.csv": "activation,dropout,hidden,accuracy\nrelu,0.2,192,0.3333333333333333\n"
        "lrelu,0.0,64,1.0\n",
        "pedigree.csv": "person_id,family_id,gender,father_id,mother_id\np,fam,M,,\nc,fam,F,p,m\n",
        "run/history.csv": "epoch,lr,train_loss,val_macro_acc\n1,0.001,0.7,0.3333333333333333\n"
        "2,0.0005,0.25,0.5\n",
    }
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name


def test_failed_write_leaves_old_file_intact(tmp_path, monkeypatch, tiny_world):
    from kinverify.config import RunConfig, write_manifest
    from kinverify.evaluation import Scorer, accuracy_report, histogram, score_pairs
    from kinverify.synth import save_pedigree
    from kinverify.training import AblationCell, AblationResult, save_ablation_csv

    def failing_fsync(fd):
        raise OSError("disk full")

    world = tiny_world
    scored = score_pairs(None, world.store, world.eval_pairs["val"], Scorer.COSINE)
    writers = {
        "report.csv": lambda p: accuracy_report(scored, 1.0).save_csv(p),
        "hist.csv": lambda p: histogram(scored, 5, (0.0, 2.0)).save_csv(p),
        "emb.csv": lambda p: save_embeddings(world.store, p),
        "pairs.csv": lambda p: save_pairs(world.eval_pairs["val"], p),
        "tri.csv": lambda p: save_tri(world.tris["val"], p),
        "pedigree.csv": lambda p: save_pedigree(world.pedigree, p),
        "ablation.csv": lambda p: save_ablation_csv(
            [AblationResult(AblationCell("lrelu", 0.2, 4), 0.5)], p
        ),
        "manifest.json": lambda p: write_manifest(p.parent, "x", RunConfig(), [], name=p.name),
    }
    for name, write in writers.items():
        path = tmp_path / name
        path.write_text("old contents\n")
        before = os.stat(path).st_mode
        with monkeypatch.context() as m:
            m.setattr(os, "fsync", failing_fsync)
            with pytest.raises(OSError, match="disk full"):
                write(path)
        assert path.read_text() == "old contents\n", name
        write(path)
        assert path.read_text() != "old contents\n", name
        assert os.stat(path).st_mode == before, name  # the umask decides, as for open()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writers)  # no temp files

    # an exception raised while rows are being written also leaves the old file
    path = tmp_path / "tri.csv"
    before = path.read_bytes()
    # a label of the wrong type passes the checks and fails at its row
    broken = TriSet(world.tris["val"].samples + (TriSample("a", "b", "c", Gender.MALE, "kin"),))
    with pytest.raises(AttributeError):
        save_tri(broken, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writers)


def test_load_embeddings_header_only(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("person_id,family_id,gender,f0,f1,f2\n")
    store = load_embeddings(path)
    assert len(store) == 0 and store.dim == 3


def test_load_embeddings_errors_name_lines(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text(
        "person_id,family_id,gender,f0,f1\n"
        "a,f1,M,0.5,0.5\n"
        "b,f1,F,1.0,0.0\n"
        "a,f2,M,0.1,0.2\n"
    )
    with pytest.raises(DataFormatError, match="line 4"):
        load_embeddings(path)

    path.write_text("person_id,family_id,gender,f0,f1\na,f1,M,0.5\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_embeddings(path)

    path.write_text("person_id,family_id,gender,f0,f1\na,f1,X,0.5,0.1\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_embeddings(path)


def test_load_pairs_validation(tmp_path):
    store = small_store()
    path = tmp_path / "pairs.csv"
    path.write_text("id1,id2,relation,label\na,b,FD,kin\n")
    pairs = load_pairs(path, store)
    assert pairs.pairs[0] == KinPair("a", "b", KinshipRelation.FD, PairLabel.KIN)

    # gender mismatch: b is female, BB needs two males
    path.write_text("id1,id2,relation,label\na,b,BB,kin\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_pairs(path, store)

    path.write_text("id1,id2,relation,label\na,zz,FD,kin\n")
    with pytest.raises(DataFormatError, match="zz"):
        load_pairs(path, store)

    # kin pair across families rejected; nonkin within a family rejected
    path.write_text("id1,id2,relation,label\na,c,FD,kin\n")
    with pytest.raises(DataFormatError, match="famil"):
        load_pairs(path, store)
    path.write_text("id1,id2,relation,label\na,b,FD,nonkin\n")
    with pytest.raises(DataFormatError, match="famil"):
        load_pairs(path, store)


def test_pairs_roundtrip(tmp_path):
    store = small_store()
    pairs = PairSet(
        (
            KinPair("a", "b", KinshipRelation.FD, PairLabel.KIN),
            KinPair("a", "c", KinshipRelation.FD, PairLabel.NONKIN),
        )
    )
    path = tmp_path / "pairs.csv"
    save_pairs(pairs, path)
    loaded = load_pairs(path, store)
    assert loaded.pairs == pairs.pairs


def test_tri_roundtrip_and_validation(tmp_path):
    store = small_store()
    tris = TriSet(
        (
            TriSample("a", "b", "b2", Gender.MALE, PairLabel.KIN),
        )
    )
    # need a child in f1: build a custom store
    refs = [
        PersonRef("a", "f1", Gender.MALE),
        PersonRef("b", "f1", Gender.FEMALE),
        PersonRef("b2", "f1", Gender.MALE),
        PersonRef("x", "f2", Gender.MALE),
    ]
    store = EmbeddingStore(refs, np.ones((4, 2)))
    path = tmp_path / "tri.csv"
    save_tri(tris, path)
    loaded = load_tri(path, store)
    assert loaded.samples[0].child_id == "b2"
    assert loaded.samples[0].child_gender is Gender.MALE

    # mother must be female
    path.write_text("father_id,mother_id,child_id,label\na,x,b2,kin\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_tri(path, store)

    # the child is neither parent
    for row in ("a,b,a", "a,b,b"):
        path.write_text(f"father_id,mother_id,child_id,label\n{row},kin\n")
        with pytest.raises(DataFormatError, match="line 2: .*the same person twice"):
            load_tri(path, store)


def test_augment_symmetric_counts_and_order():
    pairs = PairSet(
        (
            KinPair("a", "d", KinshipRelation.BB, PairLabel.KIN),
            KinPair("a", "b", KinshipRelation.FD, PairLabel.KIN),
            KinPair("b", "d", KinshipRelation.SIBS, PairLabel.KIN),
        )
    )
    out = augment_symmetric(pairs)
    assert len(out) == 5
    assert out.pairs[:3] == pairs.pairs
    assert out.pairs[3] == KinPair("d", "a", KinshipRelation.BB, PairLabel.KIN)
    assert out.pairs[4] == KinPair("d", "b", KinshipRelation.SIBS, PairLabel.KIN)
    # re-application doubles the symmetric pairs again: 2 sym originals +
    # 2 reversed are all symmetric, FD passes through
    again = augment_symmetric(out)
    assert len(again) == 9


def test_resample_nonkin_contract(tiny_world):
    world = tiny_world
    kin = world.kin_pairs["train"]
    out = resample_nonkin(kin, world.store, base_seed=3, epoch=1)
    assert len(out) == len(kin)
    for src, swapped in zip(kin, out):
        assert swapped.label is PairLabel.NONKIN
        assert swapped.id1 == src.id1
        assert swapped.relation is src.relation
        g1 = world.store.person(swapped.id1).gender
        g2 = world.store.person(swapped.id2).gender
        from kinverify.relations import role2_gender

        assert g2 is role2_gender(swapped.relation, g1)
        family1 = world.store.person(swapped.id1).family_id
        assert family1 != world.store.person(swapped.id2).family_id


def test_resample_nonkin_matches_per_pair_draws(tiny_world):
    kin = augment_symmetric(tiny_world.kin_pairs["train"])
    for seed, epoch in ((0, 1), (3, 2), (4, 7)):
        out = resample_nonkin(kin, tiny_world.store, seed, epoch)
        expected = resample_nonkin_loop(kin, tiny_world.store, seed, epoch)
        assert [(p.id1, p.id2) for p in out] == expected


def test_resample_nonkin_determinism_and_epoch_variation(tiny_world):
    world = tiny_world
    kin = world.kin_pairs["train"]
    a = resample_nonkin(kin, world.store, 5, 2)
    b = resample_nonkin(kin, world.store, 5, 2)
    assert a.pairs == b.pairs
    c = resample_nonkin(kin, world.store, 5, 3)
    assert a.pairs != c.pairs


def test_resample_nonkin_no_candidates():
    refs = [PersonRef("a", "f1", Gender.MALE), PersonRef("b", "f1", Gender.FEMALE)]
    store = EmbeddingStore(refs, np.ones((2, 2)))
    kin = PairSet((KinPair("a", "b", KinshipRelation.FD, PairLabel.KIN),))
    with pytest.raises(ValueError, match="FD"):
        resample_nonkin(kin, store, 0, 1)


@st.composite
def nonkin_worlds(draw):
    """A store of a few persons whose families interleave in store order, and kin pairs on it."""
    n_families = draw(st.integers(1, 4))
    people = draw(
        st.lists(
            st.tuples(st.integers(0, n_families - 1), st.sampled_from(Gender)),
            min_size=1,
            max_size=14,
        )
    )
    refs = [PersonRef(f"p{i}", f"fam{family}", gender) for i, (family, gender) in enumerate(people)]
    store = EmbeddingStore(refs, np.outer(np.arange(len(refs)), np.ones(2)))
    person = st.integers(0, len(refs) - 1)
    picks = st.tuples(person, person, st.sampled_from(KinshipRelation))
    kin = PairSet(
        tuple(
            KinPair(f"p{i}", f"p{j}", relation, PairLabel.KIN)
            for i, j, relation in draw(st.lists(picks, max_size=20))
        )
    )
    return store, kin, draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 9))


@settings(max_examples=400, deadline=None)
@given(nonkin_worlds())
def test_pool_free_draw_matches_per_pair_loop(world):
    from kinverify.relations import role2_gender

    store, kin, seed, epoch = world
    empty = [
        p
        for p in kin
        if not any(
            store.person(q).gender is role2_gender(p.relation, store.person(p.id1).gender)
            and store.person(q).family_id != store.person(p.id1).family_id
            for q in store.person_ids
        )
    ]
    if empty:
        message = (
            f"no eligible nonkin partner for relation {empty[0].relation.value} "
            f"outside family {store.person(empty[0].id1).family_id!r}"
        )
        with pytest.raises(ValueError) as exc:
            resample_nonkin(kin, store, seed, epoch)
        assert str(exc.value) == message
        return
    out = resample_nonkin(kin, store, seed, epoch)
    assert [(p.id1, p.id2) for p in out] == resample_nonkin_loop(kin, store, seed, epoch)
    assert all(p.label is PairLabel.NONKIN for p in out)
    assert [p.relation for p in out] == [p.relation for p in kin]


@settings(max_examples=200, deadline=None)
@given(nonkin_worlds(), st.permutations([r.value for r in RELATION_ORDER]))
def test_train_rows_and_draw_match_the_augmented_pairs(world, codes):
    # train's rows of augment_symmetric's pairs are those of a per-pair loop, and
    # its draws and first-empty-pair error are those of resample_nonkin
    store, kin, seed, epoch = world
    codes = tuple(codes)
    aug = augment_symmetric(kin)
    rows = _pair_rows(store, aug, codes)
    expected_rows = (
        [store.row(p.id1) for p in aug],
        [store.row(p.id2) for p in aug],
        [codes.index(p.relation.value) for p in aug],
        [float(p.label is PairLabel.KIN) for p in aug],
    )
    for got, expected, dtype in zip(rows, expected_rows, (np.intp, np.intp, np.intp, np.float64)):
        assert got.dtype == dtype and got.tolist() == expected

    # every id1 is looked up before any id2, then the relations
    unknown = aug.pairs + (
        KinPair("p0", "x", KinshipRelation(codes[0]), None),
        KinPair("y", "p0", KinshipRelation(codes[0]), PairLabel.KIN),
    )
    with pytest.raises(KeyError) as exc:
        _pair_rows(store, unknown, codes)
    assert exc.value.args == ("unknown person_id 'y'",)
    with pytest.raises(KeyError) as exc:
        _pair_rows(store, unknown[:-1], codes)
    assert exc.value.args == ("unknown person_id 'x'",)
    unhandled = aug.pairs + (KinPair("p0", "p0", KinshipRelation(codes[0]), None),)
    with pytest.raises(ValueError) as exc:
        _pair_rows(store, unhandled, codes[1:])
    assert str(exc.value) == f"relation {codes[0]!r} not handled by this model"

    try:
        expected = resample_nonkin(aug, store, seed, epoch)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _nonkin_draw(store, rows[0], rows[2], codes, seed)
        assert str(got.value) == str(exc)
        return
    partners = _nonkin_draw(store, rows[0], rows[2], codes, seed)(epoch)
    assert [store.person_ids[r] for r in partners] == [p.id2 for p in expected]


@st.composite
def pair_cases(draw):
    """Pairs of any relation and label over a ``nonkin_worlds`` store, at most one with an
    unknown id, and a prefix of a permutation of the relation codes."""
    store, _, seed, epoch = draw(nonkin_worlds())
    person = st.sampled_from(store.person_ids)
    labels = st.sampled_from([PairLabel.KIN, PairLabel.NONKIN, None])
    picks = st.tuples(person, person, st.sampled_from(KinshipRelation), labels)
    pairs = [KinPair(*pick) for pick in draw(st.lists(picks, max_size=12))]
    if draw(st.booleans()):
        i, side = draw(st.integers(0, len(pairs))), draw(st.sampled_from(["id1", "id2"]))
        ghost = KinPair(store.person_ids[0], store.person_ids[0], KinshipRelation.BB, None)
        pairs.insert(i, dataclasses.replace(ghost, **{side: "ghost"}))
    codes = draw(st.permutations([r.value for r in RELATION_ORDER]))
    return store, pairs, tuple(codes[: draw(st.integers(1, len(codes)))]), seed, epoch


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except (KeyError, ValueError) as exc:
        return "error", type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(pair_cases())
def test_column_and_object_pair_sets_agree(case):
    store, pairs, codes, seed, epoch = case
    objects = PairSet(tuple(pairs))
    code = {PairLabel.NONKIN: 0, PairLabel.KIN: 1, None: 2}
    columns = PairSet._from_columns(
        tuple(p.id1 for p in pairs),
        tuple(p.id2 for p in pairs),
        np.array([relation_index(p.relation) for p in pairs], dtype=np.intp),
        np.array([code[p.label] for p in pairs], dtype=np.int8),
    )
    assert columns.pairs == objects.pairs == tuple(pairs)
    assert len(columns) == len(objects) == len(pairs)
    assert list(columns) == list(objects) == pairs
    assert columns == objects
    for pair_set in (objects, columns):  # read-only: no column can drift from the cached pairs
        assert not (pair_set.rel.flags.writeable or pair_set.label.flags.writeable)
        with pytest.raises(AttributeError, match="read-only"):
            pair_set.id1 = ()
    if pairs:  # the same ids under other labels
        relabelled = (columns.label + 1) % 3
        assert PairSet._from_columns(columns.id1, columns.id2, columns.rel, relabelled) != objects

    # _pair_rows against the pair-by-pair oracle, errors and messages included
    expected = _outcome(pair_rows_loop, store, pairs, codes)
    for pair_set in (objects, columns):
        got = _outcome(_pair_rows, store, pair_set, codes)
        if expected[0] == "error":
            assert got == expected
        else:
            dtypes = (np.intp, np.intp, np.intp, np.float64)
            assert [a.tolist() for a in got[1]] == list(expected[1])
            assert [a.dtype for a in got[1]] == list(dtypes)

    augmented = [augment_symmetric(pair_set) for pair_set in (objects, columns)]
    assert augmented[0].pairs == augmented[1].pairs == tuple(augment_symmetric_loop(pairs))
    assert augmented[0] == augmented[1]

    drawn = [_outcome(resample_nonkin, s, store, seed, epoch) for s in (objects, columns)]
    if drawn[0][0] == "error":
        assert drawn[1] == drawn[0]
        return
    swapped = resample_nonkin_loop(pairs, store, seed, epoch)
    expected = tuple(KinPair(a, b, p.relation, PairLabel.NONKIN) for p, (a, b) in zip(pairs, swapped))
    assert drawn[0][1].pairs == drawn[1][1].pairs == expected


def test_train_raises_the_empty_pool_error():
    from kinverify.comparator import ComparatorConfig
    from kinverify.training import TrainConfig, train

    refs = [
        PersonRef("a", "f1", Gender.MALE),
        PersonRef("b", "f1", Gender.FEMALE),
        PersonRef("c", "f2", Gender.MALE),
    ]
    store = EmbeddingStore(refs, np.ones((3, 2)))
    kin = PairSet((KinPair("a", "b", KinshipRelation.FD, PairLabel.KIN),))
    message = "no eligible nonkin partner for relation FD outside family 'f1'"
    with pytest.raises(ValueError) as exc:
        resample_nonkin(kin, store, 0, 1)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        train(store, kin, kin, ComparatorConfig(input_dim=4, hidden=2), TrainConfig(epochs=1))
    assert str(exc.value) == message


def test_store_rejects_duplicates_and_bad_shapes():
    with pytest.raises(ValueError, match="duplicate"):
        EmbeddingStore(
            [PersonRef("a", "f1", Gender.MALE), PersonRef("a", "f2", Gender.MALE)], np.ones((2, 2))
        )
    with pytest.raises(ValueError, match="shape"):
        EmbeddingStore([PersonRef("a", "f1", Gender.MALE)], np.ones(3))


def test_store_rejects_matrices_of_the_wrong_shape():
    refs = [PersonRef("a", "f1", Gender.MALE), PersonRef("b", "f1", Gender.FEMALE)]
    # not 2-D, a row count other than len(refs), no columns
    for matrix in (np.ones((2, 2, 1)), np.ones((3, 2)), np.ones((2, 0))):
        with pytest.raises(ValueError, match="shape"):
            EmbeddingStore(refs, matrix)


def test_store_takes_the_matrix_over_read_only():
    matrix = np.ones((1, 2))
    store = EmbeddingStore([PersonRef("a", "f1", Gender.MALE)], matrix)
    assert store.matrix is matrix
    assert not matrix.flags.writeable


# a row with one fault, its embedding value and the message it gets, after a good row "a"
STORE_FAULTS = {
    "non-finite": (
        PersonRef("b", "f1", Gender.MALE), np.nan, "embedding for 'b' has non-finite entries"
    ),
    "duplicate": (PersonRef("a", "f2", Gender.MALE), 0.0, "duplicate person_id 'a'"),
    "empty-family": (PersonRef("c", "", Gender.MALE), 0.0, "person 'c' has an empty family_id"),
    "separator": (
        PersonRef("d,x", "f1", Gender.MALE),
        0.0,
        "person_id 'd,x' contains a CSV field or line separator",
    ),
}


@pytest.mark.parametrize("first, second", itertools.permutations(STORE_FAULTS, 2))
def test_store_names_the_first_bad_row(first, second):
    (ref1, value1, message), (ref2, value2, _) = STORE_FAULTS[first], STORE_FAULTS[second]
    refs = [PersonRef("a", "f1", Gender.MALE), ref1, ref2]
    with pytest.raises(ValueError) as exc:
        EmbeddingStore(refs, np.array([[0.0], [value1], [value2]]))
    assert str(exc.value) == message


csv_edits = st.lists(
    st.tuples(
        st.floats(0, 1, exclude_max=True),
        st.sampled_from(["replace", "delete", "insert"]),
        st.sampled_from(list(",\n\r\x85 -.e0159xMF _") + ["", "inf", "nan", "1e999", "-0"]),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(stores(), csv_edits)
def test_load_embeddings_matches_the_row_by_row_loader(store, edits):
    from oracles import load_embeddings_loop

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "emb.csv"
        save_embeddings(store, path)
        text = path.read_text(encoding="utf-8")
        body = text.index("\n") + 1  # edit the rows, not the header
        for where, op, piece in edits:
            at = body + int(where * (len(text) - body))
            if op == "insert":
                text = text[:at] + piece + text[at:]
            else:
                text = text[:at] + (piece if op == "replace" else "") + text[at + 1 :]
        path.write_bytes(text.encode("utf-8"))
        outcomes = []
        for load in (load_embeddings, load_embeddings_loop):
            try:
                loaded = load(path)
                outcomes.append((loaded.person_ids, loaded._refs, loaded.matrix.tobytes()))
            except DataFormatError as exc:
                outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("kind", ["embeddings", "pairs", "tri"])
def test_loaders_name_the_line_of_a_non_utf8_byte(kind, tmp_path, tiny_world):
    store = tiny_world.store
    save, table, load = {
        "embeddings": (save_embeddings, store, load_embeddings),
        "pairs": (save_pairs, tiny_world.eval_pairs["val"], lambda p: load_pairs(p, store)),
        "tri": (save_tri, tiny_world.tris["val"], lambda p: load_tri(p, store)),
    }[kind]
    path = tmp_path / f"{kind}.csv"
    save(table, path)
    lines = path.read_bytes().split(b"\n")
    first, rest = lines[2].split(b",", 1)
    lines[2] = first + b",\xff" + rest  # a 0xff byte opens the second field of line 3
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(DataFormatError, match=re.escape(f"{path}, line 3: not UTF-8")):
        load(path)


def test_pairs_to_arrays_holds_no_second_copy_of_its_features(default_world):
    import tracemalloc

    from kinverify.data import pairs_to_arrays

    store = default_world.store
    pairs = default_world.eval_pairs["val"].pairs
    pairs = PairSet((pairs * (5000 // len(pairs) + 1))[:5000])
    codes = tuple(r.value for r in RELATION_ORDER)
    tracemalloc.start()
    try:
        out = pairs_to_arrays(store, pairs, codes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * sum(a.nbytes for a in out)
    rows1, rows2, _, _ = _pair_rows(store, pairs, codes)
    expected = np.concatenate([store.matrix[rows1], store.matrix[rows2]], axis=1)
    assert out[0].tobytes() == expected.tobytes() and out[0].shape == expected.shape
