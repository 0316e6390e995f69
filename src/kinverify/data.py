"""Embedding stores, labeled pair/tri sets, CSV I/O and pair construction.

File formats (UTF-8, LF line endings, floats written with ``repr`` so a
load/save round trip is byte identical):

* embeddings: ``person_id,family_id,gender,f0,...,f{d-1}`` with gender M/F
* pairs:      ``id1,id2,relation,label`` with label ``kin``/``nonkin``
* tri:        ``father_id,mother_id,child_id,label``

Malformed rows and bytes that are not UTF-8 abort with a line-numbered
error instead of being skipped; silent skips would corrupt downstream
accuracy statistics. A store and the pair and tri writers reject ids that
hold a comma or a line break, so every file loads back as saved. The
loaders and the CLI queries build every pair and triple through one
checked constructor per record, so they give the same reasons.

A ``PairSet`` holds aligned columns, and the functions typed to take one
read only those; a set built from columns makes its ``KinPair`` objects
only when they are read.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import itertools
import math
import operator
import os
import re
import secrets
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .relations import (
    CANONICAL_RELATION_CODES,
    RELATION_ORDER,
    SYMMETRIC_RELATIONS,
    Gender,
    KinshipRelation,
    genders_match,
    role2_gender,
)
from .seeding import STREAM_RESAMPLE, STREAM_TRI, derive_rng


class DataFormatError(ValueError):
    """Malformed input file; the message names the offending line."""


# A comma splits fields; these characters split lines for str.splitlines.
_SEPARATORS = re.compile("[,\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


def _check_id(what: str, value: str) -> None:
    """Reject an id that would not load back from a CSV row as written."""
    if _SEPARATORS.search(value):
        raise ValueError(f"{what} {value!r} contains a CSV field or line separator")


@contextlib.contextmanager
def _atomic_open(path: str | Path, mode: str = "w"):
    """Write ``path`` via a temp file in its directory, fsynced, then renamed.

    If the block raises, the temp file is removed and any old file at
    ``path`` is left as it was. Text mode writes UTF-8 with LF line endings.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        with os.fdopen(fd, mode, **text) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_rows(path: str | Path, header: str, rows) -> None:
    """Write a CSV atomically: the ``header`` line, then one line of comma-joined fields per row."""
    with _atomic_open(path) as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


class PairLabel(enum.Enum):
    KIN = "kin"
    NONKIN = "nonkin"

    @classmethod
    def from_code(cls, code: str) -> "PairLabel":
        try:
            return cls(code)
        except ValueError:
            raise ValueError(f"unknown label {code!r}, expected 'kin' or 'nonkin'") from None


@dataclass(frozen=True, slots=True)
class PersonRef:
    person_id: str
    family_id: str
    gender: Gender


class EmbeddingStore:
    """Immutable collection of persons with one embedding row each.

    ``EmbeddingStore(refs, matrix)`` holds person ``refs[i]`` with embedding
    ``matrix[i]``, of shape (len(refs), dim) with dim >= 1; rows keep this
    order, the canonical serialization order, in the one person table: the
    refs as a tuple plus an id -> row dict that every lookup goes through
    (``row``). A float64 matrix is taken over without a copy and marked
    read-only; other input is converted first. The rows are validated in one
    pass, and a fault names the first bad row.
    """

    def __init__(self, refs: list[PersonRef], matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(refs) or matrix.shape[1] == 0:
            raise ValueError(
                f"embedding matrix has shape {matrix.shape}, expected ({len(refs)}, dim), dim >= 1"
            )
        self._row: dict[str, int] = {}
        for i, (ref, finite) in enumerate(zip(refs, np.isfinite(matrix).all(axis=1).tolist())):
            if not finite:
                raise ValueError(f"embedding for {ref.person_id!r} has non-finite entries")
            if ref.person_id in self._row:
                raise ValueError(f"duplicate person_id {ref.person_id!r}")
            if not ref.family_id:
                raise ValueError(f"person {ref.person_id!r} has an empty family_id")
            _check_id("person_id", ref.person_id)
            _check_id("family_id", ref.family_id)
            self._row[ref.person_id] = i
        self.dim = matrix.shape[1]
        self._refs = tuple(refs)
        self.person_ids = tuple(self._row)
        matrix.setflags(write=False)
        self.matrix = matrix

    def __len__(self) -> int:
        return len(self._refs)

    def __contains__(self, person_id: str) -> bool:
        return person_id in self._row

    def person(self, person_id: str) -> PersonRef:
        return self._refs[self.row(person_id)]

    def embedding(self, person_id: str) -> np.ndarray:
        return self.matrix[self.row(person_id)]

    def row(self, person_id: str) -> int:
        try:
            return self._row[person_id]
        except KeyError:
            raise KeyError(f"unknown person_id {person_id!r}") from None

    @functools.cached_property
    def _person_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per store row the family index and male flag (1/0), then the sorted family ids."""
        refs = self._refs
        names, family = np.unique([ref.family_id for ref in refs], return_inverse=True)
        male = np.fromiter((r.gender is Gender.MALE for r in refs), dtype=np.intp, count=len(refs))
        for table in (family, male, names):
            table.setflags(write=False)
        return family, male, names


@dataclass(frozen=True, slots=True)
class KinPair:
    id1: str
    id2: str
    relation: KinshipRelation
    label: PairLabel | None  # None: unknown, a pair still to be verified


@dataclass(frozen=True, slots=True)
class TriSample:
    father_id: str
    mother_id: str
    child_id: str
    child_gender: Gender
    label: PairLabel | None  # None: unknown, a triple still to be verified


# A PairSet's label codes are the labels' indices in _LABELS.
_LABELS = (PairLabel.NONKIN, PairLabel.KIN, None)
_NONKIN, _KIN, _UNKNOWN = range(3)
_SYMMETRIC = np.array([r in SYMMETRIC_RELATIONS for r in RELATION_ORDER])


class PairSet:
    """Pairs as read-only aligned columns: ``id1`` and ``id2`` (tuples of person
    ids), ``rel`` (canonical relation indices) and ``label`` (0 nonkin, 1 kin,
    2 unknown). ``PairSet(pairs)`` keeps its ``KinPair`` tuple as ``pairs``; a set
    built from columns builds ``pairs``, which iteration yields, on first use.
    """

    def __init__(self, pairs: tuple[KinPair, ...] = ()):
        pairs, field = tuple(pairs), operator.attrgetter
        # tuple.index compares by identity first, so no lookup hashes an Enum member
        rel = np.fromiter(map(RELATION_ORDER.index, map(field("relation"), pairs)), np.intp)
        label = np.fromiter(map(_LABELS.index, map(field("label"), pairs)), np.int8)
        ids = (tuple(map(field("id1"), pairs)), tuple(map(field("id2"), pairs)))
        vars(self).update(vars(PairSet._from_columns(*ids, rel, label)), pairs=pairs)

    @classmethod
    def _from_columns(cls, id1, id2, rel, label, parts=()) -> "PairSet":
        """The set of these columns; its ``pairs`` are those of ``parts`` joined, if given."""
        rel.setflags(write=False)
        label.setflags(write=False)
        pairs = cls.__new__(cls)
        vars(pairs).update(id1=id1, id2=id2, rel=rel, label=label, _parts=parts)
        return pairs

    def _then(self, other: "PairSet") -> "PairSet":
        """This set's pairs, then those of ``other``, sharing both sets' ``KinPair`` objects."""
        rel = np.concatenate([self.rel, other.rel])
        label = np.concatenate([self.label, other.label])
        ids = (self.id1 + other.id1, self.id2 + other.id2)
        return PairSet._from_columns(*ids, rel, label, (self, other))

    @functools.cached_property
    def pairs(self) -> tuple[KinPair, ...]:
        if self._parts:
            return tuple(itertools.chain.from_iterable(s.pairs for s in self._parts))
        rels = map(RELATION_ORDER.__getitem__, self.rel.tolist())
        labels = map(_LABELS.__getitem__, self.label.tolist())
        return tuple(map(KinPair, self.id1, self.id2, rels, labels))

    def __setattr__(self, name, *value):
        raise AttributeError(f"a PairSet is read-only: cannot set {name!r}")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return len(self.id1)

    def __iter__(self):
        return iter(self.pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairSet):
            return NotImplemented
        same = (self.id1, self.id2) == (other.id1, other.id2)
        return same and all(map(np.array_equal, (self.rel, self.label), (other.rel, other.label)))


@dataclass(frozen=True)
class TriSet:
    samples: tuple[TriSample, ...]

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)


def concat_features(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Concatenate two embeddings into one feature of twice the length."""
    f1 = np.asarray(f1, dtype=np.float64)
    f2 = np.asarray(f2, dtype=np.float64)
    if f1.shape != f2.shape or f1.ndim != 1:
        raise ValueError(f"cannot concatenate shapes {f1.shape} and {f2.shape}")
    return np.concatenate([f1, f2])


def save_embeddings(store: EmbeddingStore, path: str | Path) -> None:
    cols = ",".join(f"f{i}" for i in range(store.dim))
    rows = (  # one row's floats at a time, not the whole matrix's
        (ref.person_id, ref.family_id, ref.gender.value, *map(repr, values.tolist()))
        for ref, values in zip(store._refs, store.matrix)
    )
    _write_rows(path, f"person_id,family_id,gender,{cols}", rows)


def _read_lines(path: Path) -> list[str]:
    """The lines of a UTF-8 file; a byte that does not decode is a line-numbered DataFormatError."""
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((raw[: exc.start].decode("utf-8") + "x").splitlines())
        raise DataFormatError(f"{path}, line {lineno}: not UTF-8 ({exc.reason})") from None
    del raw  # the bytes need not outlive the split lines
    return text.splitlines()


def _raise_first_bad_row(path: Path, rows: list[list[str]], dim: int) -> None:
    """Check embedding rows one by one; raise the DataFormatError of the first bad line."""
    seen: set[str] = set()
    for lineno, parts in enumerate(rows, start=2):
        if parts == [""]:
            raise DataFormatError(f"{path}, line {lineno}: blank line")
        if len(parts) != 3 + dim:
            raise DataFormatError(
                f"{path}, line {lineno}: expected {3 + dim} fields, got {len(parts)}"
            )
        pid, fam, gender_code = parts[:3]
        if pid in seen:
            raise DataFormatError(f"{path}, line {lineno}: duplicate person_id {pid!r}")
        if not fam:
            raise DataFormatError(f"{path}, line {lineno}: empty family_id")
        try:
            Gender.from_code(gender_code)
            values = [float(v) for v in parts[3:]]
        except ValueError as exc:
            raise DataFormatError(f"{path}, line {lineno}: {exc}") from None
        if not all(map(math.isfinite, values)):
            raise DataFormatError(f"{path}, line {lineno}: non-finite embedding value")
        seen.add(pid)


def load_embeddings(path: str | Path) -> EmbeddingStore:
    """Parse an embedding CSV; dim is inferred from the header.

    All numbers are converted by ``float`` in one pass into the matrix, and
    ``EmbeddingStore`` checks the rows as a whole; only when either fails does
    a row-by-row check name the first bad line.
    """
    path = Path(path)
    lines = _read_lines(path)
    if not lines:
        raise DataFormatError(f"{path}: empty file, expected a header line")
    header = lines[0].split(",")
    if header[:3] != ["person_id", "family_id", "gender"]:
        raise DataFormatError(
            f"{path}, line 1: header must start with person_id,family_id,gender"
        )
    dim = len(header) - 3
    expected_cols = [f"f{i}" for i in range(dim)]
    if dim <= 0 or header[3:] != expected_cols:
        raise DataFormatError(f"{path}, line 1: feature columns must be f0..f{{d-1}}")

    body = lines[1:]
    # a row's fields are split as its numbers are converted, so they are not all held at once
    numbers = itertools.chain.from_iterable(line.split(",")[3:] for line in body)
    try:
        heads = (line.split(",", 3)[:3] for line in body)
        refs = [PersonRef(pid, fam, Gender.from_code(gender)) for pid, fam, gender in heads]
        matrix = np.fromiter(map(float, numbers), dtype=np.float64, count=len(body) * dim)
        if not all(line.count(",") == 2 + dim for line in body):
            raise ValueError("a row has the wrong number of fields")
        return EmbeddingStore(refs, matrix.reshape(len(body), dim))
    except ValueError:
        # the store's own error stands only when no row is at fault
        _raise_first_bad_row(path, [line.split(",") for line in body], dim)
        raise


def _check_people(store: EmbeddingStore, what: str, *ids: str) -> None:
    """Reject an id the store lacks, or one person named twice in a ``what``."""
    for i, pid in enumerate(ids):
        if pid not in store:
            raise ValueError(f"unknown person_id {pid!r}")
        if pid in ids[:i]:
            raise ValueError(f"{what} references the same person twice: {pid!r}")


def _checked_pair(
    store: EmbeddingStore, id1: str, id2: str, relation: str, label: str | None
) -> KinPair:
    """The pair of raw fields, checked against the store; raises ValueError with the reason.

    A ``label`` of None makes a pair still to be verified, whose families are
    not checked.
    """
    rel = KinshipRelation.from_code(relation)
    known = None if label is None else PairLabel.from_code(label)
    _check_people(store, "pair", id1, id2)
    p1, p2 = store.person(id1), store.person(id2)
    if not genders_match(rel, p1.gender, p2.gender):
        genders = f"({p1.gender.value},{p2.gender.value})"
        raise ValueError(f"genders {genders} do not fit relation {rel.value}")
    if known is PairLabel.KIN and p1.family_id != p2.family_id:
        raise ValueError("kin pair spans two families")
    if known is PairLabel.NONKIN and p1.family_id == p2.family_id:
        raise ValueError("nonkin pair within a single family")
    return KinPair(id1, id2, rel, known)


def _checked_tri(
    store: EmbeddingStore, father: str, mother: str, child: str, label: str | None
) -> TriSample:
    """The triple of raw fields, checked against the store; raises ValueError with the reason.

    The child's gender comes from the store. A ``label`` of None makes a
    triple still to be verified, whose child's family is not checked.
    """
    known = None if label is None else PairLabel.from_code(label)
    _check_people(store, "tri-sample", father, mother, child)
    f, m, c = store.person(father), store.person(mother), store.person(child)
    if f.gender is not Gender.MALE:
        raise ValueError(f"father {father!r} is not male")
    if m.gender is not Gender.FEMALE:
        raise ValueError(f"mother {mother!r} is not female")
    if f.family_id != m.family_id:
        raise ValueError("father and mother belong to different families")
    if known is PairLabel.KIN and c.family_id != f.family_id:
        raise ValueError("kin tri-sample child from a different family")
    if known is PairLabel.NONKIN and c.family_id == f.family_id:
        raise ValueError("nonkin tri-sample child from the parents' family")
    return TriSample(father, mother, child, c.gender, known)


_PAIR_HEADER = "id1,id2,relation,label"
_TRI_HEADER = "father_id,mother_id,child_id,label"


def _read_rows(path: Path, header: str, build, store: EmbeddingStore) -> list:
    """Records of a 4-field CSV after ``header``, one ``build(store, *fields)`` per row.

    A wrong header, a wrong field count or a ValueError from ``build``
    aborts with a line-numbered DataFormatError.
    """
    lines = _read_lines(path)
    if not lines or lines[0] != header:
        raise DataFormatError(f"{path}, line 1: expected header '{header}'")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise DataFormatError(f"{path}, line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            records.append(build(store, *parts))
        except ValueError as exc:
            raise DataFormatError(f"{path}, line {lineno}: {exc}") from None
    return records


def save_pairs(pairs: PairSet, path: str | Path) -> None:
    """Write a pairs CSV; a bad id or a missing label is rejected before any write."""
    labels = pairs.label.tolist()
    for id1, id2, label in zip(pairs.id1, pairs.id2, labels):
        _check_id("id1", id1)
        _check_id("id2", id2)
        if label == _UNKNOWN:
            raise ValueError(f"pair ({id1!r}, {id2!r}) has no label")
    relations = map(CANONICAL_RELATION_CODES.__getitem__, pairs.rel.tolist())
    rows = zip(pairs.id1, pairs.id2, relations, (_LABELS[code].value for code in labels))
    _write_rows(path, _PAIR_HEADER, rows)


def load_pairs(path: str | Path, store: EmbeddingStore) -> PairSet:
    """Parse a pairs CSV, validating every row against the store."""
    return PairSet(tuple(_read_rows(Path(path), _PAIR_HEADER, _checked_pair, store)))


def save_tri(tris: TriSet, path: str | Path) -> None:
    """Write a tri CSV; a bad id or a missing label is rejected before any write."""
    for t in tris:
        _check_id("father_id", t.father_id)
        _check_id("mother_id", t.mother_id)
        _check_id("child_id", t.child_id)
        if t.label is None:
            raise ValueError(
                f"tri-sample ({t.father_id!r}, {t.mother_id!r}, {t.child_id!r}) has no label"
            )
    rows = ((t.father_id, t.mother_id, t.child_id, t.label.value) for t in tris)
    _write_rows(path, _TRI_HEADER, rows)


def load_tri(path: str | Path, store: EmbeddingStore) -> TriSet:
    """Parse a tri-subject CSV; child gender comes from the store."""
    return TriSet(tuple(_read_rows(Path(path), _TRI_HEADER, _checked_tri, store)))


def augment_symmetric(pairs: PairSet) -> PairSet:
    """Duplicate and swap every pair whose relation is symmetric.

    Originals keep their order; reversed copies are appended afterwards, so
    the output size is 2*n_symmetric + n_asymmetric.
    """
    sym = np.flatnonzero(_SYMMETRIC[pairs.rel]).tolist()
    ids1, ids2 = (tuple(map(ids.__getitem__, sym)) for ids in (pairs.id1, pairs.id2))
    reverse = PairSet._from_columns(ids2, ids1, pairs.rel[sym], pairs.label[sym])
    return pairs._then(reverse)


def _cross_family_draw(
    store: EmbeddingStore, pool: np.ndarray, want_male: np.ndarray, family_rows: np.ndarray
):
    """A seeded draw, per query, of one ``pool`` member outside a family: (sizes, draw).

    ``pool`` holds ascending store rows. Query q's candidates are the pool
    members of gender ``want_male[q]`` (1 male, 0 female) outside the
    family of store row ``family_rows[q]``, in store order; ``sizes`` holds
    their counts. ``draw(rng)`` returns one candidate's store row per
    query, by one ``rng.integers(sizes)`` call, so a zero size must be
    rejected first.

    No candidate list is built: pool members are sorted by (gender,
    family, store order), and each keeps its rank among the members of its
    gender. If a family's members of that gender have ranks
    k_0 < k_1 < ..., then k_j - j candidates come before member j, so
    candidate r has rank r + #{j : k_j - j <= r}: one ``searchsorted``
    over all queries at once. The tables take O(persons + queries) memory.
    """
    family, male, family_names = store._person_tables
    n = len(pool)
    male = male[pool]
    n_gender = np.bincount(male, minlength=2)
    gender_start = np.array([0, n_gender[0]])
    by_gender = np.argsort(male, kind="stable")  # females, then males, each in store order
    rank = np.empty(n, dtype=np.intp)  # rank among the pool members of one's gender
    rank[by_gender] = np.arange(n) - gender_start[male[by_gender]]

    # (gender, family) segments, members sorted by segment and then store order
    segment = male * len(family_names) + family[pool]
    seg_order = np.argsort(segment, kind="stable")
    seg_size = np.bincount(segment, minlength=2 * len(family_names))
    seg_first = np.cumsum(seg_size) - seg_size
    sorted_segment = segment[seg_order]
    before = rank[seg_order] - (np.arange(n) - seg_first[sorted_segment])  # k_j - j
    keys = sorted_segment * (n + 1) + before  # nondecreasing, as 0 <= k_j - j <= n

    query_segment = want_male * len(family_names) + family[family_rows]
    sizes = n_gender[want_male] - seg_size[query_segment]
    base = gender_start[want_male] - seg_first[query_segment]
    seg_key = query_segment * (n + 1)

    def draw(rng: np.random.Generator) -> np.ndarray:
        # array bounds draw the same stream as one scalar draw per query, in order
        r = rng.integers(sizes)
        return pool[by_gender[base + np.searchsorted(keys, seg_key + r, side="right") + r]]

    return sizes, draw


def _nonkin_draw(
    store: EmbeddingStore,
    rows1: np.ndarray,
    rel_idx: np.ndarray,
    relation_codes: tuple[str, ...],
    seed: int,
):
    """The nonkin partner draw of kin pairs: epoch -> partner store rows.

    A pair is given by the store row of its id1 and the index of its
    relation in ``relation_codes``. Its candidates are the persons of the
    gender its role 2 needs, outside the family of its id1, in store order
    (``_cross_family_draw`` over the whole store). Each epoch draws from the
    (seed, STREAM_RESAMPLE, epoch) stream. Raises ValueError, naming the
    first pair without a candidate, when a pair has none.
    """
    family, male, family_names = store._person_tables
    relations = [KinshipRelation(code) for code in relation_codes]
    genders = (Gender.FEMALE, Gender.MALE)  # indexed by the male flag of id1
    role2_male = np.array(
        [[role2_gender(r, g) is Gender.MALE for r in relations] for g in genders], dtype=np.intp
    )
    want = role2_male[male[rows1], rel_idx]
    sizes, draw = _cross_family_draw(store, np.arange(len(store)), want, rows1)
    if not sizes.all():
        i = int(np.argmin(sizes))
        raise ValueError(
            f"no eligible nonkin partner for relation {relation_codes[rel_idx[i]]} "
            f"outside family {str(family_names[family[rows1[i]]])!r}"
        )
    return lambda epoch: draw(derive_rng(seed, STREAM_RESAMPLE, epoch))


def resample_nonkin(
    kin_pairs: PairSet,
    store: EmbeddingStore,
    base_seed: int,
    epoch: int,
) -> PairSet:
    """Build one nonkin pair per kin pair by swapping in a cross-family partner.

    Each output keeps id1 and the relation of its source pair; id2 is drawn
    uniformly from persons whose gender fits role 2 and whose family differs
    from id1's. The draw order is the input pair order with one draw per
    pair, seeded from (base_seed, epoch) via :mod:`kinverify.seeding`, so a
    given epoch replays exactly while distinct epochs differ. The draw is
    ``_nonkin_draw``, which ``train`` runs each epoch; the output shares
    the kin set's ``id1`` and ``rel`` columns.
    """
    rows1, _, rel_idx, _ = _pair_rows(store, kin_pairs, CANONICAL_RELATION_CODES)
    draw = _nonkin_draw(store, rows1, rel_idx, CANONICAL_RELATION_CODES, base_seed)
    partners = tuple(map(store.person_ids.__getitem__, draw(epoch).tolist()))
    label = np.full(len(partners), _NONKIN, dtype=np.int8)
    return PairSet._from_columns(kin_pairs.id1, partners, kin_pairs.rel, label)


def _nonkin_tris(
    kin_tris: list[TriSample],
    pool: np.ndarray,
    child_rows: np.ndarray,
    store: EmbeddingStore,
    seed: int,
    split_index: int,
) -> tuple[TriSample, ...]:
    """One nonkin triple per kin triple: same parents, swapped child.

    The replacement child has the same gender, comes from a different
    family and is itself a child (not a founder), drawn from ``pool``, the
    ascending store rows of the world's children, in one seeded pass per
    split. ``child_rows`` holds the store row of each kin triple's child.
    """
    sizes, draw = _cross_family_draw(store, pool, store._person_tables[1][child_rows], child_rows)
    if not sizes.all():
        gender = kin_tris[int(np.argmin(sizes))].child_gender
        raise ValueError(f"no cross-family child of gender {gender.value}")
    ids = store.person_ids
    swapped = draw(derive_rng(seed, STREAM_TRI, split_index)).tolist()
    return tuple(
        TriSample(t.father_id, t.mother_id, ids[r], t.child_gender, PairLabel.NONKIN)
        for t, r in zip(kin_tris, swapped)
    )


def _pair_rows(
    store: EmbeddingStore,
    pairs: PairSet | list[KinPair],
    relation_codes: tuple[str, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Store rows of both persons, relation indices and kin targets of ``pairs``.

    Relation indices follow ``relation_codes`` (a model's expert order). Every
    id1 is looked up before any id2; an unknown id raises KeyError, and then
    a pair whose relation is not among the codes raises ValueError. A list
    of pairs is read as the ``PairSet`` of its tuple.
    """
    if not isinstance(pairs, PairSet):
        pairs = PairSet(tuple(pairs))
    n = len(pairs)
    try:
        rows1 = np.fromiter(map(store._row.__getitem__, pairs.id1), dtype=np.intp, count=n)
        rows2 = np.fromiter(map(store._row.__getitem__, pairs.id2), dtype=np.intp, count=n)
    except KeyError as exc:
        raise KeyError(f"unknown person_id {exc.args[0]!r}") from None
    canonical = [CANONICAL_RELATION_CODES.index(code) for code in relation_codes]
    position = np.full(len(CANONICAL_RELATION_CODES), -1, dtype=np.intp)
    position[canonical] = range(len(canonical))
    rel_idx = position[pairs.rel]
    if (rel_idx < 0).any():
        code = CANONICAL_RELATION_CODES[pairs.rel[np.argmax(rel_idx < 0)]]
        raise ValueError(f"relation {code!r} not handled by this model")
    return rows1, rows2, rel_idx, (pairs.label == _KIN).astype(np.float64)


def _gather_features(matrix: np.ndarray, rows1: np.ndarray, rows2: np.ndarray) -> np.ndarray:
    """Concatenated embeddings of row pairs of ``matrix``, shape (n, 2*dim), from one take."""
    rows = np.column_stack([rows1, rows2]).ravel()
    return matrix.take(rows, axis=0).reshape(len(rows1), 2 * matrix.shape[1])


def pairs_to_arrays(
    store: EmbeddingStore,
    pairs: PairSet | list[KinPair],
    relation_codes: tuple[str, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorize pairs into (features, relation indices, kin targets).

    Features are the concatenated embeddings, shape (n, 2*dim); indices and
    targets are those of ``_pair_rows``.
    """
    rows1, rows2, rel_idx, targets = _pair_rows(store, pairs, relation_codes)
    return _gather_features(store.matrix, rows1, rows2), rel_idx, targets
