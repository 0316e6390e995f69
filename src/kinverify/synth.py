"""Synthetic embedding worlds with family pedigrees and a gender axis.

Each person carries a heritable identity vector and an embedding derived
from it:

    identity  = HERITABILITY * parent_mean + scale * eta_k / sqrt(k)
    embedding = normalize(express(identity, gender) + gender_weight * s * g)

where ``g`` is one global unit "gender axis" per world, ``s`` is +1 for
males and -1 for females, and ``eta_k`` is standard normal noise confined
to the first ``k = identity_dims`` coordinates. ``scale`` is NOISE_WEIGHT
for children and FOUNDER_SCALE times that for founders, so family lines
start with much more identity variation than each generation adds.
Founders use a zero parent mean; a child's is 0.5 * (father + mother) of
the parents' identity vectors. ``express`` flips the sign of a fixed
fraction of identity coordinates for females (one mask per world), modeling
that the same heritable traits surface differently in male and female faces.

Together these two ingredients reproduce the gender bias of real face
identification features: the gender term puts unrelated same-gender faces
closer in cosine distance than unrelated opposite-gender faces, and the
gendered expression makes opposite-gender kin pairs (FD, MS, SIBS, GFGD,
GMGS) nearly as distant as nonkin under cosine, while a comparator that
sees raw coordinates can undo the fixed flip and recover the heredity
signal.

Every family holds a grandfather, a grandmother, their child (the lineal
parent), a married-in spouse and 3 or 4 children (CHILDREN_CHOICES), so a world
instantiates all eleven relation types. Kin pairs are enumerated with the
children in role 2: sibling pairs among the children, parent-child pairs
from both parents, grandparent pairs from both grandparents through the
lineal parent. Families draw from per-family seed streams in a fixed
order; the latent arithmetic then runs in array passes, one generation at
a time, each row doing the operations it would get alone, so worlds replay
bit-identically for a given seed. The nonkin draws live in
:mod:`kinverify.data`: the eval nonkin pairs are ``resample_nonkin`` at
epoch 0, the draw training repeats each epoch, and each split's nonkin
triples swap every kin triple's child in one seeded pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    EmbeddingStore,
    PairLabel,
    PairSet,
    PersonRef,
    TriSample,
    TriSet,
    _KIN,
    _check_id,
    _nonkin_tris,
    _write_rows,
    resample_nonkin,
)
from .relations import GENDER_BY_MALE, GRANDPARENT_CHILD_INDEX, PARENT_CHILD_INDEX, Gender
from .relations import SIBLING_INDEX
from .seeding import DEFAULT_SEED, STREAM_FAMILY, STREAM_GENDER_AXIS, derive_rng

SPLITS = ("train", "val", "test")

# The world's fixed recipe (see the module docstring), this package's own tuning, not options.
CHILDREN_CHOICES = (3, 4)
HERITABILITY = 1.414
NOISE_WEIGHT = 0.33
FOUNDER_SCALE = 3.0


@dataclass(frozen=True)
class SynthConfig:
    dim: int = 64
    identity_dims: int = 32
    n_train_families: int = 900
    n_val_families: int = 90
    n_test_families: int = 90
    gender_weight: float = 0.45
    expression_flip_fraction: float = 0.55
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be at least 2, got {self.dim}")
        if not 1 <= self.identity_dims <= self.dim:
            raise ValueError("identity_dims must lie in [1, dim]")
        for name in ("n_train_families", "n_val_families", "n_test_families"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.gender_weight < np.inf:  # written so that NaN fails it
            raise ValueError("gender_weight must be non-negative and finite")
        if not 0.0 <= self.expression_flip_fraction <= 1.0:
            raise ValueError("expression_flip_fraction must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def families_per_split(self) -> dict[str, int]:
        return dict(zip(SPLITS, (self.n_train_families, self.n_val_families, self.n_test_families)))


@dataclass(frozen=True, slots=True)
class PedigreeEntry:
    person_id: str
    family_id: str
    gender: Gender
    father_id: str | None = None
    mother_id: str | None = None


@dataclass
class SynthWorld:
    store: EmbeddingStore
    kin_pairs: dict[str, PairSet]
    eval_pairs: dict[str, PairSet]
    tris: dict[str, TriSet]
    pedigree: tuple[PedigreeEntry, ...] = field(default_factory=tuple)


def expression_mask(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Signs applied to female identity vectors: a fixed fraction flips.

    The flip count is exact within the identity subspace, where it matters;
    the remaining coordinates keep sign +1.
    """
    mask = np.ones(config.dim, dtype=np.float64)
    k = config.identity_dims
    n_flip = int(round(config.expression_flip_fraction * k))
    mask[rng.permutation(k)[:n_flip]] = -1.0
    return mask


def _latent(
    noise: np.ndarray,
    parent_mean: np.ndarray | None,
    male: np.ndarray,
    gender_axis: np.ndarray,
    config: SynthConfig,
    flip_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm embeddings and heritable identities of a batch of people, one per row.

    The heritable identity is the weighted parent mean plus personal noise,
    confined to the first ``identity_dims`` coordinates (the standard normal
    rows of ``noise`` scaled by 1/sqrt(identity_dims), so its expected norm
    equals NOISE_WEIGHT). Founders (``parent_mean`` None) use a zero
    parent mean and draw their identity at FOUNDER_SCALE times the noise
    weight, so family lines start with far more identity variation than each
    generation adds. Females express the identity through the world's flip
    mask before the gender axis is added. Each row takes the operations of
    one person alone, so a row's bits do not depend on the rest of the batch.
    """
    k = config.identity_dims
    founders = parent_mean is None
    scale = FOUNDER_SCALE * NOISE_WEIGHT if founders else NOISE_WEIGHT
    identity = np.zeros((len(noise), config.dim), dtype=np.float64)
    identity[:, :k] = scale * noise / np.sqrt(k)
    if not founders:
        identity = identity + HERITABILITY * parent_mean
    signs = np.where(male, 1.0, -1.0)
    expression = np.where(male[:, None], 1.0, flip_mask)
    v = identity * expression + (config.gender_weight * signs)[:, None] * gender_axis
    norm = np.sqrt([row.dot(row) for row in v])  # np.linalg.norm's bits, row by row
    return v / norm[:, None], identity


def generate_world(config: SynthConfig) -> SynthWorld:
    """Generate a deterministic world: store, pair sets, tri sets, pedigree.

    Per split, ``kin_pairs`` holds the raw kin pairs (training resamples its
    own negatives each epoch) and ``eval_pairs`` holds a fixed 1:1 kin plus
    nonkin set drawn once with epoch 0, for calibration and reporting. Tri
    sets pair every kin (father, mother, child) triple with one nonkin
    triple whose child is swapped cross-family.
    """
    axis_rng = derive_rng(config.seed, STREAM_GENDER_AXIS)
    gender_axis = axis_rng.standard_normal(config.dim)
    gender_axis /= np.linalg.norm(gender_axis)
    flip_mask = expression_mask(config, axis_rng)

    n_families = sum(config.families_per_split().values())
    noise = np.empty((n_families * (4 + max(CHILDREN_CHOICES)), config.identity_dims))
    refs: list[PersonRef] = []
    pedigree: list[PedigreeEntry] = []
    # per generation: (row,) of a founder, (row, father row, mother row) of the rest
    founders: list[tuple] = []
    lineals: list[tuple] = []
    offspring: list[tuple] = []
    # per split, the kin links as flat (role 1 row, role 2 row, canonical relation index) runs
    split_kin: dict[str, list[int]] = {s: [] for s in SPLITS}
    split_children: dict[str, list[int]] = {s: [] for s in SPLITS}
    split_tri_kin: dict[str, list[TriSample]] = {s: [] for s in SPLITS}

    def add_person(pid, fid, male, rng, generation, parents=()) -> int:
        """Append a person's records and draw their noise; ``male`` is a bool."""
        row = len(refs)
        generation.append((row, *parents))
        rng.standard_normal(config.identity_dims, out=noise[row])
        gender = GENDER_BY_MALE[male]
        refs.append(PersonRef(pid, fid, gender))
        pedigree.append(PedigreeEntry(pid, fid, gender, *(refs[r].person_id for r in parents)))
        return row

    family_counter = 0
    for split, n_split in config.families_per_split().items():
        for j in range(n_split):
            rng = derive_rng(config.seed, STREAM_FAMILY, family_counter)
            family_counter += 1
            fid = f"{split}_f{j:04d}"
            gf = add_person(f"{fid}_gf", fid, True, rng, founders)
            gm = add_person(f"{fid}_gm", fid, False, rng, founders)
            lineal_male = not rng.integers(2)
            lineal = add_person(f"{fid}_p", fid, lineal_male, rng, lineals, (gf, gm))
            spouse = add_person(f"{fid}_sp", fid, not lineal_male, rng, founders)
            father, mother = (lineal, spouse) if lineal_male else (spouse, lineal)

            # the same draw as rng.choice(np.asarray(CHILDREN_CHOICES))
            n_children = CHILDREN_CHOICES[rng.integers(len(CHILDREN_CHOICES))]
            children: list[tuple[int, bool]] = []
            for c in range(n_children):
                cm = not rng.integers(2)
                child = add_person(f"{fid}_c{c}", fid, cm, rng, offspring, (father, mother))
                children.append((child, cm))
                split_children[split].append(child)

            kin = split_kin[split]
            for (c1, m1), (c2, m2) in itertools.combinations(children, 2):
                kin += (c1, c2, SIBLING_INDEX[m1][m2])
            for child, cm in children:
                kin += (father, child, PARENT_CHILD_INDEX[1][cm])
                kin += (mother, child, PARENT_CHILD_INDEX[0][cm])
                kin += (gf, child, GRANDPARENT_CHILD_INDEX[1][cm])
                kin += (gm, child, GRANDPARENT_CHILD_INDEX[0][cm])
                trio = (refs[father].person_id, refs[mother].person_id, refs[child].person_id)
                split_tri_kin[split].append(TriSample(*trio, GENDER_BY_MALE[cm], PairLabel.KIN))

    # identities generation by generation, each from its parents' finished ones
    male = np.array([ref.gender is Gender.MALE for ref in refs])
    matrix = np.empty((len(refs), config.dim))
    identity = np.empty_like(matrix)
    for generation in (founders, lineals, offspring):
        rows, *parents = (np.array(column) for column in zip(*generation))
        parent_mean = 0.5 * (identity[parents[0]] + identity[parents[1]]) if parents else None
        matrix[rows], identity[rows] = _latent(
            noise[rows], parent_mean, male[rows], gender_axis, config, flip_mask
        )
    store = EmbeddingStore(refs, matrix)

    ids = store.person_ids.__getitem__
    pool = np.array([row for s in SPLITS for row in split_children[s]], dtype=np.intp)
    kin_pairs: dict[str, PairSet] = {}
    eval_pairs: dict[str, PairSet] = {}
    tris: dict[str, TriSet] = {}
    for index, split in enumerate(SPLITS):
        rows1, rows2, rel = np.array(split_kin[split], dtype=np.intp).reshape(-1, 3).T
        id1, id2 = (tuple(map(ids, rows.tolist())) for rows in (rows1, rows2))
        kin_set = PairSet._from_columns(id1, id2, rel, np.full(len(rel), _KIN, dtype=np.int8))
        kin_pairs[split] = kin_set
        eval_pairs[split] = kin_set._then(resample_nonkin(kin_set, store, config.seed, 0))
        kin_tris = split_tri_kin[split]
        child_rows = np.array(split_children[split], dtype=np.intp)
        nonkin = _nonkin_tris(kin_tris, pool, child_rows, store, config.seed, index)
        tris[split] = TriSet(tuple(kin_tris) + nonkin)

    return SynthWorld(
        store=store,
        kin_pairs=kin_pairs,
        eval_pairs=eval_pairs,
        tris=tris,
        pedigree=tuple(pedigree),
    )


def save_pedigree(pedigree: tuple[PedigreeEntry, ...], path: str | Path) -> None:
    """Write a pedigree CSV; a bad id is rejected before any write."""
    for e in pedigree:
        for what in ("person_id", "family_id", "father_id", "mother_id"):
            if (value := getattr(e, what)) is not None:  # a founder has no parent ids
                _check_id(what, value)
    rows = (
        (e.person_id, e.family_id, e.gender.value, e.father_id or "", e.mother_id or "")
        for e in pedigree
    )
    _write_rows(path, "person_id,family_id,gender,father_id,mother_id", rows)
