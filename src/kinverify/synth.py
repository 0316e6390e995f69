"""Synthetic embedding worlds with family pedigrees and a gender axis.

Each person carries a heritable identity vector and an embedding derived
from it:

    identity  = w_h * parent_mean + scale * eta_k / sqrt(k)
    embedding = normalize(express(identity, gender) + w_g * s * g)

where ``g`` is one global unit "gender axis" per world, ``s`` is +1 for
males and -1 for females, and ``eta_k`` is standard normal noise confined
to the first ``k = identity_dims`` coordinates. ``scale`` is the noise
weight for children and founder_scale times that for founders, so family
lines start with much more identity variation than each generation adds.
Founders use a zero parent mean; children inherit the mean of both
parents' identity vectors. ``express`` flips the sign of a fixed fraction
of identity coordinates for females (one mask per world), modeling that
the same heritable traits surface differently in male and female faces.

Together these two ingredients reproduce the gender bias of real face
identification features: the gender term puts unrelated same-gender faces
closer in cosine distance than unrelated opposite-gender faces, and the
gendered expression makes opposite-gender kin pairs (FD, MS, SIBS, GFGD,
GMGS) nearly as distant as nonkin under cosine, while a comparator that
sees raw coordinates can undo the fixed flip and recover the heredity
signal.

Every family holds a grandfather, a grandmother, their child (the lineal
parent), a married-in spouse and two or more children, so a world
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

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    EmbeddingStore,
    KinPair,
    PairLabel,
    PairSet,
    PersonRef,
    TriSample,
    TriSet,
    _check_id,
    _nonkin_tris,
    _write_rows,
    resample_nonkin,
)
from .relations import GRANDPARENT_CHILD, PARENT_CHILD, SIBLING, Gender, KinshipRelation
from .seeding import STREAM_FAMILY, STREAM_GENDER_AXIS, derive_rng

SPLITS = ("train", "val", "test")


@dataclass(frozen=True)
class SynthConfig:
    dim: int = 64
    identity_dims: int = 32
    n_train_families: int = 900
    n_val_families: int = 90
    n_test_families: int = 90
    children_choices: tuple[int, ...] = (3, 4)
    heritability: float = 1.414
    gender_weight: float = 0.45
    noise_weight: float = 0.33
    founder_scale: float = 3.0
    expression_flip_fraction: float = 0.55
    parent_blend: str = "mean"  # "mean" or "convex"
    seed: int = 4

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be at least 2, got {self.dim}")
        if not 1 <= self.identity_dims <= self.dim:
            raise ValueError("identity_dims must lie in [1, dim]")
        for name in ("n_train_families", "n_val_families", "n_test_families"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not self.children_choices or min(self.children_choices) < 2:
            raise ValueError("children_choices must contain integers >= 2")
        # written so that NaN fails them
        weights = (self.heritability, self.gender_weight, self.noise_weight)
        if not all(0 <= w < np.inf for w in weights):
            raise ValueError("latent weights must be non-negative and finite")
        if not sum(weights) > 0:
            raise ValueError("at least one latent weight must be positive")
        if not 0 < self.founder_scale < np.inf:
            raise ValueError("founder_scale must be positive and finite")
        if not 0.0 <= self.expression_flip_fraction <= 1.0:
            raise ValueError("expression_flip_fraction must lie in [0, 1]")
        if self.parent_blend not in ("mean", "convex"):
            raise ValueError(f"unknown parent_blend {self.parent_blend!r}")
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
    equals the noise weight). Founders (``parent_mean`` None) use a zero
    parent mean and draw their identity at ``founder_scale`` times the noise
    weight, so family lines start with far more identity variation than each
    generation adds. Females express the identity through the world's flip
    mask before the gender axis is added. Each row takes the operations of
    one person alone, so a row's bits do not depend on the rest of the batch.
    """
    k = config.identity_dims
    founders = parent_mean is None
    scale = config.founder_scale * config.noise_weight if founders else config.noise_weight
    identity = np.zeros((len(noise), config.dim), dtype=np.float64)
    identity[:, :k] = scale * noise / np.sqrt(k)
    if not founders:
        identity = identity + config.heritability * parent_mean
    signs = np.where(male, 1.0, -1.0)
    expression = np.where(male[:, None], 1.0, flip_mask)
    v = identity * expression + (config.gender_weight * signs)[:, None] * gender_axis
    norm = np.sqrt([row.dot(row) for row in v])  # np.linalg.norm's bits, row by row
    if not norm.all():
        raise ValueError("degenerate latent configuration produced a zero embedding")
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

    convex = config.parent_blend == "convex"
    n_families = sum(config.families_per_split().values())
    noise = np.empty((n_families * (4 + max(config.children_choices)), config.identity_dims))
    refs: list[PersonRef] = []
    pedigree: list[PedigreeEntry] = []
    # per generation: (row,) of a founder, (row, father row, mother row, convex weight) of the rest
    founders: list[tuple] = []
    lineals: list[tuple] = []
    offspring: list[tuple] = []
    split_kin: dict[str, list[tuple[int, int, KinshipRelation]]] = {s: [] for s in SPLITS}
    split_children: dict[str, list[int]] = {s: [] for s in SPLITS}
    split_tri_kin: dict[str, list[TriSample]] = {s: [] for s in SPLITS}

    def add_person(pid, fid, gender, rng, generation, parents=()) -> int:
        """Append a person's records, drawing a child's convex weight, then the noise."""
        row = len(refs)
        generation.append((row, *parents, rng.uniform() if convex else 0.5) if parents else (row,))
        rng.standard_normal(config.identity_dims, out=noise[row])
        refs.append(PersonRef(pid, fid, gender))
        pedigree.append(PedigreeEntry(pid, fid, gender, *(refs[r].person_id for r in parents)))
        return row

    family_counter = 0
    for split, n_split in config.families_per_split().items():
        for j in range(n_split):
            rng = derive_rng(config.seed, STREAM_FAMILY, family_counter)
            family_counter += 1
            fid = f"{split}_f{j:04d}"
            gf = add_person(f"{fid}_gf", fid, Gender.MALE, rng, founders)
            gm = add_person(f"{fid}_gm", fid, Gender.FEMALE, rng, founders)
            lineal_gender = Gender.MALE if rng.integers(2) == 0 else Gender.FEMALE
            lineal = add_person(f"{fid}_p", fid, lineal_gender, rng, lineals, (gf, gm))
            spouse = add_person(f"{fid}_sp", fid, lineal_gender.opposite, rng, founders)
            father, mother = (lineal, spouse) if lineal_gender is Gender.MALE else (spouse, lineal)

            # the same draw as rng.choice(np.asarray(children_choices))
            n_children = config.children_choices[rng.integers(len(config.children_choices))]
            children: list[tuple[int, Gender]] = []
            for c in range(n_children):
                cg = Gender.MALE if rng.integers(2) == 0 else Gender.FEMALE
                child = add_person(f"{fid}_c{c}", fid, cg, rng, offspring, (father, mother))
                children.append((child, cg))
                split_children[split].append(child)

            kin = split_kin[split]
            for a in range(len(children)):
                for b in range(a + 1, len(children)):
                    (c1, g1), (c2, g2) = children[a], children[b]
                    kin.append((c1, c2, SIBLING[g1, g2]))
            for child, cg in children:
                kin.append((father, child, PARENT_CHILD[(Gender.MALE, cg)]))
                kin.append((mother, child, PARENT_CHILD[(Gender.FEMALE, cg)]))
                kin.append((gf, child, GRANDPARENT_CHILD[(Gender.MALE, cg)]))
                kin.append((gm, child, GRANDPARENT_CHILD[(Gender.FEMALE, cg)]))
                trio = (refs[father].person_id, refs[mother].person_id, refs[child].person_id)
                split_tri_kin[split].append(TriSample(*trio, cg, PairLabel.KIN))

    # identities generation by generation, each from its parents' finished ones
    male = np.array([ref.gender is Gender.MALE for ref in refs])
    matrix = np.empty((len(refs), config.dim))
    identity = np.empty_like(matrix)
    for generation in (founders, lineals, offspring):
        rows, *parents = (np.array(column) for column in zip(*generation))
        parent_mean = None
        if parents:  # "mean" is the convex blend at weight 1/2, with the same bits as 0.5 * (f + m)
            father, mother, lam = parents[0], parents[1], parents[2][:, None]
            parent_mean = lam * identity[father] + (1.0 - lam) * identity[mother]
        matrix[rows], identity[rows] = _latent(
            noise[rows], parent_mean, male[rows], gender_axis, config, flip_mask
        )
    store = EmbeddingStore(refs, matrix)

    ids = store.person_ids
    pool = np.array([row for s in SPLITS for row in split_children[s]], dtype=np.intp)
    kin_pairs: dict[str, PairSet] = {}
    eval_pairs: dict[str, PairSet] = {}
    tris: dict[str, TriSet] = {}
    for index, split in enumerate(SPLITS):
        links = split_kin[split]
        kin_set = PairSet(tuple(KinPair(ids[a], ids[b], rel, PairLabel.KIN) for a, b, rel in links))
        kin_pairs[split] = kin_set
        nonkin_set = resample_nonkin(kin_set, store, config.seed, 0)
        eval_pairs[split] = PairSet(kin_set.pairs + nonkin_set.pairs)
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
