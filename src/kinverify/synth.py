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
lineal parent. Families are generated from per-family seed streams, so
worlds replay bit-identically for a given seed.
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
    _cross_family_draw,
    _write_rows,
    resample_nonkin,
)
from .relations import GRANDPARENT_CHILD, PARENT_CHILD, Gender, KinshipRelation
from .seeding import (
    STREAM_FAMILY,
    STREAM_GENDER_AXIS,
    STREAM_TRI,
    derive_rng,
)

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

    def validate(self) -> None:
        if self.dim < 2:
            raise ValueError(f"dim must be at least 2, got {self.dim}")
        if not 1 <= self.identity_dims <= self.dim:
            raise ValueError("identity_dims must lie in [1, dim]")
        for name in ("n_train_families", "n_val_families", "n_test_families"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not self.children_choices or min(self.children_choices) < 2:
            raise ValueError("children_choices must contain integers >= 2")
        weights = (self.heritability, self.gender_weight, self.noise_weight)
        if any(w < 0 for w in weights):
            raise ValueError("latent weights must be non-negative")
        if sum(weights) <= 0:
            raise ValueError("at least one latent weight must be positive")
        if self.founder_scale <= 0:
            raise ValueError("founder_scale must be positive")
        if not 0.0 <= self.expression_flip_fraction <= 1.0:
            raise ValueError("expression_flip_fraction must lie in [0, 1]")
        if self.parent_blend not in ("mean", "convex"):
            raise ValueError(f"unknown parent_blend {self.parent_blend!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def families_per_split(self) -> dict[str, int]:
        return dict(zip(SPLITS, (self.n_train_families, self.n_val_families, self.n_test_families)))


@dataclass(frozen=True)
class PedigreeEntry:
    person_id: str
    family_id: str
    gender: Gender
    father_id: str | None = None
    mother_id: str | None = None


@dataclass
class SynthWorld:
    config: SynthConfig
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


def make_person(
    gender: Gender,
    parent_mean: np.ndarray | None,
    gender_axis: np.ndarray,
    config: SynthConfig,
    rng: np.random.Generator,
    flip_mask: np.ndarray | None = None,
    return_identity: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Draw one unit-norm embedding from the latent model.

    The heritable identity is the weighted parent mean plus personal noise,
    confined to the first ``identity_dims`` coordinates (standard normal
    scaled by 1/sqrt(identity_dims), so its expected norm equals the noise
    weight). Founders use a zero parent mean and draw their identity at
    ``founder_scale`` times the noise weight, so family lines start with
    far more identity variation than each generation adds. Females express
    the identity through the world's flip mask before the gender axis is
    added. With ``return_identity`` the unexpressed identity comes back
    too, for building descendants.
    """
    sign = 1.0 if gender is Gender.MALE else -1.0
    k = config.identity_dims
    scale = config.noise_weight if parent_mean is not None else config.founder_scale * config.noise_weight
    identity = np.zeros(config.dim, dtype=np.float64)
    identity[:k] = scale * rng.standard_normal(k) / np.sqrt(k)
    if parent_mean is not None:
        identity = identity + config.heritability * parent_mean
    expressed = identity
    if flip_mask is not None and gender is Gender.FEMALE:
        expressed = identity * flip_mask
    v = expressed + config.gender_weight * sign * gender_axis
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("degenerate latent configuration produced a zero embedding")
    v = v / norm
    return (v, identity) if return_identity else v


def _sibling_relation(g1: Gender, g2: Gender) -> KinshipRelation:
    if g1 is g2:
        return KinshipRelation.BB if g1 is Gender.MALE else KinshipRelation.SS
    return KinshipRelation.SIBS


def generate_world(config: SynthConfig) -> SynthWorld:
    """Generate a deterministic world: store, pair sets, tri sets, pedigree.

    Per split, ``kin_pairs`` holds the raw kin pairs (training resamples its
    own negatives each epoch) and ``eval_pairs`` holds a fixed 1:1 kin plus
    nonkin set drawn once with epoch 0, for calibration and reporting. Tri
    sets pair every kin (father, mother, child) triple with one nonkin
    triple whose child is swapped cross-family.
    """
    config.validate()
    axis_rng = derive_rng(config.seed, STREAM_GENDER_AXIS)
    gender_axis = axis_rng.standard_normal(config.dim)
    gender_axis /= np.linalg.norm(gender_axis)
    flip_mask = expression_mask(config, axis_rng)

    rows: list[tuple[PersonRef, np.ndarray]] = []
    pedigree: list[PedigreeEntry] = []
    split_kin: dict[str, list[KinPair]] = {s: [] for s in SPLITS}
    split_children: dict[str, list[str]] = {s: [] for s in SPLITS}
    split_tri_kin: dict[str, list[TriSample]] = {s: [] for s in SPLITS}

    def blend(father_vec: np.ndarray, mother_vec: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if config.parent_blend == "convex":
            lam = rng.uniform()
            return lam * father_vec + (1.0 - lam) * mother_vec
        return 0.5 * (father_vec + mother_vec)

    family_counter = 0
    identities: dict[str, np.ndarray] = {}

    def add_person(
        pid: str,
        family_id: str,
        gender: Gender,
        parent_mean: np.ndarray | None,
        rng: np.random.Generator,
        father_id: str | None = None,
        mother_id: str | None = None,
    ) -> None:
        vec, identity = make_person(
            gender, parent_mean, gender_axis, config, rng, flip_mask, return_identity=True
        )
        rows.append((PersonRef(pid, family_id, gender), vec))
        identities[pid] = identity
        pedigree.append(PedigreeEntry(pid, family_id, gender, father_id, mother_id))

    for split, n_families in config.families_per_split().items():
        for j in range(n_families):
            rng = derive_rng(config.seed, STREAM_FAMILY, family_counter)
            family_counter += 1
            fid = f"{split}_f{j:04d}"
            gf, gm = f"{fid}_gf", f"{fid}_gm"
            add_person(gf, fid, Gender.MALE, None, rng)
            add_person(gm, fid, Gender.FEMALE, None, rng)

            lineal_gender = Gender.MALE if rng.integers(2) == 0 else Gender.FEMALE
            lineal, spouse = f"{fid}_p", f"{fid}_sp"
            add_person(
                lineal,
                fid,
                lineal_gender,
                blend(identities[gf], identities[gm], rng),
                rng,
                father_id=gf,
                mother_id=gm,
            )
            add_person(spouse, fid, lineal_gender.opposite, None, rng)
            father = lineal if lineal_gender is Gender.MALE else spouse
            mother = spouse if lineal_gender is Gender.MALE else lineal

            n_children = int(rng.choice(np.asarray(config.children_choices)))
            children: list[tuple[str, Gender]] = []
            for c in range(n_children):
                cid = f"{fid}_c{c}"
                cg = Gender.MALE if rng.integers(2) == 0 else Gender.FEMALE
                add_person(
                    cid,
                    fid,
                    cg,
                    blend(identities[father], identities[mother], rng),
                    rng,
                    father_id=father,
                    mother_id=mother,
                )
                children.append((cid, cg))
                split_children[split].append(cid)

            kin = split_kin[split]
            for a in range(len(children)):
                for b in range(a + 1, len(children)):
                    c1, g1 = children[a]
                    c2, g2 = children[b]
                    kin.append(KinPair(c1, c2, _sibling_relation(g1, g2), PairLabel.KIN))
            for cid, cg in children:
                kin.append(KinPair(father, cid, PARENT_CHILD[(Gender.MALE, cg)], PairLabel.KIN))
                kin.append(KinPair(mother, cid, PARENT_CHILD[(Gender.FEMALE, cg)], PairLabel.KIN))
                kin.append(KinPair(gf, cid, GRANDPARENT_CHILD[(Gender.MALE, cg)], PairLabel.KIN))
                kin.append(KinPair(gm, cid, GRANDPARENT_CHILD[(Gender.FEMALE, cg)], PairLabel.KIN))
                split_tri_kin[split].append(
                    TriSample(father, mother, cid, cg, PairLabel.KIN)
                )

    store = EmbeddingStore(config.dim, rows)

    kin_pairs: dict[str, PairSet] = {}
    eval_pairs: dict[str, PairSet] = {}
    tris: dict[str, TriSet] = {}
    for split in SPLITS:
        kin_set = PairSet(tuple(split_kin[split]))
        kin_pairs[split] = kin_set
        nonkin = resample_nonkin(kin_set, store, config.seed, 0)
        eval_pairs[split] = PairSet(kin_set.pairs + nonkin.pairs)
        tris[split] = _with_nonkin_tris(
            split_tri_kin[split], split_children, store, config.seed, split
        )

    return SynthWorld(
        config=config,
        store=store,
        kin_pairs=kin_pairs,
        eval_pairs=eval_pairs,
        tris=tris,
        pedigree=tuple(pedigree),
    )


def _with_nonkin_tris(
    kin_tris: list[TriSample],
    split_children: dict[str, list[str]],
    store: EmbeddingStore,
    seed: int,
    split: str,
) -> TriSet:
    """Pair each kin triple with a nonkin one: same parents, swapped child.

    The replacement child has the same gender, comes from a different
    family and is itself a child (not a founder), drawn from the whole
    world's child pool, in store order, in one seeded pass per split.
    """
    pool = np.sort(np.array([store.row(cid) for s in SPLITS for cid in split_children[s]]))
    want = np.array([t.child_gender is Gender.MALE for t in kin_tris], dtype=np.intp)
    child_rows = np.array([store.row(t.child_id) for t in kin_tris], dtype=np.intp)
    sizes, draw = _cross_family_draw(store, pool, want, child_rows)
    if not sizes.all():
        gender = kin_tris[int(np.argmin(sizes))].child_gender
        raise ValueError(f"no cross-family child of gender {gender.value}")
    ids = store.person_ids
    swapped = draw(derive_rng(seed, STREAM_TRI, SPLITS.index(split)))
    nonkin = (
        TriSample(t.father_id, t.mother_id, ids[r], t.child_gender, PairLabel.NONKIN)
        for t, r in zip(kin_tris, swapped.tolist())
    )
    return TriSet(tuple(kin_tris) + tuple(nonkin))


def save_pedigree(pedigree: tuple[PedigreeEntry, ...], path: str | Path) -> None:
    rows = (
        (e.person_id, e.family_id, e.gender.value, e.father_id or "", e.mother_id or "")
        for e in pedigree
    )
    _write_rows(path, "person_id,family_id,gender,father_id,mother_id", rows)
