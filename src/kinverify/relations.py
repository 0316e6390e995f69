"""Kinship relation taxonomy and encodings.

Eleven relation codes spanning same-generation (BB, SIBS, SS), parent-child
(FD, FS, MD, MS) and grandparent-grandchild (GFGD, GFGS, GMGD, GMGS) pairs.
``RELATION_ORDER`` fixes the canonical index 0..10 used everywhere: expert
ordering, report rows and serialized models all follow it.
"""

from __future__ import annotations

import enum


class Gender(enum.Enum):
    MALE = "M"
    FEMALE = "F"

    @property
    def opposite(self) -> "Gender":
        return Gender.FEMALE if self is Gender.MALE else Gender.MALE

    @classmethod
    def from_code(cls, code: str) -> "Gender":
        try:
            return cls(code)
        except ValueError:
            raise ValueError(f"unknown gender code {code!r}, expected 'M' or 'F'") from None


class KinshipRelation(enum.Enum):
    BB = "BB"
    SIBS = "SIBS"
    SS = "SS"
    FD = "FD"
    FS = "FS"
    MD = "MD"
    MS = "MS"
    GFGD = "GFGD"
    GFGS = "GFGS"
    GMGD = "GMGD"
    GMGS = "GMGS"

    @classmethod
    def from_code(cls, code: str) -> "KinshipRelation":
        try:
            return cls(code)
        except ValueError:
            known = ", ".join(r.value for r in cls)
            raise ValueError(f"unknown relation code {code!r}, expected one of {known}") from None


RELATION_ORDER: tuple[KinshipRelation, ...] = tuple(KinshipRelation)
CANONICAL_RELATION_CODES = tuple(r.value for r in RELATION_ORDER)

_INDEX = {relation: i for i, relation in enumerate(RELATION_ORDER)}

# Ordered (role1, role2) genders. SIBS accepts either orientation of an
# opposite-gender pair and therefore carries no fixed entry here.
_ROLE_GENDERS: dict[KinshipRelation, tuple[Gender, Gender]] = {
    KinshipRelation.BB: (Gender.MALE, Gender.MALE),
    KinshipRelation.SS: (Gender.FEMALE, Gender.FEMALE),
    KinshipRelation.FD: (Gender.MALE, Gender.FEMALE),
    KinshipRelation.FS: (Gender.MALE, Gender.MALE),
    KinshipRelation.MD: (Gender.FEMALE, Gender.FEMALE),
    KinshipRelation.MS: (Gender.FEMALE, Gender.MALE),
    KinshipRelation.GFGD: (Gender.MALE, Gender.FEMALE),
    KinshipRelation.GFGS: (Gender.MALE, Gender.MALE),
    KinshipRelation.GMGD: (Gender.FEMALE, Gender.FEMALE),
    KinshipRelation.GMGS: (Gender.FEMALE, Gender.MALE),
}

# The relation of an (elder, child) pair, by (elder gender, child gender). Canonical
# positions 3-6 are the parent-child relations and 7-10 the grandparent ones.
PARENT_CHILD = {_ROLE_GENDERS[r]: r for r in RELATION_ORDER[3:7]}
GRANDPARENT_CHILD = {_ROLE_GENDERS[r]: r for r in RELATION_ORDER[7:]}
# The relation of two siblings, by their genders in either order.
SIBLING = {(g1, g2): KinshipRelation.SIBS for g1 in Gender for g2 in Gender if g1 is not g2}
SIBLING |= {_ROLE_GENDERS[r]: r for r in (KinshipRelation.BB, KinshipRelation.SS)}

SYMMETRIC_RELATIONS = frozenset(SIBLING.values())

# The three as canonical indices by the male flags of role 1 and 2: no lookup hashes an Enum.
GENDER_BY_MALE = (Gender.FEMALE, Gender.MALE)
SIBLING_INDEX, PARENT_CHILD_INDEX, GRANDPARENT_CHILD_INDEX = (
    tuple(tuple(_INDEX[table[g1, g2]] for g2 in GENDER_BY_MALE) for g1 in GENDER_BY_MALE)
    for table in (SIBLING, PARENT_CHILD, GRANDPARENT_CHILD)
)


def relation_index(relation: KinshipRelation) -> int:
    """Canonical index of ``relation``: BB is 0, GMGS is 10."""
    return _INDEX[relation]


def genders_match(relation: KinshipRelation, gender1: Gender, gender2: Gender) -> bool:
    """True when (gender1, gender2) is a valid role assignment for ``relation``."""
    if relation is KinshipRelation.SIBS:
        return gender1 is not gender2
    return _ROLE_GENDERS[relation] == (gender1, gender2)


def role2_gender(relation: KinshipRelation, gender1: Gender) -> Gender:
    """Gender required of the second role, given the first person's gender."""
    if relation is KinshipRelation.SIBS:
        return gender1.opposite
    return _ROLE_GENDERS[relation][1]
