import pytest

from kinverify.relations import (
    Gender,
    KinshipRelation,
    RELATION_ORDER,
    SYMMETRIC_RELATIONS,
    genders_match,
    relation_index,
    role2_gender,
)


def test_canonical_order_endpoints():
    assert relation_index(KinshipRelation.BB) == 0
    assert relation_index(KinshipRelation.GMGS) == 10
    assert len(RELATION_ORDER) == 11


def test_relation_index_is_bijection():
    assert {relation_index(r) for r in KinshipRelation} == set(range(len(RELATION_ORDER)))
    for r in KinshipRelation:
        assert RELATION_ORDER[relation_index(r)] is r


def test_symmetric_relations():
    assert SYMMETRIC_RELATIONS == {KinshipRelation.BB, KinshipRelation.SS, KinshipRelation.SIBS}


def test_role_genders():
    M, F = Gender.MALE, Gender.FEMALE
    assert genders_match(KinshipRelation.FD, M, F)
    assert not genders_match(KinshipRelation.FD, F, F)
    assert genders_match(KinshipRelation.BB, M, M)
    # SIBS takes either orientation of an opposite-gender pair
    assert genders_match(KinshipRelation.SIBS, M, F)
    assert genders_match(KinshipRelation.SIBS, F, M)
    assert not genders_match(KinshipRelation.SIBS, M, M)


def test_role2_gender():
    M, F = Gender.MALE, Gender.FEMALE
    assert role2_gender(KinshipRelation.FD, M) is F
    assert role2_gender(KinshipRelation.GMGS, F) is M
    assert role2_gender(KinshipRelation.SIBS, M) is F
    assert role2_gender(KinshipRelation.SIBS, F) is M


def test_gender_codes():
    assert Gender.from_code("M") is Gender.MALE
    assert Gender.MALE.opposite is Gender.FEMALE
    with pytest.raises(ValueError):
        Gender.from_code("X")
