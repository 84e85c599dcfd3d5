from hypothesis import given, strategies as st

from grpd.cohomology import (
    GroupGammaAction,
    bg_gamma_action,
    bg_hfp_decomposition,
    h1,
    skeletonize,
    validate_group_gamma_action,
)
from grpd.core import build_eg, components, validate_functor
from grpd.corpus import gamma_group_fixtures
from grpd.gamma import hfp, validate_gamma_action
from grpd.groups import cyclic_group, inversion_automorphism, symmetric_group
from grpd.suites import EXPECTED_BG
from grpd.twisted import InvolutiveGroupData, z1_theta
import reference


def twisted_z1(a):
    """Z1 of the involution, as ``z1_theta`` of the data with B = G."""
    return z1_theta(InvolutiveGroupData(a.group, a.bar, tuple(a.group.elements()))).elements


def test_fixtures_are_involutive():
    fixtures = gamma_group_fixtures()
    assert len(fixtures) == 12
    for a in fixtures:
        assert validate_group_gamma_action(a) == []
        assert validate_gamma_action(bg_gamma_action(a)) == []


def test_frozen_table_matches_brute_force():
    for a, (nz, nh, stabs) in zip(gamma_group_fixtures(), EXPECTED_BG):
        classes = reference.twisted_orbits(a.group, a.bar, a.group.elements())
        assert h1(a) == classes
        assert sum(len(c.members) for c in classes) == nz
        assert len(classes) == nh
        assert tuple(sorted(len(c.stabilizer) for c in classes)) == tuple(sorted(stabs))


def test_z1_h1_match_frozen_table():
    for a, (nz, nh, stabs) in zip(gamma_group_fixtures(), EXPECTED_BG):
        classes = h1(a)
        assert len(twisted_z1(a)) == nz
        assert len(classes) == nh
        assert tuple(sorted(len(c.stabilizer) for c in classes)) == tuple(sorted(stabs))


def test_h1_classes_partition_z1():
    for a in gamma_group_fixtures():
        classes = h1(a)
        seen = [s for c in classes for s in c.members]
        assert sorted(seen) == sorted(twisted_z1(a))
        for c in classes:
            assert c.representative == min(c.members)


def test_decomposition_is_a_weak_equivalence():
    for a in gamma_group_fixtures():
        d = bg_hfp_decomposition(a)
        assert d.is_weak_equivalence
        assert validate_functor(d.map) == []
        assert d.source.n_objects == len(d.classes)
        assert d.source.n_morphisms == sum(len(c.stabilizer) for c in d.classes)
        assert len(components(d.fixed_points.groupoid)) == len(d.classes)


def test_skeletonize_contractible():
    sk = skeletonize(build_eg(symmetric_group(3)))
    assert len(sk.parts) == 1
    assert sk.parts[0].automorphisms.order == 1
    assert sk.is_weak_equivalence


def test_skeletonize_fixed_points_of_s3_conjugation():
    a = gamma_group_fixtures()[8]
    assert a.group.name == "S3"
    sk = skeletonize(hfp(bg_gamma_action(a)).groupoid)
    assert sorted(p.automorphisms.order for p in sk.parts) == [2, 6]
    assert sk.is_weak_equivalence
    assert validate_functor(sk.map) == []


def test_concatenated_maps_match_the_offset_loops():
    for a in gamma_group_fixtures():
        fixed = hfp(bg_gamma_action(a)).groupoid
        for f, (source, obj_map, mor_map) in (
                (bg_hfp_decomposition(a).map, reference.decomposition_map(a)),
                (skeletonize(fixed).map, reference.skeleton_map(fixed))):
            assert (f.obj_map, f.mor_map) == (obj_map, mor_map)
            assert (f.dom.src, f.dom.tgt) == (source.src, source.tgt)


@given(st.integers(min_value=1, max_value=12))
def test_cyclic_inversion_closed_form(n):
    # s + bar(s) = 0 always holds, so Z1 is everything; classes are the
    # orbits of translation by 2Z/n
    g = cyclic_group(n)
    a = GroupGammaAction(group=g, bar=inversion_automorphism(g))
    classes = h1(a)
    assert len(twisted_z1(a)) == n
    if n % 2 == 1:
        assert len(classes) == 1
        assert [len(c.stabilizer) for c in classes] == [1]
    else:
        assert len(classes) == 2
        assert [len(c.stabilizer) for c in classes] == [2, 2]


def test_gl2_transpose_inverse_looks_like_s3():
    fixtures = gamma_group_fixtures()
    gl = fixtures[11]
    s3 = fixtures[7]
    assert gl.group.name == "GL2(F2)"
    assert (len(twisted_z1(gl)), len(h1(gl))) == (len(twisted_z1(s3)), len(h1(s3)))
