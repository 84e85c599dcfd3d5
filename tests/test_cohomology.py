from hypothesis import given, strategies as st

from grpd.cohomology import (
    GroupGammaAction,
    bg_gamma_action,
    bg_hfp_decomposition,
    h1,
    skeletonize,
    validate_group_gamma_action,
)
from grpd.core import (
    automorphism_group,
    build_bg,
    build_eg,
    components,
    disjoint_union,
    is_weak_equivalence,
    union_offsets,
    validate_functor,
)
from grpd.corpus import gamma_group_fixtures, group_catalog
from grpd.gamma import hfp, validate_gamma_action
from grpd.groups import cyclic_group, induced_subgroup, inversion_automorphism, symmetric_group
from grpd.suites import EXPECTED_BG
from grpd.twisted import InvolutiveGroupData, z1_theta


def twisted_z1(a):
    """Z1 of the involution, as ``z1_theta`` of the data with B = G."""
    return z1_theta(InvolutiveGroupData(a.group, a.bar, tuple(a.group.elements()))).elements


def brute_classes(a):
    """Recompute the orbit partition and stabilizers directly from the group."""
    g = a.group
    cocycles = [s for s in g.elements() if g.mul(s, a.bar[s]) == g.identity]
    twist = {
        s: {g.mul(g.mul(a.bar[x], s), g.inv(x)) for x in g.elements()}
        for s in cocycles
    }
    orbits = []
    for s in cocycles:
        if any(s in o for o in orbits):
            continue
        orbit = {s}
        while True:
            grown = set().union(*(twist[t] for t in orbit))
            if grown <= orbit:
                break
            orbit |= grown
        orbits.append(orbit)
    stabs = {
        min(o): sum(
            1 for x in g.elements()
            if g.mul(g.mul(a.bar[x], min(o)), g.inv(x)) == min(o))
        for o in orbits
    }
    return cocycles, orbits, stabs


def test_fixtures_are_involutive():
    fixtures = gamma_group_fixtures()
    assert len(fixtures) == 12
    for a in fixtures:
        assert validate_group_gamma_action(a) == []
        assert validate_gamma_action(bg_gamma_action(a)) == []


def test_frozen_table_matches_brute_force():
    for a, (nz, nh, stabs) in zip(gamma_group_fixtures(), EXPECTED_BG):
        cocycles, orbits, stab_by_rep = brute_classes(a)
        assert len(cocycles) == nz
        assert len(orbits) == nh
        assert tuple(sorted(stab_by_rep.values())) == tuple(sorted(stabs))


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


def reference_union_map(summands, targets, morphisms):
    """The map out of ``disjoint_union(summands)`` as ``bg_hfp_decomposition``
    and ``skeletonize`` built it, summand by summand through the offsets:
    ``(source, obj_map, mor_map)``."""
    source = disjoint_union(summands)
    obj_off, mor_off = union_offsets(summands)
    obj_map = [0] * source.n_objects
    mor_map = [0] * source.n_morphisms
    for i, (x, mors) in enumerate(zip(targets, morphisms)):
        obj_map[obj_off[i]] = x
        for k, mor in enumerate(mors):
            mor_map[mor_off[i] + k] = mor
    return source, tuple(obj_map), tuple(mor_map)


def reference_decomposition_map(a):
    fp = hfp(bg_gamma_action(a))
    summands, targets, morphisms = [], [], []
    for cls in h1(a):
        sub, emb = induced_subgroup(a.group, cls.stabilizer)
        summands.append(build_bg(sub))
        targets.append(fp.object_id(0, cls.representative))
        morphisms.append([fp.morphism_id(targets[-1], g) for g in emb])
    return reference_union_map(summands, targets, morphisms)


def reference_skeleton_map(g):
    summands, targets, morphisms = [], [], []
    for cls in components(g):
        grp, mors = automorphism_group(g, cls[0])
        summands.append(build_bg(grp))
        targets.append(cls[0])
        morphisms.append(mors)
    return reference_union_map(summands, targets, morphisms)


def test_concatenated_maps_match_the_offset_loops():
    for a in gamma_group_fixtures():
        fixed = hfp(bg_gamma_action(a)).groupoid
        for f, (source, obj_map, mor_map) in (
                (bg_hfp_decomposition(a).map, reference_decomposition_map(a)),
                (skeletonize(fixed).map, reference_skeleton_map(fixed))):
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
