from fractions import Fraction
from itertools import permutations

from grpd.cohomology import GroupGammaAction, bg_hfp_decomposition, h1
from grpd.core import InvariantViolation, groupoid_cardinality, validate_functor
from grpd.corpus import gamma_group_fixtures, group_catalog, involutive_fixtures
from grpd.gamma import validate_gamma_action
from grpd.groups import (
    conjugation_automorphism,
    identity_automorphism,
    is_involutive_automorphism,
    symmetric_group,
)
from grpd.suites import EXPECTED_TWISTED
from grpd.twisted import (
    InvolutiveGroupData,
    _double_coset,
    build_double_coset_groupoid,
    parameter_fibration,
    twisted_orbits,
    validate_involutive_data,
    xy_isomorphism,
    z1_theta,
)
import reference


def test_fixtures_validate():
    fixtures = involutive_fixtures()
    assert len(fixtures) == 11
    for d in fixtures:
        assert validate_involutive_data(d) == []


def test_invalid_data_is_reported():
    s3 = symmetric_group(3)
    shift = tuple((x + 1) % 6 for x in range(6))
    assert validate_involutive_data(
        InvolutiveGroupData(group=s3, theta=shift, b_elements=(0,))) != []
    # subgroup not stable under theta
    from grpd.corpus import _transpose_inverse, group_catalog
    gl = group_catalog()["GL2F2"]
    from grpd.groups import gl2_f2_upper_triangular
    bad = InvolutiveGroupData(group=gl, theta=_transpose_inverse(gl),
                              b_elements=gl2_f2_upper_triangular(gl))
    assert validate_involutive_data(bad) != []


def reference_orbits(d):
    return reference.twisted_orbits(d.group, d.theta, d.b_elements)


def test_cocycles_and_orbits_match_brute_force():
    for d in involutive_fixtures():
        want = reference_orbits(d)
        assert z1_theta(d).elements == tuple(sorted(x for o in want for x in o.members))
        assert twisted_orbits(d) == want


def test_frozen_table():
    for d, (nz, pairs, nx, ny, card) in zip(involutive_fixtures(),
                                            EXPECTED_TWISTED):
        zs = z1_theta(d)
        orbits = twisted_orbits(d)
        corr = xy_isomorphism(d)
        assert len(zs.elements) == nz
        assert tuple(sorted((len(o.members), len(o.stabilizer))
                            for o in orbits)) == pairs
        assert len(corr.x_elements) == nx
        assert len(corr.y_elements) == ny
        pf = parameter_fibration(d)
        assert groupoid_cardinality(pf.target) == card


def test_parameter_fibration_is_acyclic_on_all_fixtures():
    for d in involutive_fixtures():
        pf = parameter_fibration(d)
        assert validate_functor(pf.map) == []
        assert pf.is_fibration
        assert pf.is_weak_equivalence
        assert pf.is_acyclic_fibration
        assert len(pf.fixed_points.objects) == len(xy_isomorphism(d).x_elements)


def test_xy_maps_are_mutually_inverse():
    for d in involutive_fixtures()[:4]:
        corr = xy_isomorphism(d)
        assert len(corr.x_elements) == len(corr.y_elements)
        for i in range(len(corr.x_elements)):
            assert corr.backward[corr.forward[i]] == i


def test_double_coset_groupoid_is_a_valid_gamma_action():
    for d in involutive_fixtures()[:4]:
        a = build_double_coset_groupoid(d)
        assert validate_gamma_action(a) == []


def test_s3_reflection_fixture_pinned_values():
    d = involutive_fixtures()[5]
    pf = parameter_fibration(d)
    assert len(pf.fixed_points.objects) == 8
    assert len(pf.orbits) == 3
    assert groupoid_cardinality(pf.target) == Fraction(2)
    assert pf.is_acyclic_fibration


def test_full_subgroup_recovers_cocycle_classes():
    # with B = G and theta = id, twisted conjugation is plain conjugation,
    # so the orbits are the nonabelian cocycle classes
    s3 = symmetric_group(3)
    d = InvolutiveGroupData(group=s3, theta=identity_automorphism(s3),
                            b_elements=tuple(s3.elements()))
    a = GroupGammaAction(group=s3, bar=identity_automorphism(s3))
    assert (sorted(frozenset(o.members) for o in twisted_orbits(d))
            == sorted(frozenset(c.members) for c in h1(a)))
    pf = parameter_fibration(d)
    assert pf.is_acyclic_fibration
    assert groupoid_cardinality(pf.target) == Fraction(2, 3)


def differential_inputs():
    """The involutive fixtures, the group fixtures with B = G, and S4 and S5
    under conjugation by the transpositions 1 and 2."""
    out = list(involutive_fixtures())
    for a in gamma_group_fixtures():
        out.append(InvolutiveGroupData(a.group, a.bar, tuple(a.group.elements())))
    for n in (4, 5):
        g = symmetric_group(n)
        for s in (1, 2):
            theta = conjugation_automorphism(g, s)
            if is_involutive_automorphism(g, theta):
                out.append(InvolutiveGroupData(g, theta, tuple(g.elements())))
    return out


def test_orbits_from_components_match_the_orbit_search():
    inputs = differential_inputs()
    assert len(inputs) == 27
    for d in inputs:
        assert twisted_orbits(d) == reference_orbits(d)
    for d in involutive_fixtures():
        assert list(parameter_fibration(d).orbits) == reference_orbits(d)


# The two-sided rows against the references, which write out each product
# x -> l x r^-1 by ``mul`` and ``inv``.

def fast_double_coset(d):
    dc = _double_coset(d)
    return dc.action.act_table, dc.gamma.bar_obj, dc.gamma.bar_mor


def fast_z1_theta(d):
    zs = z1_theta(d)
    return zs.elements, zs.b_embedding, zs.action.act_table


def fast_xy(d):
    c = xy_isomorphism(d)
    return (c.x_elements, c.y_elements, c.forward, c.backward,
            c.x_action.act_table, c.y_action.act_table)


def fast_parameter_fibration(d):
    f = parameter_fibration(d).map
    return f.obj_map, f.mor_map


def outcome(construct, d):
    """What ``construct`` returns, or the type and message of what it raises."""
    try:
        return construct(d)
    except (InvariantViolation, KeyError, ValueError) as e:
        return type(e), str(e)


def test_two_sided_rows_match_the_entrywise_constructions():
    # the pair presentations of S5 with B = G have 14 400 pairs acting on
    # 3 120 points, too large for the entrywise loops in a unit test
    for d in differential_inputs():
        g = d.group
        assert fast_z1_theta(d) == reference.z1_theta(d)
        if g.order <= 24:
            assert fast_double_coset(d) == reference.double_coset(d)
            assert fast_xy(d) == reference.xy_isomorphism(d)
    for d in involutive_fixtures():
        assert fast_parameter_fibration(d) == reference.parameter_fibration(d)
    for n in (4, 5):
        g = symmetric_group(n)
        for s in g.elements():
            assert conjugation_automorphism(g, s) == reference.conjugation_automorphism(g, s)


def test_every_twisted_datum_of_the_small_catalog_groups():
    # every involutive automorphism of every catalog group of order <= 8 and
    # every subgroup it preserves
    n_theta = n_pairs = 0
    for g in group_catalog().values():
        subgroups = reference.subgroups(g)
        for theta in reference.involutive_automorphisms(g):
            n_theta += 1
            dec = bg_hfp_decomposition(GroupGammaAction(group=g, bar=theta))
            assert list(dec.classes) == reference.twisted_orbits(g, theta, g.elements())
            for b in subgroups:
                if any(theta[x] not in b for x in b):
                    continue
                n_pairs += 1
                d = InvolutiveGroupData(g, theta, b)
                want = reference_orbits(d)
                assert z1_theta(d).elements == tuple(sorted(x for o in want for x in o.members))
                assert twisted_orbits(d) == want
                pf = parameter_fibration(d)
                assert pf.is_acyclic_fibration
                corr = pf.correspondence
                assert (len(corr.x_elements) == len(corr.y_elements)
                        == len(pf.fixed_points.objects))
    assert (n_theta, n_pairs) == (26, 111)


def test_invalid_data_raises_what_the_entrywise_constructions_raise():
    # the involutive permutations of S3 that are not automorphisms, with each
    # subgroup as B: the invariant checks inside the constructions fire
    s3 = symmetric_group(3)
    bad = [f for f in permutations(s3.elements())
           if all(f[f[a]] == a for a in s3.elements())
           and not is_involutive_automorphism(s3, f)]
    assert len(bad) == 72
    raised = set()
    for theta in bad:
        for b in reference.subgroups(s3):
            d = InvolutiveGroupData(s3, theta, b)
            for fast, slow in ((fast_z1_theta, reference.z1_theta),
                               (fast_xy, reference.xy_isomorphism),
                               (fast_parameter_fibration, reference.parameter_fibration)):
                want = outcome(slow, d)
                assert outcome(fast, d) == want
                if want[0] is InvariantViolation and len(b) == s3.order:
                    raised.add(theta)
    assert len(raised) == 72
    d = InvolutiveGroupData(s3, (0, 1, 2, 3, 5, 4), tuple(s3.elements()))
    assert outcome(fast_z1_theta, d) == (
        InvariantViolation, "twisted conjugate 5 of cocycle 2 is not a cocycle")
