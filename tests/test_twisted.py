from fractions import Fraction

import pytest

from grpd.cohomology import GroupGammaAction, h1
from grpd.core import groupoid_cardinality, validate_functor
from grpd.corpus import gamma_group_fixtures, involutive_fixtures
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
    TwistedOrbit,
    build_double_coset_groupoid,
    parameter_fibration,
    twisted_orbits,
    validate_involutive_data,
    xy_isomorphism,
    z1_theta,
)


def brute_orbits(d):
    """Orbits of z -> theta(b) z b^{-1} over B, recomputed from scratch."""
    g = d.group
    z = [x for x in g.elements() if g.mul(x, d.theta[x]) == g.identity]
    bset = sorted(set(d.b_elements))
    orbits = []
    for s in z:
        if any(s in o for o in orbits):
            continue
        orbit = {s}
        while True:
            grown = {g.mul(g.mul(d.theta[b], t), g.inv(b))
                     for t in orbit for b in bset}
            if grown <= orbit:
                break
            orbit |= grown
        orbits.append(orbit)
    return z, orbits


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
    from grpd.corpus import group_catalog, transpose_inverse
    gl = group_catalog()["GL2F2"]
    from grpd.groups import gl2_f2_upper_triangular
    bad = InvolutiveGroupData(group=gl, theta=transpose_inverse(gl),
                              b_elements=gl2_f2_upper_triangular(gl))
    assert validate_involutive_data(bad) != []


def test_cocycles_and_orbits_match_brute_force():
    for d in involutive_fixtures():
        z, orbits = brute_orbits(d)
        zs = z1_theta(d)
        assert sorted(zs.elements) == sorted(z)
        fast = twisted_orbits(d)
        assert sorted(frozenset(o.members) for o in fast) == sorted(
            frozenset(o) for o in orbits)


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


def reference_orbits_under(a):
    """The breadth-first orbit search that ``twisted_orbits`` replaced:
    orbits of the group, sorted by least point."""
    gens = list(a.group.elements())
    seen = [False] * a.n_points
    out = []
    for x in range(a.n_points):
        if seen[x]:
            continue
        orbit = {x}
        frontier = [x]
        seen[x] = True
        while frontier:
            nxt = []
            for y in frontier:
                for g in gens:
                    z = a.act(g, y)
                    if z not in orbit:
                        orbit.add(z)
                        seen[z] = True
                        nxt.append(z)
            frontier = nxt
        out.append(sorted(orbit))
    return out


def reference_twisted_orbits(d):
    """The orbit search plus a rescan of B for each stabilizer."""
    zs = z1_theta(d)
    out = []
    for orbit in reference_orbits_under(zs.action):
        r = orbit[0]
        out.append(TwistedOrbit(
            representative=zs.elements[r],
            members=tuple(zs.elements[t] for t in orbit),
            stabilizer=tuple(zs.b_embedding[b] for b in zs.b_group.elements()
                             if zs.action.act(b, r) == r),
        ))
    return out


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
        assert twisted_orbits(d) == reference_twisted_orbits(d)
    for d in involutive_fixtures():
        assert list(parameter_fibration(d).orbits) == reference_twisted_orbits(d)
