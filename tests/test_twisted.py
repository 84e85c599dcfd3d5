from fractions import Fraction
from itertools import combinations, permutations

import pytest

from grpd.cohomology import GroupGammaAction, bg_hfp_decomposition, h1
from grpd.core import (
    InvariantViolation,
    build_action_groupoid,
    groupoid_cardinality,
    validate_functor,
)
from grpd.corpus import gamma_group_fixtures, group_catalog, involutive_fixtures
from grpd.gamma import GammaAction, hfp, validate_gamma_action
from grpd.groups import (
    GroupAction,
    conjugation_automorphism,
    direct_product,
    identity_automorphism,
    induced_subgroup,
    is_involutive_automorphism,
    symmetric_group,
)
from grpd.suites import EXPECTED_TWISTED
from grpd.twisted import (
    InvolutiveGroupData,
    TwistedOrbit,
    _double_coset,
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
    from grpd.corpus import _transpose_inverse, group_catalog
    gl = group_catalog()["GL2F2"]
    from grpd.groups import gl2_f2_upper_triangular
    bad = InvolutiveGroupData(group=gl, theta=_transpose_inverse(gl),
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


# Per-entry references: the twisted constructions with each product x -> l x r^-1
# written out by ``mul`` and ``inv``, against which the two-sided rows are checked.

def entrywise_double_coset(d):
    """The double coset action table and the bar tables on objects and arrows."""
    g = d.group
    bgrp, emb = induced_subgroup(g, d.b_elements)
    nb = bgrp.order
    act_table = tuple(
        tuple(g.mul(g.mul(emb[i], x), g.inv(emb[j])) for x in g.elements())
        for i in range(nb) for j in range(nb)
    )
    b_index = {emb[i]: i for i in range(nb)}
    theta_local = tuple(b_index[d.theta[emb[i]]] for i in range(nb))
    bar_obj = tuple(d.theta[g.inv(x)] for x in g.elements())
    bar_mor = []
    for p in range(nb * nb):
        i, j = divmod(p, nb)
        bar_pair = theta_local[j] * nb + theta_local[i]
        for x in g.elements():
            bar_mor.append(bar_pair * g.order + bar_obj[x])
    return act_table, bar_obj, tuple(bar_mor)


def entrywise_z1_theta(d):
    """The cocycles, the embedding of B and the twisted conjugation table."""
    g = d.group
    elements = tuple(x for x in g.elements() if g.mul(x, d.theta[x]) == g.identity)
    index = {x: i for i, x in enumerate(elements)}
    emb = tuple(sorted(set(d.b_elements)))
    if len(emb) < g.order:
        induced_subgroup(g, emb)  # the subgroup check
    act_rows = []
    for b in emb:
        row = []
        for x in elements:
            y = g.mul(g.mul(d.theta[b], x), g.inv(b))
            if y not in index:
                raise InvariantViolation(
                    f"twisted conjugate {y} of cocycle {x} is not a cocycle")
            row.append(index[y])
        act_rows.append(tuple(row))
    return elements, emb, tuple(act_rows)


def entrywise_xy(d):
    """X, Y, the maps between them and the two action tables of B x B."""
    g = d.group
    theta = d.theta
    bset = tuple(sorted(set(d.b_elements)))
    xs = []
    for b1 in bset:
        for b2 in bset:
            if g.mul(b1, theta[b2]) != g.identity:
                continue
            for x in g.elements():
                if g.mul(g.mul(b1, x), g.inv(b2)) == theta[g.inv(x)]:
                    xs.append((b1, b2, x))
    ys = []
    for b in bset:
        for x in g.elements():
            z = g.mul(b, x)
            if g.mul(z, theta[z]) == g.identity:
                ys.append((b, x))
    xs, ys = tuple(sorted(xs)), tuple(sorted(ys))
    x_index = {t: i for i, t in enumerate(xs)}
    y_index = {t: i for i, t in enumerate(ys)}
    forward = []
    for (b1, b2, x) in xs:
        if (b1, x) not in y_index:
            raise InvariantViolation(f"image {(b1, x)} of X element is not in Y")
        forward.append(y_index[b1, x])
    backward = []
    for (b, x) in ys:
        key = (b, theta[g.inv(b)], x)
        if key not in x_index:
            raise InvariantViolation(f"image {key} of Y element is not in X")
        backward.append(x_index[key])
    if any(backward[forward[i]] != i for i in range(len(xs))):
        raise InvariantViolation("forward then backward is not the identity on X")
    if any(forward[backward[i]] != i for i in range(len(ys))):
        raise InvariantViolation("backward then forward is not the identity on Y")
    x_rows, y_rows = [], []
    for beta1 in bset:
        for beta2 in bset:
            xrow = []
            for (b1, b2, x) in xs:
                t = (g.mul(g.mul(theta[beta2], b1), g.inv(beta1)),
                     g.mul(g.mul(theta[beta1], b2), g.inv(beta2)),
                     g.mul(g.mul(beta1, x), g.inv(beta2)))
                if t not in x_index:
                    raise InvariantViolation(f"X is not closed under the action at {t}")
                xrow.append(x_index[t])
            x_rows.append(tuple(xrow))
            yrow = []
            for (b, x) in ys:
                t = (g.mul(g.mul(theta[beta2], b), g.inv(beta1)),
                     g.mul(g.mul(beta1, x), g.inv(beta2)))
                if t not in y_index:
                    raise InvariantViolation(f"Y is not closed under the action at {t}")
                yrow.append(y_index[t])
            y_rows.append(tuple(yrow))
    for p in range(len(bset) ** 2):
        if any(forward[x_rows[p][i]] != y_rows[p][forward[i]] for i in range(len(xs))):
            raise InvariantViolation("forward map is not equivariant")
    return xs, ys, tuple(forward), tuple(backward), tuple(x_rows), tuple(y_rows)


def entrywise_parameter_fibration(d):
    """The object and arrow tables of the comparison map, built from the
    entrywise double coset, cocycles and pair presentation."""
    g = d.group
    act_table, bar_obj, bar_mor = entrywise_double_coset(d)
    bgrp, emb = induced_subgroup(g, d.b_elements)
    nb = bgrp.order
    action = GroupAction(direct_product(bgrp, bgrp), g.order, act_table)
    fp = hfp(GammaAction(build_action_groupoid(action), bar_obj, bar_mor))
    elements, _, z_rows = entrywise_z1_theta(d)
    z_index = {x: i for i, x in enumerate(elements)}
    _, ys, _, _, _, y_rows = entrywise_xy(d)
    e = bgrp.identity
    for j in range(nb):
        for yi in range(len(ys)):
            if j != e and y_rows[e * nb + j][yi] == yi:
                raise InvariantViolation(
                    f"subgroup element {emb[j]} fixes the pair {ys[yi]}")
    obj_map = []
    for o in fp.objects:
        pair, base = divmod(o.phi, g.order)
        if base != o.base:
            raise InvariantViolation(f"fixed point at {o.base} has phi starting at {base}")
        obj_map.append(z_index[g.mul(emb[pair // nb], o.base)])
    mor_map = tuple(
        (fp.underlying[m] // g.order) % nb * len(elements) + obj_map[fp.groupoid.src[m]]
        for m in fp.groupoid.morphisms())
    return tuple(obj_map), mor_map


def entrywise_conjugation_automorphism(g, s):
    return tuple(g.mul(g.mul(s, x), g.inv(s)) for x in g.elements())


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
        assert fast_z1_theta(d) == entrywise_z1_theta(d)
        if g.order <= 24:
            assert fast_double_coset(d) == entrywise_double_coset(d)
            assert fast_xy(d) == entrywise_xy(d)
    for d in involutive_fixtures():
        assert fast_parameter_fibration(d) == entrywise_parameter_fibration(d)
    for n in (4, 5):
        g = symmetric_group(n)
        for s in g.elements():
            assert conjugation_automorphism(g, s) == entrywise_conjugation_automorphism(g, s)


def entrywise_subgroups(g):
    """Every subgroup of ``g``, found by checking every subset."""
    return [s for k in range(1, g.order + 1) for s in combinations(g.elements(), k)
            if g.identity in s
            and all(g.mul(a, b) in s and g.inv(a) in s for a in s for b in s)]


def brute_involutive_automorphisms(g):
    """Every involutive automorphism of ``g``: the permutations fixing the
    identity that square to the identity and preserve every product."""
    e = g.identity
    rest = [a for a in g.elements() if a != e]
    out = []
    for images in permutations(rest):
        f = (*images[:e], e, *images[e:])
        if (all(f[f[a]] == a for a in rest)
                and all(f[g.mul(a, b)] == g.mul(f[a], f[b])
                        for a in g.elements() for b in g.elements())):
            out.append(f)
    return out


def test_every_twisted_datum_of_the_small_catalog_groups():
    # every involutive automorphism of every catalog group of order <= 8 and
    # every subgroup it preserves
    n_theta = n_pairs = 0
    for g in group_catalog().values():
        subgroups = entrywise_subgroups(g)
        for theta in brute_involutive_automorphisms(g):
            n_theta += 1
            a = GroupGammaAction(group=g, bar=theta)
            d = InvolutiveGroupData(g, theta, tuple(g.elements()))
            z, orbits = brute_orbits(d)
            dec = bg_hfp_decomposition(a)
            assert sorted((frozenset(c.members), len(c.stabilizer)) for c in dec.classes) == sorted(
                (frozenset(o), sum(g.mul(g.mul(theta[b], min(o)), g.inv(b)) == min(o)
                                   for b in g.elements()))
                for o in orbits)
            for b in subgroups:
                if any(theta[x] not in b for x in b):
                    continue
                n_pairs += 1
                d = InvolutiveGroupData(g, theta, b)
                z, orbits = brute_orbits(d)
                assert z1_theta(d).elements == tuple(z)
                assert sorted(frozenset(o.members) for o in twisted_orbits(d)) == sorted(
                    frozenset(o) for o in orbits)
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
        for b in entrywise_subgroups(s3):
            d = InvolutiveGroupData(s3, theta, b)
            for fast, slow in ((fast_z1_theta, entrywise_z1_theta), (fast_xy, entrywise_xy),
                               (fast_parameter_fibration, entrywise_parameter_fibration)):
                want = outcome(slow, d)
                assert outcome(fast, d) == want
                if want[0] is InvariantViolation and len(b) == s3.order:
                    raised.add(theta)
    assert len(raised) == 72
    d = InvolutiveGroupData(s3, (0, 1, 2, 3, 5, 4), tuple(s3.elements()))
    assert outcome(fast_z1_theta, d) == (
        InvariantViolation, "twisted conjugate 5 of cocycle 2 is not a cocycle")
