"""Exhaustive sweep over the small catalog: every involution of every groupoid
of ``small_groupoid_catalog()`` and every equivariant map between two of
them, decided by the fast predicates, by the naive oracles and, for the
colimit comparison and the colimit itself, by their references."""

from functools import cache

from grpd.colimit import FilteredDiagram, _poset_category, hfp_colimit_comparison
from grpd.core import identity_map, is_fibration, is_weak_equivalence
from grpd.corpus import small_groupoid_catalog
from grpd.gamma import (EquivariantMap, GammaAction, equivariance_witness, hfp, hfp_map,
                        validate_gamma_action)
from grpd.suites import enumerate_functors, naive_is_fibration, naive_is_weak_equivalence
from test_colimit import assert_same_colimit
import reference


@cache
def involutions_by_carrier():
    """The involutions of each catalog groupoid, in catalog order."""
    return tuple(
        tuple(a for f in enumerate_functors(g, g)
              for a in [GammaAction(g, f.obj_map, f.mor_map)]
              if not validate_gamma_action(a))
        for g in small_groupoid_catalog())


@cache
def equivariant_maps():
    """Every equivariant map between two involutions of the catalog."""
    catalog = small_groupoid_catalog()
    invs = involutions_by_carrier()
    out = []
    for i, g in enumerate(catalog):
        for j, h in enumerate(catalog):
            functors = list(enumerate_functors(g, h))
            out.extend(e for a in invs[i] for b in invs[j] for f in functors
                       for e in [EquivariantMap(f, a, b)] if equivariance_witness(e) is None)
    return tuple(out)


def test_the_sweep_has_the_counted_size():
    assert sum(map(len, involutions_by_carrier())) == 32
    assert len(equivariant_maps()) == 2515


def test_iota_is_a_fibration_on_every_involution():
    for invs in involutions_by_carrier():
        for a in invs:
            iota = hfp(a).iota()
            assert is_fibration(iota) and naive_is_fibration(iota)


def test_hfp_map_preserves_fibrations_and_weak_equivalences():
    fibrations = weak_equivalences = 0
    for e in equivariant_maps():
        f = hfp_map(e)
        fib, weq = naive_is_fibration(f), naive_is_weak_equivalence(f)
        assert is_fibration(f) == fib
        assert is_weak_equivalence(f) == weq
        if naive_is_fibration(e.map):
            fibrations += 1
            assert fib
        if naive_is_weak_equivalence(e.map):
            weak_equivalences += 1
            assert weq
    assert (fibrations, weak_equivalences) == (757, 262)


def test_comparison_is_an_isomorphism_on_every_equivariant_map():
    # each map A -> B is a diagram over the poset 0 <= 1, whose arrows are
    # numbered (0, 0), (0, 1), (1, 1)
    index, _ = _poset_category(2, lambda i, j: i <= j)
    fixed = {id(a): hfp(a) for invs in involutions_by_carrier() for a in invs}
    for e in equivariant_maps():
        a, b = e.dom_action, e.cod_action
        d = FilteredDiagram(index, (a, b), (
            EquivariantMap(identity_map(a.carrier), a, a), e,
            EquivariantMap(identity_map(b.carrier), b, b)))
        c = hfp_colimit_comparison(d)
        assert c.is_isomorphism
        assert c.map.cod is c.rhs.groupoid
        assert (c.map.obj_map, c.map.mor_map) == reference.comparison_map(
            d, c.colimit, c.rhs, [fixed[id(a)], fixed[id(b)]])


def test_colimit_groupoids_agrees_with_the_all_arrows_routine_on_every_equivariant_map():
    index, _ = _poset_category(2, lambda i, j: i <= j)
    fixed = {id(a): hfp(a) for invs in involutions_by_carrier() for a in invs}
    for e in equivariant_maps():
        a, b = e.dom_action, e.cod_action
        fa, fb = fixed[id(a)], fixed[id(b)]
        assert_same_colimit(index, [a.carrier, b.carrier],
                            [identity_map(a.carrier), e.map, identity_map(b.carrier)])
        assert_same_colimit(index, [fa.groupoid, fb.groupoid],
                            [identity_map(fa.groupoid), hfp_map(e, fa, fb),
                             identity_map(fb.groupoid)])
