"""Exhaustive sweep over the small catalog: every involution of every groupoid
of ``small_groupoid_catalog()`` and every equivariant map between two of
them, decided by the fast predicates, by the naive oracles and, for the
colimit comparison and the colimit itself, by the constructions they
replaced."""

from functools import cache

from grpd.colimit import (FilteredDiagram, _descend, _poset_category, colimit_groupoids,
                          hfp_colimit_comparison)
from grpd.core import InvariantViolation, identity_map, is_fibration, is_weak_equivalence
from grpd.corpus import small_groupoid_catalog
from grpd.gamma import (EquivariantMap, GammaAction, equivariance_witness, hfp, hfp_map,
                        validate_gamma_action)
from grpd.suites import enumerate_functors, naive_is_fibration, naive_is_weak_equivalence
from test_colimit import assert_same_colimit


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
    assert len(equivariant_maps()) == 2275


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


def reference_comparison_map(d, co, rhs, fps):
    """The comparison map as built before it was read through the cocones:
    one lookup per fixed point and per arrow in the fixed points of the
    colimit, ``None`` where a class lands apart or on no fixed point.  ``fps``
    are the fixed points of the nodes."""
    arrow_maps = [hfp_map(d.arrows[u], fps[d.index.src[u]], fps[d.index.tgt[u]])
                  for u in d.index.morphisms()]
    lhs = colimit_groupoids(d.index, [fp.groupoid for fp in fps], arrow_maps)
    germs = [c.map for c in co.cocones]

    def lookup(find, *key):
        try:
            return find(*key)
        except KeyError:
            return None

    def fixed_object(i, o):
        return lookup(rhs.object_id, germs[i].obj_map[o.base], germs[i].mor_map[o.phi])

    def fixed_morphism(i, m):
        src = obj_map[lhs.cocones[i].obj_map[fps[i].groupoid.src[m]]]
        return lookup(rhs.morphism_id, src, germs[i].mor_map[fps[i].underlying[m]])

    try:
        obj_map = _descend("comparison on objects", lhs.groupoid.n_objects,
                           [c.obj_map for c in lhs.cocones],
                           [[fixed_object(i, o) for o in fp.objects]
                            for i, fp in enumerate(fps)])
        if None in obj_map:
            return None
        mor_map = _descend("comparison on morphisms", lhs.groupoid.n_morphisms,
                           [c.mor_map for c in lhs.cocones],
                           [[fixed_morphism(i, m) for m in fp.groupoid.morphisms()]
                            for i, fp in enumerate(fps)])
    except InvariantViolation:
        return None
    return None if None in mor_map else (obj_map, mor_map)


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
        assert (c.map.obj_map, c.map.mor_map) == reference_comparison_map(
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
