from fractions import Fraction

import pytest

from grpd.cohomology import GroupGammaAction, bg_gamma_action
from grpd.core import (
    InvariantViolation,
    build_bg,
    components,
    discrete_groupoid,
    groupoid_cardinality,
    is_fibration,
    is_weak_equivalence,
    terminal_groupoid,
    validate_functor,
    validate_groupoid,
    GroupoidMap,
)
from grpd.corpus import (
    corrupted_bg_z2,
    eg_gamma_action,
    group_catalog,
    negative_control_map,
    swap_corpus,
)
from grpd.gamma import (
    EquivariantMap,
    NotEquivariantError,
    equivariance_witness,
    gamma_product,
    gamma_relabel,
    gamma_union,
    hfp,
    hfp_map,
    iota,
    set_as_groupoid,
    swap_action,
    swap_comparison,
    trivial_action,
    validate_equivariant,
    validate_gamma_action,
)
from grpd.groups import cyclic_group, inversion_automorphism, symmetric_group


def bz2_trivial():
    z2 = cyclic_group(2)
    return bg_gamma_action(GroupGammaAction(group=z2, bar=tuple(z2.elements())))


def test_trivial_action_on_discrete():
    a = trivial_action(discrete_groupoid(3))
    assert validate_gamma_action(a) == []
    fp = hfp(a)
    assert fp.groupoid.n_objects == 3
    assert fp.groupoid.n_morphisms == 3


def test_two_point_swap_has_no_fixed_points():
    a = set_as_groupoid((1, 0), labels=("a", "abar"))
    assert validate_gamma_action(a) == []
    assert hfp(a).groupoid.n_objects == 0


def test_bz2_with_trivial_involution():
    fp = hfp(bz2_trivial())
    g = fp.groupoid
    assert g.n_objects == 2
    assert g.n_morphisms == 4
    assert len(components(g)) == 2
    assert groupoid_cardinality(g) == 1
    assert validate_groupoid(g) == []


def test_eg_fixed_points_are_contractible():
    s3 = symmetric_group(3)
    fp = hfp(eg_gamma_action(s3))
    assert (fp.groupoid.n_objects, fp.groupoid.n_morphisms) == (6, 36)
    assert len(components(fp.groupoid)) == 1
    assert groupoid_cardinality(fp.groupoid) == 1

    z4 = cyclic_group(4)
    fp = hfp(eg_gamma_action(z4, inversion_automorphism(z4)))
    assert (fp.groupoid.n_objects, fp.groupoid.n_morphisms) == (4, 16)
    assert groupoid_cardinality(fp.groupoid) == 1


def test_object_and_morphism_lookup():
    fp = hfp(bz2_trivial())
    for i, o in enumerate(fp.objects):
        assert fp.object_id(o.base, o.phi) == i
        assert fp.has_object(o.base, o.phi)
    assert not fp.has_object(0, 99)
    g = fp.groupoid
    for m in g.morphisms():
        assert fp.morphism_id(g.src[m], fp.underlying[m]) == m


def test_iota_shapes_and_fibration():
    a = bz2_trivial()
    f = iota(a)
    assert f.cod == a.carrier
    assert validate_functor(f) == []
    assert is_fibration(f)
    for x in swap_corpus()[:4]:
        assert is_fibration(iota(swap_action(x)))


def test_equivariance_witness_finds_the_failure():
    dom = set_as_groupoid((1, 0))
    cod = set_as_groupoid((0, 1))
    f = GroupoidMap(dom.carrier, cod.carrier, (0, 1), (0, 1))
    e = EquivariantMap(f, dom, cod)
    w = equivariance_witness(e)
    assert w is not None and w[0] == "object"
    assert validate_equivariant(e) != []
    with pytest.raises(NotEquivariantError) as exc:
        hfp_map(e)
    assert exc.value.witness == w


def test_negative_control_is_equivariant_but_nothing_else():
    e = negative_control_map()
    assert equivariance_witness(e) is None
    assert not is_fibration(e.map)
    assert not is_weak_equivalence(e.map)
    g = hfp_map(e)
    assert not is_fibration(g)
    assert not is_weak_equivalence(g)


def test_hfp_map_preserves_acyclic_collapse():
    z2 = cyclic_group(2)
    a = eg_gamma_action(z2)
    pt = trivial_action(terminal_groupoid())
    f = GroupoidMap(a.carrier, pt.carrier,
                    (0,) * a.carrier.n_objects, (0,) * a.carrier.n_morphisms)
    e = EquivariantMap(f, a, pt)
    assert equivariance_witness(e) is None
    g = hfp_map(e)
    assert is_fibration(g) and is_weak_equivalence(g)


def test_swap_comparison_on_corpus():
    for x in swap_corpus():
        c = swap_comparison(x)
        assert c.is_weak_equivalence
        assert (groupoid_cardinality(c.fixed_points.groupoid)
                == groupoid_cardinality(x))


def test_swap_cardinality_exact_fraction():
    x = swap_corpus()[8]  # point next to a one-object groupoid of order 3
    assert groupoid_cardinality(x) == Fraction(4, 3)
    c = swap_comparison(x)
    assert groupoid_cardinality(c.fixed_points.groupoid) == Fraction(4, 3)


def test_gamma_union_hfp_is_union_of_hfp():
    a = bz2_trivial()
    b = trivial_action(discrete_groupoid(2))
    u = gamma_union([a, b])
    assert validate_gamma_action(u) == []
    assert hfp(u).groupoid.n_objects == (hfp(a).groupoid.n_objects
                                         + hfp(b).groupoid.n_objects)


def test_gamma_product_and_relabel_are_valid():
    a = bz2_trivial()
    p = gamma_product(a, a)
    assert validate_gamma_action(p) == []
    assert p.carrier.n_morphisms == 4
    r = gamma_relabel(a, (0,), (1, 0))
    assert validate_gamma_action(r) == []
    assert hfp(r).groupoid.n_objects == hfp(a).groupoid.n_objects


def test_validate_gamma_action_catches_non_involution():
    from grpd.gamma import GammaAction

    g = build_bg(cyclic_group(3))
    inversion = GammaAction(g, (0,), (0, 2, 1))
    assert validate_gamma_action(inversion) == []
    shift = GammaAction(g, (0,), (1, 2, 0))
    assert validate_gamma_action(shift) != []


def test_validate_gamma_action_reports_a_bad_carrier():
    a = trivial_action(corrupted_bg_z2())
    assert validate_gamma_action(a) == [
        "carrier inverse: 1 then inv(1) is not the identity",
        "carrier inverse: inv(1) then 1 is not the identity",
    ]


def test_hfp_of_a_bad_carrier_raises_invariant_violation():
    # the check must hold under python -O too, so it is not an assert
    with pytest.raises(InvariantViolation):
        hfp(trivial_action(corrupted_bg_z2()))


def test_eg_gamma_action_rejects_a_non_involution():
    z3 = cyclic_group(3)
    with pytest.raises(ValueError, match="involutive"):
        eg_gamma_action(z3, (0, 2, 2))
