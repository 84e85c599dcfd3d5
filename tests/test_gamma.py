import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import grpd

from grpd.cohomology import GroupGammaAction, bg_gamma_action
from grpd.core import (
    FiniteGroupoid,
    InvariantViolation,
    build_action_groupoid,
    build_bg,
    build_eg,
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
    gamma_group_fixtures,
    group_catalog,
    involutive_fixtures,
    negative_control_map,
    small_groupoid_catalog,
    swap_corpus,
)
from grpd.gamma import (
    EquivariantMap,
    GammaAction,
    NotEquivariantError,
    equivariance_witness,
    gamma_product,
    gamma_relabel,
    gamma_union,
    hfp,
    hfp_map,
    set_as_groupoid,
    swap_action,
    swap_comparison,
    trivial_action,
    validate_gamma_action,
)
from grpd.groups import (GroupAction, conjugation_automorphism, cyclic_group,
                         inversion_automorphism, symmetric_group)


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
    with pytest.raises(KeyError):
        fp.object_id(0, 99)
    g = fp.groupoid
    for m in g.morphisms():
        assert fp.morphism_id(g.src[m], fp.underlying[m]) == m


def test_iota_shapes_and_fibration():
    a = bz2_trivial()
    f = hfp(a).iota()
    assert f.cod == a.carrier
    assert validate_functor(f) == []
    assert is_fibration(f)
    for x in swap_corpus()[:4]:
        assert is_fibration(hfp(swap_action(x)).iota())


def test_equivariance_witness_finds_the_failure():
    dom = set_as_groupoid((1, 0))
    cod = set_as_groupoid((0, 1))
    f = GroupoidMap(dom.carrier, cod.carrier, (0, 1), (0, 1))
    e = EquivariantMap(f, dom, cod)
    w = equivariance_witness(e)
    assert w is not None and w[0] == "object"
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


def test_hfp_raises_where_a_bar_that_is_not_a_functor_breaks_the_fixed_points():
    # C4 acting on two points through C2; bar is in range but not a functor.
    # The fixed points' identity arrows would be 0: 0 -> 1 and 1: 1 -> 0.
    a = GammaAction(build_action_groupoid(GroupAction(cyclic_group(4), 2,
                                                      ((0, 1), (1, 0), (0, 1), (1, 0)))),
                    (1, 0), (5, 4, 1, 6, 1, 2, 1, 2))
    assert validate_gamma_action(a) != []
    with pytest.raises(InvariantViolation, match="lands on the wrong fixed point"):
        hfp(a)


@pytest.mark.parametrize("field, edit, message", [
    ("bar_obj", lambda t: (9,) + t[1:], "bar_obj has an entry out of range"),
    ("bar_mor", lambda t: t[:-1], "bar_mor has 35 entries, expected 36"),
], ids=["bar-obj-out-of-range", "bar-mor-short"])
def test_hfp_rejects_malformed_bar_tables(field, edit, message):
    # hfp keeps its own range checks for callers that do not validate first
    a = eg_gamma_action(group_catalog()["S3"], tuple(range(6)))
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        hfp(replace(a, **{field: edit(getattr(a, field))}))


def test_hfp_rejects_an_inv_table_of_the_wrong_shape():
    # the scan packs a pair of arrows into one int, which needs inv in range
    a = eg_gamma_action(group_catalog()["S3"], tuple(range(6)))
    g = a.carrier
    for inv, message in ((g.inv[:-1], "inv has 35 entries, expected 36"),
                         ((36,) + g.inv[1:], "inv has an entry out of range")):
        bent = FiniteGroupoid(g.n_objects, g.src, g.tgt, g.id_of, inv, g.compose_each)
        with pytest.raises(InvariantViolation, match=re.escape(message)):
            hfp(replace(a, carrier=bent))


def test_a_composite_out_of_range_lifts_no_arrow():
    # the scan keys the pair (alpha, c) as alpha * n + c.  Here the
    # identity's composite with arrow 1 is moved to -2, so that alpha = 2
    # would key as 2 * 4 - 2 = 1 * 4 + 2, the key of a pair the first rows
    # did reach; a pair with a composite out of range must lift nothing
    g = build_bg(group_catalog()["V4"])

    def each(m1, ms):
        return [-2 if (m1, m2) == (0, 1) else c for m2, c in zip(ms, g.compose_each(m1, ms))]

    bent = FiniteGroupoid(g.n_objects, g.src, g.tgt, g.id_of, g.inv, each)
    assert hfp(GammaAction(bent, (0,), (0, 3, 1, 2))).underlying == (0,)


def test_eg_gamma_action_rejects_a_non_involution():
    z3 = cyclic_group(3)
    with pytest.raises(ValueError, match="involutive"):
        eg_gamma_action(z3, (0, 2, 2))


def reference_hfp(a):
    """Fixed points straight from the definition, on the carrier's full table:
    objects (x, phi) with phi: x -> bar(x) and bar(phi) = inv(phi) in
    lexicographic order, and arrows (i, j, alpha) with alpha: x_i -> x_j and
    alpha then phi_j equal to phi_i then bar(alpha), in lexicographic order."""
    g = a.carrier
    c = g.comp
    between = {}
    for k in g.morphisms():
        between.setdefault((g.src[k], g.tgt[k]), []).append(k)
    objs = [(x, phi) for x in g.objects() for phi in between.get((x, a.bar_obj[x]), ())
            if a.bar_mor[phi] == g.inv[phi]]
    arrows = [(i, j, alpha)
              for i, (x, phi) in enumerate(objs) for j, (x1, phi1) in enumerate(objs)
              for alpha in between.get((x, x1), ())
              if c[(alpha, phi1)] == c[(phi, a.bar_mor[alpha])]]
    return objs, arrows


def small_actions():
    for g in small_groupoid_catalog():
        yield trivial_action(g)
        yield swap_action(g)
    for f in gamma_group_fixtures():
        yield bg_gamma_action(f)
    for d in involutive_fixtures():
        yield eg_gamma_action(d.group, d.theta)


def eg_s3_s4_actions():
    for n in (3, 4):
        g = symmetric_group(n)
        yield eg_gamma_action(g, conjugation_automorphism(g, 1))  # a transposition


def test_hfp_agrees_with_a_brute_force_fixed_point_enumeration():
    for a in [*small_actions(), *eg_s3_s4_actions(),
              swap_action(build_eg(symmetric_group(3)))]:
        g, fp = a.carrier, hfp(a)
        h = fp.groupoid
        objs, arrows = reference_hfp(a)
        index = {arrow: k for k, arrow in enumerate(arrows)}
        assert [(o.base, o.phi) for o in fp.objects] == objs
        assert h.n_objects == len(objs)
        assert list(zip(h.src, h.tgt, fp.underlying)) == arrows
        assert h.id_of == tuple(index[(i, i, g.id_of[x])] for i, (x, _) in enumerate(objs))
        assert h.inv == tuple(index[(j, i, g.inv[alpha])] for i, j, alpha in arrows)
        c = g.comp
        out_of = {}
        for k, (i, _, _) in enumerate(arrows):
            out_of.setdefault(i, []).append(k)
        for k1, (i, j, alpha) in enumerate(arrows):
            for k2 in out_of.get(j, ()):
                _, l, beta = arrows[k2]
                assert h.compose(k1, k2) == index[(i, l, c[(alpha, beta)])]
        if h.n_morphisms <= 600:
            assert all(raises_key_error(h.compose, k1, k2)
                       for k1 in h.morphisms() for k2 in h.morphisms()
                       if h.tgt[k1] != h.src[k2])


def raises_key_error(f, *args) -> bool:
    try:
        f(*args)
    except KeyError:
        return True
    return False


def old_hfp_table(fp):
    """The fixed points' composition table as ``hfp`` used to fill it: every
    pair of arrows scanned, composable ones looked up through the carrier's
    table."""
    g, h = fp.action.carrier, fp.groupoid
    lift = {(h.src[m], fp.underlying[m]): m for m in h.morphisms()}
    return {(m1, m2): lift[(h.src[m1], g.comp[(fp.underlying[m1], fp.underlying[m2])])]
            for m1 in h.morphisms() for m2 in h.morphisms() if h.tgt[m1] == h.src[m2]}


def test_hfp_rule_matches_the_old_table():
    for a in [*small_actions(), *eg_s3_s4_actions()]:
        fp = hfp(a)
        h = fp.groupoid
        table = old_hfp_table(fp)
        assert h._comp is None
        assert h.comp == table
        assert list(h.comp) == sorted(table)
        assert validate_groupoid(h) == []


# The child's own peak RSS: the high-water mark of its address space, which
# starts afresh at exec.  Its ``ru_maxrss`` would start from the RSS of the
# process that spawned it, so it read 67 MB for a 21 MB script inside a full
# test run, and ``ru_maxrss`` less its value at start reads 0 MB whenever the
# spawning process is the larger.
PEAK_RSS_MB = (
    "def peak_rss_mb():\n"
    "    with open('/proc/self/status') as f:\n"
    "        return next(int(l.split()[1]) for l in f if l.startswith('VmHWM:')) // 1024\n"
)


def test_hfp_of_eg_s5_builds_no_table_and_stays_small():
    # a guard on the size ceiling: neither EG(S5) nor its fixed points may
    # tabulate their 1.7 million composable pairs; nor may the other large
    # rungs of the size ladder, the swap on EG(D4) and BG(S5) decomposed, so
    # that none of them is made faster by tabulating
    script = PEAK_RSS_MB + (
        "from grpd.cohomology import GroupGammaAction, bg_hfp_decomposition\n"
        "from grpd.core import build_eg, is_fibration\n"
        "from grpd.corpus import eg_gamma_action\n"
        "from grpd.gamma import hfp, swap_comparison\n"
        "from grpd.groups import conjugation_automorphism, dihedral_group, symmetric_group\n"
        "g = symmetric_group(5)\n"
        "a = eg_gamma_action(g, conjugation_automorphism(g, 1))\n"
        "fp = hfp(a)\n"
        "print(fp.groupoid.n_morphisms, is_fibration(fp.iota()),\n"
        "      a.carrier._comp is None, fp.groupoid._comp is None,\n"
        "      *(callable(h._obj_labels) and callable(h._mor_labels)\n"
        "        for h in (a.carrier, fp.groupoid)),\n"
        "      peak_rss_mb())\n"
        "swap = swap_comparison(build_eg(dihedral_group(4)))\n"
        "dec = bg_hfp_decomposition(GroupGammaAction(g, conjugation_automorphism(g, 1)))\n"
        "print(swap.is_weak_equivalence, dec.is_weak_equivalence,\n"
        "      *(h._comp is None for h in (swap.map.dom, swap.fixed_points.action.carrier,\n"
        "                                  swap.fixed_points.groupoid, dec.source,\n"
        "                                  dec.fixed_points.action.carrier,\n"
        "                                  dec.fixed_points.groupoid)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(grpd.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out[:6] == ["14400", "True", "True", "True", "True", "True"]
    print(f"hfp(EG(S5)): peak RSS {out[6]} MB")
    assert int(out[6]) < 30, f"peak RSS {out[6]} MB"  # 21 MB measured on Linux
    assert out[7:] == ["True"] * 8


def test_hfp_of_eg_s6_builds_no_table_and_no_labels_and_stays_small():
    # the stretch rung: EG(S6) has 518 400 arrows, and so do its fixed points
    # under conjugation by a transposition; neither may tabulate its
    # composition or build its labels, and the peak RSS of hfp plus the
    # fibration test stays under half of the 432 MB it once took
    script = PEAK_RSS_MB + (
        "import time\n"
        "from grpd.core import is_fibration\n"
        "from grpd.corpus import eg_gamma_action\n"
        "from grpd.gamma import hfp\n"
        "from grpd.groups import conjugation_automorphism, symmetric_group\n"
        "g = symmetric_group(6)\n"
        "t0 = time.perf_counter()\n"
        "a = eg_gamma_action(g, conjugation_automorphism(g, 1))\n"
        "fp = hfp(a)\n"
        "fib = is_fibration(fp.iota())\n"
        "print(fp.groupoid.n_morphisms, fib,\n"
        "      *(h._comp is None and callable(h._obj_labels) and callable(h._mor_labels)\n"
        "        for h in (a.carrier, fp.groupoid)),\n"
        "      peak_rss_mb(),\n"
        "      round(time.perf_counter() - t0, 2))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(grpd.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    print(f"hfp(EG(S6)) and is_fibration: {out[5]} s, peak RSS {out[4]} MB")
    assert out[:4] == ["518400", "True", "True", "True"]
    assert int(out[4]) < 212, f"peak RSS {out[4]} MB"  # 205 MB measured on Linux
