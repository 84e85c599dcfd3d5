"""Row composition against the pair rules it replaced.

A rule-backed structure composes one arrow with a whole row of arrows out of
its target, ``compose_each(m1, ms)``.  The references below are copies of
the pair rules the structures used before: the action groupoid's, the
product's, the disjoint union's and the fixed points', plus a table lookup,
and ``pair_hfp``, the fixed point construction that called a pair rule once
per pair.  Every structure these tests build carries its reference pair rule
beside it, so nested structures nest their references.  ``pair_hfp`` also
keeps the closure walk over every composable pair, and ``star_closure`` the
check on every arrow out of each root and the inverses of the star arrows,
the references for the generators and counts on which ``hfp`` checks its
closure.
"""

import random
import time
from dataclasses import replace
from itertools import chain, repeat

import pytest

from grpd import gamma
from grpd.cohomology import GroupGammaAction, bg_gamma_action
from grpd.core import (
    FiniteGroupoid,
    InvariantViolation,
    _stars,
    build_action_groupoid,
    discrete_groupoid,
    disjoint_union,
    product,
    relabel,
    terminal_groupoid,
    union_offsets,
    validate_groupoid,
)
from grpd.corpus import (
    corrupted_bg_z2,
    eg_gamma_action,
    gamma_group_fixtures,
    group_catalog,
    involutive_fixtures,
    random_filtered_diagram,
    random_gamma_action,
    small_groupoid_catalog,
)
from grpd.gamma import GammaAction, HfpObject, gamma_product, hfp, swap_action, trivial_action
from grpd.groups import (
    GroupAction,
    conjugation_automorphism,
    cyclic_group,
    left_multiplication_action,
    symmetric_group,
    trivial_point_action,
)
from grpd.util import _generators
from test_gamma import raises_key_error, small_actions as corpus_small_actions
from test_sweep import involutions_by_carrier


# ---------------------------------------------------------------------------
# the pair rules


def action_pair(a, g):
    nx, mul = a.n_points, a.group.table
    src, tgt = g.src, g.tgt
    elem = [m // nx for m in g.morphisms()]

    def compose(m1, m2):
        if tgt[m1] != src[m2]:
            raise KeyError((m1, m2))
        return mul[elem[m2]][elem[m1]] * nx + src[m1]

    return compose


def product_pair(g_compose, h_compose, nm):
    def compose(m1, m2):
        a1, b1 = divmod(m1, nm)
        a2, b2 = divmod(m2, nm)
        return g_compose(a1, a2) * nm + h_compose(b1, b2)

    return compose


def union_pair(gs, composers):
    _, mor_off = union_offsets(gs)
    summand = [i for i, g in enumerate(gs) for _ in g.morphisms()]

    def compose(m1, m2):
        i = summand[m1]
        if summand[m2] != i:
            raise KeyError((m1, m2))
        mo = mor_off[i]
        return mo + composers[i](m1 - mo, m2 - mo)

    return compose


def hfp_pair(fp, carrier_compose):
    src, tgt = fp.groupoid.src, fp.groupoid.tgt
    underlying, lifts = fp.underlying, fp._lifts

    def compose_fp(m1, m2):
        if tgt[m1] != src[m2]:
            raise KeyError((m1, m2))
        return lifts[src[m1]][carrier_compose(underlying[m1], underlying[m2])]

    return compose_fp


def table_pair(table):
    return lambda m1, m2: table[(m1, m2)]


def pair_hfp(a, compose):
    """``hfp`` with one call of ``compose`` per pair: the objects, the arrows
    as (src, tgt, underlying), id_of and inv, or the ``InvariantViolation``."""
    g, bar_mor = a.carrier, a.bar_mor
    objs = [HfpObject(x, phi) for x in g.objects() for phi in g.hom(x, a.bar_obj[x])
            if bar_mor[phi] == g.inv[phi]]
    fixed_over = {}
    for j, o in enumerate(objs):
        fixed_over.setdefault(o.base, []).append((j, o.phi))
    src, tgt, underlying = [], [], []
    lifts = [{} for _ in objs]
    try:
        for i, o in enumerate(objs):
            for base, fixed in fixed_over.items():
                alphas = g.hom(o.base, base)
                twisted = [compose(o.phi, bar_mor[alpha]) for alpha in alphas]
                for j, phi1 in fixed:
                    for alpha, rhs in zip(alphas, twisted):
                        if compose(alpha, phi1) != rhs:
                            continue
                        if alpha in lifts[i]:
                            raise InvariantViolation(f"arrow {alpha} out of fixed point {i} "
                                                     "reaches two fixed points: the carrier "
                                                     "is not a groupoid")
                        lifts[i][alpha] = len(src)
                        src.append(i)
                        tgt.append(j)
                        underlying.append(alpha)
        id_of = [lifts[i][g.id_of[o.base]] for i, o in enumerate(objs)]
        inv = [lifts[tgt[m]][g.inv[underlying[m]]] for m in range(len(src))]
        lift_sets = [set(out) for out in lifts]
        for i, j, alpha in zip(src, tgt, underlying):
            if not lift_sets[i].issuperset(map(compose, repeat(alpha), lifts[j])):
                raise KeyError(next(compose(alpha, beta) for beta in lifts[j]
                                    if compose(alpha, beta) not in lifts[i]))
    except KeyError as exc:
        raise InvariantViolation(f"no fixed-point arrow or composite over {exc.args[0]}: "
                                 "the carrier is not a groupoid") from exc
    return objs, list(zip(src, tgt, underlying)), id_of, inv


def outcome(f, *args):
    """The fixed points of ``hfp`` or ``pair_hfp`` as comparable tables, or
    the message of the ``InvariantViolation`` raised instead."""
    try:
        r = f(*args)
    except InvariantViolation as exc:
        return str(exc)
    if isinstance(r, tuple):
        return r
    h = r.groupoid
    return list(r.objects), list(zip(h.src, h.tgt, r.underlying)), list(h.id_of), list(h.inv)


# ---------------------------------------------------------------------------
# structures, each with its pair rule


def action(a):
    g = build_action_groupoid(a)
    return g, action_pair(a, g)


def eg(grp):
    return action(left_multiplication_action(grp))


def bg(grp):
    return action(trivial_point_action(grp))


def prod(x, y):
    return product(x[0], y[0]), product_pair(x[1], y[1], y[0].n_morphisms)


def union(parts):
    gs = [g for g, _ in parts]
    return disjoint_union(gs), union_pair(gs, [c for _, c in parts])


def tabled(g):
    """A groupoid or category given by a table, with the table lookup."""
    assert g._comp is not None
    return g, table_pair(g.comp)


def fixed(a, carrier_compose):
    fp = hfp(a)
    return fp.groupoid, hfp_pair(fp, carrier_compose)


def small_catalog():
    """``corpus.small_groupoid_catalog()``, built here beside the pair rules."""
    cat = group_catalog()
    return [tabled(FiniteGroupoid(0, (), (), (), (), {})), tabled(terminal_groupoid()),
            tabled(discrete_groupoid(2)), tabled(discrete_groupoid(3)),
            bg(cat["Z2"]), bg(cat["Z3"]), bg(cat["Z4"]), bg(cat["V4"]), bg(cat["S3"]),
            eg(cat["Z2"]), eg(cat["Z3"]),
            union([bg(cat["Z2"]), tabled(terminal_groupoid())]),
            union([bg(cat["Z2"]), bg(cat["Z2"])]),
            union([eg(cat["Z2"]), tabled(terminal_groupoid())])]


def small_actions():
    """``small_actions()`` of the gamma tests, as (action, carrier pair rule):
    trivial and swap involutions of the small catalog, BG of the gamma group
    fixtures and EG of the involutive fixtures."""
    for x in small_catalog():
        yield trivial_action(x[0]), x[1]
        p = prod(x, x)
        yield replace(swap_action(x[0]), carrier=p[0]), p[1]
    for f in gamma_group_fixtures():
        c = bg(f.group)
        yield replace(bg_gamma_action(f), carrier=c[0]), c[1]
    for d in involutive_fixtures():
        c = eg(d.group)
        yield replace(eg_gamma_action(d.group, d.theta), carrier=c[0]), c[1]


def eg_transposition(n):
    g = symmetric_group(n)
    c = eg(g)
    return replace(eg_gamma_action(g, conjugation_automorphism(g, 1)), carrier=c[0]), c[1]


def nested_action():
    """The product of the EG(S3) and BG(C4) involutions."""
    a, a_compose = eg_transposition(3)
    b_fixture = gamma_group_fixtures()[3]  # C4 with inversion
    c = bg(b_fixture.group)
    b = replace(bg_gamma_action(b_fixture), carrier=c[0])
    p = prod((a.carrier, a_compose), c)
    return replace(gamma_product(a, b), carrier=p[0]), p[1]


def carriers():
    """Rule-backed and table-backed structures of every kind, with their pair
    rules."""
    cat = group_catalog()
    out = [eg(grp) for grp in cat.values()] + [bg(grp) for grp in cat.values()]
    out.append(action(GroupAction(cyclic_group(4), 2, ((0, 1), (1, 0), (0, 1), (1, 0)))))
    out += [prod(eg(cat["Z2"]), bg(cat["Z3"])), prod(bg(cat["S3"]), eg(cat["Z3"])),
            prod(eg(cat["S3"]), eg(cat["S3"]))]  # the swap carrier of EG(S3)
    out += [prod(x, x) for x in small_catalog()]
    out += [union([bg(cat["Z2"]), tabled(terminal_groupoid()), eg(cat["Z3"])]),
            union([prod(eg(cat["Z2"]), bg(cat["Z2"])), bg(cat["S3"])]),
            prod(union([bg(cat["Z2"]), eg(cat["Z2"])]), bg(cat["Z3"]))]
    out.append(tabled(relabel(build_action_groupoid(left_multiplication_action(cat["S3"])),
                              range(6), [35 - m for m in range(36)])))
    out += [tabled(random_filtered_diagram(random.Random(seed)).index) for seed in range(5)]
    return out


# ---------------------------------------------------------------------------
# checks


def assert_rows_match(g, compose):
    """Each row out of the target of each arrow composes as the pair rule
    does, one pair at a time; so does ``compose``.  A rule stays a rule."""
    rule = g._comp is None
    for m1 in g.morphisms():
        row = g.out_of[g.tgt[m1]]
        want = [compose(m1, m2) for m2 in row]
        assert g.compose_each(m1, row) == want
        assert [g.compose(m1, m2) for m2 in row] == want
    assert (g._comp is None) == rule


def assert_compose_checks_endpoints(g):
    if g.n_morphisms <= 600:
        assert all(raises_key_error(g.compose, m1, m2)
                   for m1 in g.morphisms() for m2 in g.morphisms()
                   if g.tgt[m1] != g.src[m2])


def test_the_mirrored_catalog_and_actions_are_the_corpus_ones():
    assert [g for g, _ in small_catalog()] == list(small_groupoid_catalog())
    assert [a for a, _ in small_actions()] == list(corpus_small_actions())


@pytest.mark.parametrize("i", range(len(carriers())))
def test_carrier_rows_match_the_pair_rules(i):
    g, compose = carriers()[i]
    assert_rows_match(g, compose)
    assert_compose_checks_endpoints(g)


@pytest.mark.parametrize("name, actions", [
    ("small", lambda: list(small_actions())),
    ("eg-s3-s4", lambda: [eg_transposition(3), eg_transposition(4)]),
    ("nested", lambda: [nested_action()]),
])
def test_fixed_point_rows_match_the_pair_rules(name, actions):
    for a, carrier_compose in actions():
        h, compose = fixed(a, carrier_compose)
        assert_rows_match(h, compose)
        assert_compose_checks_endpoints(h)


def test_fixed_points_of_fixed_points_compose_by_rows():
    a, carrier_compose = nested_action()
    h, compose = fixed(a, carrier_compose)
    inner, inner_compose = fixed(trivial_action(h), compose)
    assert inner.n_morphisms > 100
    assert_rows_match(inner, inner_compose)


def test_hfp_agrees_with_the_pair_construction():
    bad = corrupted_bg_z2()
    for a, carrier_compose in [*small_actions(), eg_transposition(3), nested_action(),
                               (trivial_action(bad), table_pair(bad.comp))]:
        assert outcome(hfp, a) == outcome(pair_hfp, a, carrier_compose)


def test_a_composite_moved_to_a_parallel_arrow_fails_the_closure_check():
    # BG(S3) by table, with the involution of the S3 gamma fixture.  Moving
    # the composite (1 then 2) from 3 to the parallel arrow 4 leaves arrow 1
    # without a lift out of one fixed point, while every identity and every
    # inverse still lifts.  The walk over composable pairs of lifts meets the
    # missing lift; the star meets a generator whose composite lands on the
    # wrong fixed point first.
    s3 = next(f for f in gamma_group_fixtures() if f.bar == (0, 5, 2, 4, 3, 1))
    g = build_action_groupoid(trivial_point_action(s3.group))
    table = dict(g.comp)
    assert table[(1, 2)] == 3
    table[(1, 2)] = 4
    a = replace(bg_gamma_action(s3),
                carrier=FiniteGroupoid(g.n_objects, g.src, g.tgt, g.id_of, g.inv, table))
    assert outcome(pair_hfp, a, table_pair(table)) == (
        "no fixed-point arrow or composite over 1: the carrier is not a groupoid")
    with pytest.raises(InvariantViolation) as exc:
        hfp(a)
    assert str(exc.value) == ("a composite with fixed-point arrow 4 lands on the wrong fixed "
                              "point: the carrier is not a groupoid or bar is not a functor")


def random_bar(rng, g, keeps_sources):
    """An in-range involution table for g that is rarely a functor: bar on
    objects is a random involution, and bar on morphisms either a random
    table or, if ``keeps_sources``, a random arrow out of bar(src[m])."""
    objs = list(g.objects())
    rng.shuffle(objs)
    bar_obj = list(g.objects())
    for x, y in zip(objs[::2], objs[1::2]):
        bar_obj[x], bar_obj[y] = y, x
    if keeps_sources:
        bar_mor = [rng.choice(g.out_of[bar_obj[x]]) for x in g.src]
    else:
        bar_mor = [rng.randrange(g.n_morphisms) for _ in g.morphisms()]
    return tuple(bar_obj), tuple(bar_mor)


def pair_groupoid(tables, compose):
    """The tables of ``pair_hfp`` as a groupoid whose composition table holds
    the lift of each composable pair's composite."""
    objs, arrows, id_of, inv = tables
    src, tgt, underlying = zip(*arrows) if arrows else ((), (), ())
    lifts = [{} for _ in objs]
    for m, (i, _, alpha) in enumerate(arrows):
        lifts[i][alpha] = m
    out_of = [[] for _ in objs]
    for m, i in enumerate(src):
        out_of[i].append(m)
    comp = {(m1, m2): lifts[src[m1]][compose(underlying[m1], underlying[m2])]
            for m1 in range(len(arrows)) for m2 in out_of[tgt[m1]]}
    return FiniteGroupoid(len(objs), src, tgt, id_of, inv, comp)


def random_bar_pool():
    """Groupoid carriers with their pair rules for ``random_bar``.  Action
    and table carriers carry their pair rules, which raise on the carrier's
    own pair as ``compose`` does; products, unions and fixed points are
    walked with their own checked ``compose``."""
    cat = group_catalog()
    checked = lambda x: (x[0], x[0].compose)
    return [eg(cat["S3"]), bg(cat["S3"]), bg(cat["V4"]), eg(cat["Z4"]),
            action(GroupAction(cyclic_group(4), 2, ((0, 1), (1, 0), (0, 1), (1, 0)))),
            tabled(relabel(build_action_groupoid(left_multiplication_action(cat["S3"])),
                           range(6), [35 - m for m in range(36)])),
            checked(prod(eg(cat["Z2"]), bg(cat["Z3"]))),
            checked(prod(bg(cat["S3"]), eg(cat["Z3"]))),
            checked(union([bg(cat["Z2"]), tabled(terminal_groupoid()), eg(cat["Z3"])])),
            checked(union([prod(eg(cat["Z2"]), bg(cat["Z2"])), bg(cat["S3"])])),
            checked(fixed(*eg_transposition(3))),
            checked(fixed(*nested_action()))]


def test_hfp_agrees_with_the_pair_construction_on_bars_that_are_not_functors():
    pool = random_bar_pool()
    # every carrier ten times, then BG(V4) and C4 on two points, the carriers
    # where a random bar most often breaks the fixed points
    draws = [(pool[k % len(pool)], k % 2 == 0) for k in range(10 * len(pool))]
    draws += [(pool[2 + 2 * (k % 2)], True) for k in range(300)]
    rng = random.Random("non-functor bars")
    seen = set()
    for (g, compose), keeps_sources in draws:
        bar_obj, bar_mor = random_bar(rng, g, keeps_sources)
        a = GammaAction(g, bar_obj, bar_mor)
        want = outcome(pair_hfp, a, compose)
        got = outcome(hfp, a)
        if isinstance(want, str):
            case = "the walk raises"
        elif validate_groupoid(pair_groupoid(want, compose)):
            case = "the walk returns a broken groupoid"
        else:
            case = "the walk returns a groupoid"
        seen.add(case)
        if case == "the walk returns a groupoid":
            assert got == want
        else:
            assert isinstance(got, str)
        if not isinstance(got, str):
            assert validate_groupoid(hfp(a).groupoid) == []
    assert seen == {"the walk raises", "the walk returns a broken groupoid",
                    "the walk returns a groupoid"}


def test_the_closure_reads_one_row_per_generator():
    # EG(S_n) under conjugation has n! fixed points in one component, one
    # over each object, and no automorphism but the identities.  The arrow
    # scan reads two rows per fixed point, one keying the arrows into its
    # base and one twisted by bar; the closure check reads the rows of the
    # n! - 1 star arrows out of the root and of no generator, as the root's
    # identity is not one; the inverses of the star arrows are counted, not
    # read
    for n, fixed_points in ((4, 24), (5, 120)):
        a, _ = eg_transposition(n)
        each = a.carrier.compose_each
        rows = []
        a.carrier.compose_each = lambda m1, ms: rows.append(m1) or each(m1, ms)
        assert len(hfp(a).underlying) == fixed_points ** 2
        assert len(rows) == 2 * fixed_points + fixed_points - 1


def star_closure(fp):
    """The closure check ``hfp`` made before it read generators of each
    root's vertex group, on fixed points computed without a check: the row of
    every arrow out of each component's root and of the inverse of each star
    arrow."""
    g, h = fp.action.carrier, fp.groupoid
    each, lifts, underlying = g.compose_each, fp._lifts, fp.underlying
    src, tgt, inv = h.src, h.tgt, h.inv
    try:
        for r, star in _stars(h):
            back = [inv[k] for x, k in star.items() if x != r]
            if any(tgt[k] != r for k in back):
                raise InvariantViolation(f"an inverse of a star arrow does not return to {r}")
            for k in chain(h.out_of[r], back):
                into, out = lifts[src[k]], lifts[tgt[k]]
                row = each(underlying[k], list(out))
                if [tgt[into[c]] for c in row] != [tgt[m] for m in out.values()]:
                    raise InvariantViolation(f"a composite with fixed-point arrow {k} lands "
                                             "on the wrong fixed point")
    except KeyError as exc:
        raise InvariantViolation(f"no fixed-point arrow or composite over {exc.args[0]}") from exc
    return fp


def star_hfp(a):
    """``hfp`` with the star closure check in place of its own: the arrow
    scan runs with no component to check, then ``star_closure``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(gamma, "_stars", lambda h: [])
        fp = hfp(a)
    return star_closure(fp)


def swapped_bar(rng, a):
    """``a`` with two entries of bar on morphisms exchanged: a bar that is
    nearly a functor, so that most arrows lift and the closure check decides."""
    bar_mor = list(a.bar_mor)
    if len(bar_mor) > 1:
        i, j = rng.sample(range(len(bar_mor)), 2)
        bar_mor[i], bar_mor[j] = bar_mor[j], bar_mor[i]
    return replace(a, bar_mor=tuple(bar_mor))


def test_hfp_agrees_with_the_star_closure_check_on_groupoid_carriers():
    # every carrier here is a groupoid, so the two checks must agree on
    # whether to raise, and the fixed points must be the same tables
    rng = random.Random("generator closure")
    pool = random_bar_pool() + [bg(symmetric_group(4))]
    actions = [GammaAction(g, *random_bar(rng, g, k % 2 == 0))
               for k in range(20) for g, _ in pool]
    corpus = [*corpus_small_actions(), eg_transposition(3)[0], eg_transposition(4)[0],
              *(a for row in involutions_by_carrier() for a in row),
              *(random_gamma_action(rng) for _ in range(100))]
    actions += corpus + [swapped_bar(rng, a) for a in corpus for _ in range(3)]
    s4 = symmetric_group(4)
    actions += [bg_gamma_action(GroupGammaAction(s4, conjugation_automorphism(s4, t)))
                for t in s4.elements() if s4.mul(t, t) == s4.identity]
    raised = returned = 0
    for a in actions:
        assert validate_groupoid(a.carrier) == []
        want = outcome(star_hfp, a)
        got = outcome(hfp, a)
        if isinstance(want, str):
            raised += 1
            assert isinstance(got, str)
        else:
            returned += 1
            assert got == want
    assert raised > 100 and returned > 500


def test_a_root_with_too_few_arrows_out_raises():
    # three arrows on one object by a table that is not a groupoid's: 0 is
    # no unit.  The fixed points 0 and 1 share a component whose root has two
    # automorphisms but one arrow to 1, and every row the check reads lifts,
    # so only the count of the arrows out of the root finds the fault; the
    # star check found it in the row of the root's identity, which is no
    # generator
    table = {(0, 0): 2, (0, 1): 0, (0, 2): 1, (1, 0): 1, (1, 1): 0, (1, 2): 1,
             (2, 0): 0, (2, 1): 1, (2, 2): 0}
    a = GammaAction(FiniteGroupoid(1, (0, 0, 0), (0, 0, 0), (0,), (0, 1, 2), table),
                    (0,), (0, 2, 2))
    assert outcome(hfp, a) == ("fixed point 0 has 3 arrows out, 2 to itself and 2 fixed "
                               "points in its component: the carrier is not a groupoid or "
                               "bar is not a functor")
    assert outcome(star_hfp, a) == "a composite with fixed-point arrow 0 lands on the wrong fixed point"


def test_a_fixed_point_with_fewer_arrows_out_than_its_root_raises():
    # five arrows on one object by a table that is not a groupoid's.  The
    # fixed points 0 and 1 share a component; the root has one arrow to each,
    # and the star arrow's row lifts, but the identity of 1 lands on 0, so 1
    # has one arrow out where the root has two.  Only the count of arrows
    # out finds the fault: the inverse of the star arrow, whose row the star
    # check read, is not checked
    table = {(0, 0): 4, (0, 1): 1, (0, 2): 1, (0, 3): 0, (0, 4): 4,
             (1, 0): 3, (1, 1): 3, (1, 2): 1, (1, 3): 0, (1, 4): 0,
             (2, 0): 0, (2, 1): 4, (2, 2): 1, (2, 3): 0, (2, 4): 0,
             (3, 0): 1, (3, 1): 2, (3, 2): 0, (3, 3): 3, (3, 4): 3,
             (4, 0): 3, (4, 1): 2, (4, 2): 3, (4, 3): 0, (4, 4): 0}
    a = GammaAction(FiniteGroupoid(1, (0,) * 5, (0,) * 5, (0,), (2, 0, 0, 3, 1), table),
                    (0,), (2, 0, 1, 1, 3))
    assert outcome(hfp, a) == ("fixed point 1 has 1 arrows out and 0 has 2: the carrier "
                               "is not a groupoid or bar is not a functor")
    assert outcome(star_hfp, a) == "no fixed-point arrow or composite over 4"


def test_a_star_arrow_whose_inverse_does_not_return_raises():
    # three arrows on one object by a table that is not a groupoid's.  The
    # star arrow from fixed point 0 to 1 lies over 0, and so does its inverse,
    # inv(0) being 0, which lifts out of 1 to 1 itself.  The check raises
    # before it reads a closure row
    table = {(0, 0): 0, (0, 1): 0, (0, 2): 0, (1, 0): 0, (1, 1): 2, (1, 2): 0,
             (2, 0): 2, (2, 1): 2, (2, 2): 2}
    a = GammaAction(FiniteGroupoid(1, (0, 0, 0), (0, 0, 0), (2,), (0, 0, 2), table),
                    (0,), (1, 0, 2))
    message = "an inverse of a star arrow does not return to 0"
    assert outcome(hfp, a) == f"{message}: the carrier is not a groupoid or bar is not a functor"
    assert outcome(star_hfp, a) == message


def test_a_generator_whose_row_does_not_lift_raises():
    # three arrows on one object by a table that is not a groupoid's, with
    # one fixed point over phi = 1, the unit.  Its automorphisms lie over 0
    # and 1; 0 generates them, since 0 then 0 is 1, but 0 then 1 is 2, which
    # lifts to no arrow.  The component has no star arrow, so only the row of
    # the generator finds the fault
    table = {(0, 0): 1, (0, 1): 2, (0, 2): 0, (1, 0): 2, (1, 1): 2, (1, 2): 1,
             (2, 0): 1, (2, 1): 2, (2, 2): 2}
    a = GammaAction(FiniteGroupoid(1, (0, 0, 0), (0, 0, 0), (1,), (0, 1, 2), table),
                    (0,), (1, 1, 1))
    message = "no fixed-point arrow or composite over 2"
    assert outcome(hfp, a) == f"{message}: the carrier is not a groupoid"
    assert outcome(star_hfp, a) == message


def test_the_closure_of_bg_s6_reads_generators_not_every_arrow_out_of_a_root():
    # BG(S6) under conjugation by a transposition t: phi is a fixed point
    # when t phi is an involution or 1, so there are 76 over the one object,
    # in four components of k fixed points with k |Aut| = 720.  The scan reads
    # two rows per fixed point; the closure check reads g + k - 1 rows per
    # component, each a whole row of 720 arrows out of a fixed point, where
    # it used to read k * 720 + k - 1; Aut(r) is read for its g generators
    # in rows of at most g arrows
    s6 = symmetric_group(6)
    a = bg_gamma_action(GroupGammaAction(s6, conjugation_automorphism(s6, 1)))
    each, rows = a.carrier.compose_each, []
    a.carrier.compose_each = lambda m1, ms: rows.append(len(ms)) or each(m1, ms)
    t0 = time.perf_counter()
    fp = hfp(a)
    elapsed = time.perf_counter() - t0
    a.carrier.compose_each = each
    h = fp.groupoid
    assert (h.n_objects, h.n_morphisms) == (76, 54720)
    bound = star_bound = 0
    for r, star in _stars(h):
        k, aut = len(star), h.aut(r)
        assert k * len(aut) == 720
        gens = _generators((0,) * len(aut), (0,) * len(aut), (range(len(aut)),),
                           lambda p, qs: [aut.index(c) for c in
                                          h.compose_each(aut[p], [aut[q] for q in qs])],
                           (aut.index(h.id_of[r]),))
        assert 2 ** len(gens) <= len(aut)  # an irredundant set, each doubling
        bound += len(gens) + k - 1
        star_bound += k * len(aut) + k - 1
    closure = rows[152:].count(720)
    print(f"hfp(BG(S6)): {elapsed:.3f} s, {closure} closure rows, at most {bound}; "
          f"the star check read {star_bound}")
    assert rows[:152] == [720] * 152
    assert 0 < closure <= bound
    assert max(n for n in rows[152:] if n != 720) < 10


def test_an_inverse_that_does_not_return_to_its_base_is_never_composed():
    # EG(Z2) by its row rule, which skips the endpoint check, with inv(id_0)
    # redeclared as the arrow 0 -> 1 and bar taking id_0 there too, so that
    # (0, id_0) is still a fixed point: the scan must not compose that
    # inverse with the arrows out of 0
    g = build_action_groupoid(left_multiplication_action(cyclic_group(2)))
    assert (g.src[2], g.tgt[2], g.inv) == (0, 1, (0, 1, 3, 2))
    rows = []
    broken = FiniteGroupoid(g.n_objects, g.src, g.tgt, g.id_of, (2, 1, 3, 2),
                            lambda m1, ms: rows.append(m1) or g.compose_each(m1, ms))
    a = GammaAction(broken, (0, 1), (2, 1, 2, 3))
    assert outcome(hfp, a) == "inv(0) does not return to 0: the carrier is not a groupoid"
    assert rows == []


def test_a_composite_dropped_from_a_generator_row_raises():
    # EG(S3) by table under conjugation.  The arrows out of fixed point 0 are
    # generators; one of their rows loses a composite that the arrow scan
    # never reads, so the star check meets the KeyError, as the walk does
    a, _ = eg_transposition(3)
    g = a.carrier
    fp = hfp(a)
    phi = {o.base: o.phi for o in fp.objects}
    alpha = next(k for k in fp._lifts[0] if k not in (g.id_of[0], phi[0]))
    beta = next(k for k in g.out_of[g.tgt[alpha]] if k != phi[g.tgt[alpha]])
    table = dict(g.comp)
    del table[alpha, beta]
    bad = replace(a, carrier=FiniteGroupoid(g.n_objects, g.src, g.tgt, g.id_of, g.inv, table))
    message = (f"no fixed-point arrow or composite over {(alpha, beta)}: "
               "the carrier is not a groupoid")
    assert outcome(pair_hfp, bad, table_pair(table)) == message
    assert outcome(hfp, bad) == message
