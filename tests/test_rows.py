"""Row composition against the tables of the references.

A rule-backed structure composes one arrow with a whole row of arrows out of
its target, ``compose_each(m1, ms)``.  Every structure these tests build
carries beside it a function that builds its reference by table
(``reference.action_groupoid``, ``product``, ``disjoint_union`` and
``hfp``), whose ``compose`` reads one entry per pair.  ``reference.hfp``
also walks every composable pair of fixed-point arrows, the reference for
the generators and counts on which ``hfp`` checks its closure.
"""

import random
import time
from dataclasses import replace

import pytest

from grpd.cohomology import GroupGammaAction, bg_gamma_action
from grpd.core import (
    FiniteGroupoid,
    InvariantViolation,
    _stars,
    build_action_groupoid,
    build_bg,
    build_eg,
    disjoint_union,
    product,
    relabel,
    terminal_groupoid,
    validate_groupoid,
)
from grpd.corpus import (
    corrupted_bg_z2,
    eg_gamma_action,
    gamma_group_fixtures,
    group_catalog,
    random_filtered_diagram,
    random_gamma_action,
    small_groupoid_catalog,
)
from grpd.gamma import GammaAction, gamma_product, hfp, trivial_action
from grpd.groups import (
    GroupAction,
    conjugation_automorphism,
    cyclic_group,
    left_multiplication_action,
    symmetric_group,
    trivial_point_action,
)
from grpd.util import _generators
from test_gamma import raises_key_error, small_actions
from test_sweep import involutions_by_carrier
import reference


def tables(r):
    """Fixed points, of ``hfp`` or ``reference.hfp``, as comparable tables."""
    h = r.groupoid
    return list(r.objects), list(zip(h.src, h.tgt, r.underlying)), list(h.id_of), list(h.inv)


def outcome(f, a):
    """The tables of ``f(a)``, or the message of the ``InvariantViolation``
    raised instead."""
    try:
        return tables(f(a))
    except InvariantViolation as exc:
        return str(exc)


# ---------------------------------------------------------------------------
# structures, each with a function building its reference


def action(a):
    return build_action_groupoid(a), lambda: reference.action_groupoid(a)


def prod(g, h):
    return product(g, h), lambda: reference.product(g, h)


def union(gs):
    return disjoint_union(gs), lambda: reference.disjoint_union(gs)


def tabled(g):
    """A groupoid or category given by a table, its own reference."""
    assert g._comp is not None
    return g, lambda: g


def fixed(a):
    return hfp(a).groupoid, lambda: reference.hfp(a).groupoid


Z4_ON_TWO_POINTS = GroupAction(cyclic_group(4), 2, ((0, 1), (1, 0), (0, 1), (1, 0)))


def eg_transposition(n):
    g = symmetric_group(n)
    return eg_gamma_action(g, conjugation_automorphism(g, 1))


def nested_action():
    """The product of the EG(S3) and BG(C4) involutions."""
    return gamma_product(eg_transposition(3), bg_gamma_action(gamma_group_fixtures()[3]))


def carriers():
    """Rule-backed and table-backed structures of every kind, with their
    references."""
    cat = group_catalog()
    z2, z3, s3 = cat["Z2"], cat["Z3"], cat["S3"]
    out = [action(left_multiplication_action(grp)) for grp in cat.values()]
    out += [action(trivial_point_action(grp)) for grp in cat.values()]
    out.append(action(Z4_ON_TWO_POINTS))
    out += [prod(build_eg(z2), build_bg(z3)), prod(build_bg(s3), build_eg(z3)),
            prod(build_eg(s3), build_eg(s3))]  # the swap carrier of EG(S3)
    out += [prod(x, x) for x in small_groupoid_catalog()]
    out += [union([build_bg(z2), terminal_groupoid(), build_eg(z3)]),
            union([product(build_eg(z2), build_bg(z2)), build_bg(s3)]),
            prod(disjoint_union([build_bg(z2), build_eg(z2)]), build_bg(z3))]
    out.append(tabled(relabel(build_eg(s3), range(6), [35 - m for m in range(36)])))
    out += [tabled(random_filtered_diagram(random.Random(seed)).index) for seed in range(5)]
    return out


# ---------------------------------------------------------------------------
# checks


def assert_rows_match(g, ref):
    """Each row out of the target of each arrow composes as the reference
    does, one pair at a time; so does ``compose``.  A rule stays a rule."""
    rule = g._comp is None
    for m1 in g.morphisms():
        row = g.out_of[g.tgt[m1]]
        want = [ref.compose(m1, m2) for m2 in row]
        assert g.compose_each(m1, row) == want
        assert [g.compose(m1, m2) for m2 in row] == want
    assert (g._comp is None) == rule


def assert_compose_checks_endpoints(g):
    if g.n_morphisms <= 600:
        assert all(raises_key_error(g.compose, m1, m2)
                   for m1 in g.morphisms() for m2 in g.morphisms()
                   if g.tgt[m1] != g.src[m2])


@pytest.mark.parametrize("i", range(len(carriers())))
def test_carrier_rows_match_the_pair_rules(i):
    g, ref = carriers()[i]
    assert_rows_match(g, ref())
    assert_compose_checks_endpoints(g)


@pytest.mark.parametrize("name, actions", [
    ("small", lambda: list(small_actions())),
    ("eg-s3-s4", lambda: [eg_transposition(3), eg_transposition(4)]),
    ("nested", lambda: [nested_action()]),
])
def test_fixed_point_rows_match_the_pair_rules(name, actions):
    for a in actions():
        h, ref = fixed(a)
        assert_rows_match(h, ref())
        assert_compose_checks_endpoints(h)


def test_fixed_points_of_fixed_points_compose_by_rows():
    inner, ref = fixed(trivial_action(hfp(nested_action()).groupoid))
    assert inner.n_morphisms > 100
    assert_rows_match(inner, ref())


def test_hfp_agrees_with_the_pair_construction():
    bad = corrupted_bg_z2()
    for a in [*small_actions(), eg_transposition(3), nested_action(), trivial_action(bad)]:
        assert outcome(hfp, a) == outcome(reference.hfp, a)


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
    assert outcome(reference.hfp, a) == (
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


def random_bar_pool():
    """Groupoid carriers for ``random_bar``."""
    cat = group_catalog()
    z2, z3, s3 = cat["Z2"], cat["Z3"], cat["S3"]
    return [build_eg(s3), build_bg(s3), build_bg(cat["V4"]), build_eg(cat["Z4"]),
            build_action_groupoid(Z4_ON_TWO_POINTS),
            relabel(build_eg(s3), range(6), [35 - m for m in range(36)]),
            product(build_eg(z2), build_bg(z3)), product(build_bg(s3), build_eg(z3)),
            disjoint_union([build_bg(z2), terminal_groupoid(), build_eg(z3)]),
            disjoint_union([product(build_eg(z2), build_bg(z2)), build_bg(s3)]),
            hfp(eg_transposition(3)).groupoid, hfp(nested_action()).groupoid]


def walk(a):
    """``reference.hfp`` of a, or None if it raises, and how it ends."""
    try:
        ref = reference.hfp(a)
    except InvariantViolation:
        return None, "the walk raises"
    if validate_groupoid(ref.groupoid):
        return ref, "the walk returns a broken groupoid"
    return ref, "the walk returns a groupoid"


def test_hfp_agrees_with_the_pair_construction_on_bars_that_are_not_functors():
    pool = random_bar_pool()
    # every carrier ten times, then BG(V4) and C4 on two points, the carriers
    # where a random bar most often breaks the fixed points
    draws = [(pool[k % len(pool)], k % 2 == 0) for k in range(10 * len(pool))]
    draws += [(pool[2 + 2 * (k % 2)], True) for k in range(300)]
    rng = random.Random("non-functor bars")
    seen = set()
    for g, keeps_sources in draws:
        a = GammaAction(g, *random_bar(rng, g, keeps_sources))
        ref, case = walk(a)
        got = outcome(hfp, a)
        seen.add(case)
        if case == "the walk returns a groupoid":
            assert got == tables(ref)
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
        a = eg_transposition(n)
        each = a.carrier.compose_each
        rows = []
        a.carrier.compose_each = lambda m1, ms: rows.append(m1) or each(m1, ms)
        assert len(hfp(a).underlying) == fixed_points ** 2
        assert len(rows) == 2 * fixed_points + fixed_points - 1


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
    pool = random_bar_pool() + [build_bg(symmetric_group(4))]
    actions = [GammaAction(g, *random_bar(rng, g, k % 2 == 0)) for k in range(20) for g in pool]
    corpus = [*small_actions(), eg_transposition(3), eg_transposition(4),
              *(a for row in involutions_by_carrier() for a in row),
              *(random_gamma_action(rng) for _ in range(100))]
    actions += corpus + [swapped_bar(rng, a) for a in corpus for _ in range(3)]
    s4 = symmetric_group(4)
    actions += [bg_gamma_action(GroupGammaAction(s4, conjugation_automorphism(s4, t)))
                for t in s4.elements() if s4.mul(t, t) == s4.identity]
    raised = returned = 0
    for a in actions:
        assert validate_groupoid(a.carrier) == []
        ref, case = walk(a)
        got = outcome(hfp, a)
        if case == "the walk returns a groupoid":
            returned += 1
            assert got == tables(ref)
        else:
            raised += 1
            assert isinstance(got, str)
    assert raised > 100 and returned > 500


def test_a_root_with_too_few_arrows_out_raises():
    # three arrows on one object by a table that is not a groupoid's: 0 is
    # no unit.  The fixed points 0 and 1 share a component whose root has two
    # automorphisms but one arrow to 1, and every row the check reads lifts,
    # so only the count of the arrows out of the root finds the fault
    table = {(0, 0): 2, (0, 1): 0, (0, 2): 1, (1, 0): 1, (1, 1): 0, (1, 2): 1,
             (2, 0): 0, (2, 1): 1, (2, 2): 0}
    a = GammaAction(FiniteGroupoid(1, (0, 0, 0), (0, 0, 0), (0,), (0, 1, 2), table),
                    (0,), (0, 2, 2))
    assert outcome(hfp, a) == ("fixed point 0 has 3 arrows out, 2 to itself and 2 fixed "
                               "points in its component: the carrier is not a groupoid or "
                               "bar is not a functor")


def test_a_fixed_point_with_fewer_arrows_out_than_its_root_raises():
    # five arrows on one object by a table that is not a groupoid's.  The
    # fixed points 0 and 1 share a component; the root has one arrow to each,
    # and the star arrow's row lifts, but the identity of 1 lands on 0, so 1
    # has one arrow out where the root has two.  Only the count of arrows
    # out finds the fault: the row of the inverse of the star arrow is not read
    table = {(0, 0): 4, (0, 1): 1, (0, 2): 1, (0, 3): 0, (0, 4): 4,
             (1, 0): 3, (1, 1): 3, (1, 2): 1, (1, 3): 0, (1, 4): 0,
             (2, 0): 0, (2, 1): 4, (2, 2): 1, (2, 3): 0, (2, 4): 0,
             (3, 0): 1, (3, 1): 2, (3, 2): 0, (3, 3): 3, (3, 4): 3,
             (4, 0): 3, (4, 1): 2, (4, 2): 3, (4, 3): 0, (4, 4): 0}
    a = GammaAction(FiniteGroupoid(1, (0,) * 5, (0,) * 5, (0,), (2, 0, 0, 3, 1), table),
                    (0,), (2, 0, 1, 1, 3))
    assert outcome(hfp, a) == ("fixed point 1 has 1 arrows out and 0 has 2: the carrier "
                               "is not a groupoid or bar is not a functor")


def test_a_star_arrow_whose_inverse_does_not_return_raises():
    # three arrows on one object by a table that is not a groupoid's.  The
    # star arrow from fixed point 0 to 1 lies over 0, and so does its inverse,
    # inv(0) being 0, which lifts out of 1 to 1 itself.  The check raises
    # before it reads a closure row
    table = {(0, 0): 0, (0, 1): 0, (0, 2): 0, (1, 0): 0, (1, 1): 2, (1, 2): 0,
             (2, 0): 2, (2, 1): 2, (2, 2): 2}
    a = GammaAction(FiniteGroupoid(1, (0, 0, 0), (0, 0, 0), (2,), (0, 0, 2), table),
                    (0,), (1, 0, 2))
    assert outcome(hfp, a) == ("an inverse of a star arrow does not return to 0: the carrier "
                               "is not a groupoid or bar is not a functor")


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
    assert outcome(hfp, a) == ("no fixed-point arrow or composite over 2: the carrier is not "
                               "a groupoid")


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
    # never reads, so the closure check meets the KeyError, as the walk does
    a = eg_transposition(3)
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
    assert outcome(reference.hfp, bad) == message
    assert outcome(hfp, bad) == message
