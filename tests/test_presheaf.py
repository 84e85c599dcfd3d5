import random
from dataclasses import replace

import pytest

from grpd.cohomology import GroupGammaAction, bg_gamma_action
from grpd.colimit import _descend
from grpd.core import (
    FiniteGroupoid,
    GroupoidMap,
    InvariantViolation,
    build_bg,
    discrete_groupoid,
    identity_map,
    build_eg,
    is_fibration,
    is_weak_equivalence,
    terminal_groupoid,
    validate_functor,
    validate_groupoid,
)
from grpd.corpus import (
    constant_presheaf_action,
    local_not_sectionwise_fib,
    local_not_sectionwise_weq,
    random_presheaf_action,
    random_sectionwise_map,
    random_site,
    skyscraper_presheaf_action,
)
from grpd.gamma import (EquivariantMap, GammaAction, hfp, hfp_map, trivial_action,
                        validate_gamma_action)
from grpd.groups import cyclic_group
from grpd.presheaf import (
    _diagram_at_point,
    _point_filter_category,
    FiniteSite,
    GroupoidPresheaf,
    PresheafGammaAction,
    PresheafMap,
    constant_presheaf,
    is_local_fib,
    is_local_weq,
    is_sectionwise_fib,
    is_sectionwise_weq,
    presheaf_hfp,
    sierpinski_site,
    site_from_open_sets,
    stalk,
    stalk_commutation_check,
    stalk_map,
    terminal_presheaf,
    validate_presheaf,
    validate_presheaf_gamma_action,
    validate_site,
)
from test_colimit import all_arrows_colimit_groupoids


def validate_presheaf_map(f: PresheafMap) -> list[str]:
    """Components, then naturality, one violation per line; empty means valid."""
    report = []
    s = f.dom.site
    if f.cod.site != s:
        report.append("shape: the presheaves live on different sites")
        return report
    if len(f.at) != s.n_opens:
        report.append("shape: one component per open expected")
        return report
    for u in s.opens():
        report.extend(f"component {u}: {line}" for line in validate_functor(f.at[u]))
    if report:
        return report
    for (u, v) in s.comparable_pairs():
        if f.at[u].then(f.cod.res[(u, v)]) != f.dom.res[(u, v)].then(f.at[v]):
            report.append(f"naturality: ({u},{v})")
    return report


def bz2_trivial():
    z2 = cyclic_group(2)
    return bg_gamma_action(GroupGammaAction(group=z2, bar=tuple(z2.elements())))


def test_sierpinski_site():
    s = sierpinski_site()
    assert validate_site(s) == []
    assert s.n_opens == 3 and s.n_points == 2
    assert s.point_open == (1, 2)
    assert s.filter_opens(0) == (1, 2)
    assert s.filter_opens(1) == (2,)
    assert sorted(s.comparable_pairs()) == [(1, 0), (2, 0), (2, 1)]


def test_site_from_open_sets():
    s = site_from_open_sets(("x", "y", "z"),
                            [(), (0,), (0, 1), (0, 1, 2)])
    assert validate_site(s) == []
    assert s.n_opens == 4
    assert [s.open_labels[s.point_open[t]] for t in s.points()] == [
        "{x}", "{x,y}", "{x,y,z}"]


def test_site_needs_a_least_open_per_point():
    with pytest.raises(ValueError):
        site_from_open_sets(("x", "y", "z"),
                            [(), (0, 1), (0, 2), (0, 1, 2)])


def test_validate_site_catches_opens_with_equal_points():
    s = FiniteSite(open_labels=("0", "u", "all"),
                   leq=frozenset({(0, 0), (1, 1), (2, 2),
                                  (0, 1), (0, 2), (1, 2)}),
                   point_labels=("a", "b"), point_open=(1, 1))
    assert any(line.startswith("separation") for line in validate_site(s))


def test_point_filter_category_is_filtered():
    from grpd.colimit import filtered_witness
    from grpd.core import validate_category

    s = sierpinski_site()
    for t in s.points():
        cat, opens = _point_filter_category(s, t)
        assert validate_category(cat) == []
        assert filtered_witness(cat) is None
        assert opens == s.filter_opens(t)


def test_constant_presheaf_stalks():
    s = sierpinski_site()
    x = constant_presheaf(s, build_bg(cyclic_group(2)))
    assert validate_presheaf(x) == []
    for t in s.points():
        st = stalk(x, t)
        assert (st.groupoid.n_objects, st.groupoid.n_morphisms) == (1, 2)


def test_skyscraper_stalks():
    # Skyscraper at the closed point: the open point's least open misses it,
    # so that stalk collapses while the closed point keeps the full value.
    s = sierpinski_site()
    a = skyscraper_presheaf_action(s, 1, bz2_trivial())
    assert validate_presheaf_gamma_action(a) == []
    assert stalk(a.presheaf, 0).groupoid.n_morphisms == 1
    assert stalk(a.presheaf, 1).groupoid.n_morphisms == 2


def test_presheaf_hfp_produces_a_presheaf_map():
    s = sierpinski_site()
    a = constant_presheaf_action(s, bz2_trivial())
    ph = presheaf_hfp(a)
    assert validate_presheaf(ph.presheaf) == []
    assert validate_presheaf_map(ph.iota) == []
    for fp in ph.fixed_points:
        assert (fp.groupoid.n_objects, fp.groupoid.n_morphisms) == (2, 4)


def test_stalk_commutation_on_fixtures():
    s = sierpinski_site()
    for a in (constant_presheaf_action(s, bz2_trivial()),
              skyscraper_presheaf_action(s, 0, bz2_trivial())):
        for t in s.points():
            c = stalk_commutation_check(a, t)
            assert c.is_isomorphism
            assert (stalk(presheaf_hfp(a).presheaf, t).groupoid.n_objects
                    == c.lhs.n_objects)


def test_diagram_at_point_validates():
    from grpd.colimit import validate_diagram

    s = sierpinski_site()
    a = skyscraper_presheaf_action(s, 0, bz2_trivial())
    for t in s.points():
        assert validate_diagram(_diagram_at_point(a, t)) == []


def test_sectionwise_implies_local_on_a_constant_map():
    s = sierpinski_site()
    z2 = cyclic_group(2)
    eg = build_eg(z2)
    dom = constant_presheaf(s, eg)
    cod = terminal_presheaf(s)
    collapse = GroupoidMap(eg, terminal_groupoid(),
                           (0,) * eg.n_objects, (0,) * eg.n_morphisms)
    f = PresheafMap(dom=dom, cod=cod, at=(collapse,) * s.n_opens)
    assert validate_presheaf_map(f) == []
    assert is_sectionwise_weq(f) and is_local_weq(f)
    assert is_sectionwise_fib(f) and is_local_fib(f)
    for t in s.points():
        g = stalk_map(f, t)
        assert is_weak_equivalence(g) and is_fibration(g)


def test_local_but_not_sectionwise_weq():
    f = local_not_sectionwise_weq()
    assert validate_presheaf_map(f) == []
    assert not is_sectionwise_weq(f)
    assert is_local_weq(f)


def test_local_but_not_sectionwise_fib():
    f = local_not_sectionwise_fib()
    assert validate_presheaf_map(f) == []
    assert not is_sectionwise_fib(f)
    assert is_local_fib(f)


def test_validate_presheaf_catches_broken_functoriality():
    s = sierpinski_site()
    z4 = build_bg(cyclic_group(4))
    ident = GroupoidMap(z4, z4, (0,), (0, 1, 2, 3))
    inv = GroupoidMap(z4, z4, (0,), (0, 3, 2, 1))
    x = GroupoidPresheaf(site=s, sections=(z4, z4, z4),
                         res={(1, 0): ident, (2, 0): inv, (2, 1): ident})
    assert validate_presheaf(x) != []


def test_stalk_rejects_a_non_functorial_presheaf():
    # {a,b,c} -> {a,b} -> {a} swaps the two points while {a,b,c} -> {a}
    # keeps them: the validator rejects it, and the stalk, joined along the
    # covering restrictions only, keeps both points of the section at {a}
    site = site_from_open_sets(("a", "b", "c"), [
        frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})])
    two = discrete_groupoid(2)
    res = {pair: identity_map(two) for pair in site.comparable_pairs()}
    res[(2, 1)] = GroupoidMap(two, two, (1, 0), (1, 0))
    x = GroupoidPresheaf(site=site, sections=(two,) * 4, res=res)
    assert validate_presheaf(x) != []
    st = stalk(x, 0)
    assert st.groupoid == two
    assert [(g.obj_map, g.mor_map) for g in st.germs.values()] == [
        ((0, 1), (0, 1)), ((1, 0), (1, 0)), ((1, 0), (1, 0))]


def test_random_sites_and_presheaves_validate():
    for seed in range(5):
        rng = random.Random(f"presheaf-test:{seed}")
        s = random_site(rng)
        assert validate_site(s) == []
        a = random_presheaf_action(rng)
        assert validate_site(a.presheaf.site) == []
        assert validate_presheaf(a.presheaf) == []
        assert validate_presheaf_gamma_action(a) == []


def test_carriers_equal_to_their_sections_are_checked_like_carriers():
    # Each carrier is a copy of its section, not the section object: the
    # report per open is still validate_gamma_action's, prefixed by the open.
    a = random_presheaf_action(random.Random("presheaf-test:copies"))

    def copy(g, obj_labels):
        return FiniteGroupoid(g.n_objects, g.src, g.tgt, g.id_of, g.inv, g.comp,
                              obj_labels=obj_labels, mor_labels=g.mor_labels)

    def with_carriers(obj_labels, bar_mor=lambda b: b.bar_mor):
        at = tuple(GammaAction(copy(b.carrier, obj_labels(b.carrier)), b.bar_obj,
                               bar_mor(b)) for b in a.at)
        return PresheafGammaAction(a.presheaf, at)

    def reference(p):
        return [f"open {u}: {line}"
                for u, b in enumerate(p.at) for line in validate_gamma_action(b)]

    cases = [
        with_carriers(lambda g: g.obj_labels),
        with_carriers(lambda g: ("x",) * (g.n_objects + 1)),
        with_carriers(lambda g: g.obj_labels, bar_mor=lambda b: b.bar_mor[:-1]),
    ]
    for p in cases:
        assert all(b.carrier is not c and b.carrier == c
                   for b, c in zip(p.at, p.presheaf.sections))
        assert validate_presheaf_gamma_action(p) == reference(p)
    assert validate_presheaf_gamma_action(cases[0]) == []
    assert validate_presheaf_gamma_action(cases[1])[0].startswith(
        "open 0: carrier labels: obj_labels has ")
    assert validate_presheaf_gamma_action(cases[2])[0] == (
        "open 0: shape: bar tables do not match the carrier")


def reference_stalk_map(f, t):
    """The stalk map as two ``_descend`` calls over the domain's germs, one
    table per open: the map there, then the codomain's germ."""
    sd, sc = stalk(f.dom, t), stalk(f.cod, t)
    gd = [sd.germs[u] for u in sd.opens]
    gc = [sc.germs[u] for u in sd.opens]
    obj_map = _descend("stalk map on objects", sd.groupoid.n_objects,
                       [g.obj_map for g in gd],
                       [[g.obj_map[y] for y in f.at[u].obj_map]
                        for g, u in zip(gc, sd.opens)])
    mor_map = _descend("stalk map on morphisms", sd.groupoid.n_morphisms,
                       [g.mor_map for g in gd],
                       [[g.mor_map[k] for k in f.at[u].mor_map]
                        for g, u in zip(gc, sd.opens)])
    return obj_map, mor_map


def test_stalk_map_agrees_with_the_per_open_reference():
    maps = [random_sectionwise_map(random.Random(seed)) for seed in range(50)]
    for f in maps + [local_not_sectionwise_weq(), local_not_sectionwise_fib()]:
        for t in f.dom.site.points():
            g = stalk_map(f, t)
            assert (g.obj_map, g.mor_map) == reference_stalk_map(f, t)


def test_stalks_agree_with_the_all_arrows_colimit():
    # the stalk joins classes along covering restrictions and reads the
    # least open; the reference joins along every restriction and reads
    # every open of the filter
    for seed in range(12):
        a = random_presheaf_action(random.Random(f"stalk-all-arrows:{seed}"))
        for x in (a.presheaf, presheaf_hfp(a).presheaf):
            for t in x.site.points():
                cat, opens = _point_filter_category(x.site, t)
                want = all_arrows_colimit_groupoids(
                    cat, [x.sections[u] for u in opens],
                    [x.res_map(opens[i], opens[j]) for i, j in zip(cat.src, cat.tgt)])
                st = stalk(x, t)
                assert st.groupoid == want.groupoid
                assert tuple(st.germs[u] for u in opens) == want.cocones


def all_restrictions_validate_presheaf(x):
    """``validate_presheaf`` as it was before it decided restrictions on
    covering pairs."""
    s = x.site
    if len(x.sections) != s.n_opens:
        return ["shape: one section per open expected"]
    report = [f"section {u}: {line}" for u, g in enumerate(x.sections)
              for line in validate_groupoid(g)]
    if report:
        return report
    pairs = set(s.comparable_pairs())
    if set(x.res) != pairs:
        report.append("shape: restriction keys must be the strictly comparable pairs")
        return report
    for (u, v), f in x.res.items():
        if f.dom != x.sections[u] or f.cod != x.sections[v]:
            report.append(f"restriction ({u},{v}): wrong endpoints")
            continue
        report.extend(f"restriction ({u},{v}): {line}" for line in validate_functor(f))
    if report:
        return report
    for (u, v) in pairs:
        for w in s.opens():
            if w != v and w != u and s.is_leq(w, v):
                if x.res[(u, v)].then(x.res[(v, w)]) != x.res[(u, w)]:
                    report.append(f"functoriality: ({u},{v},{w})")
    return report


def broken_restrictions(x, rng):
    """Copies of x with one restriction's tables changed: reversed, one entry
    moved to another in-range value, cut short, out of range, or with the
    other endpoints."""
    for (u, v), f in x.res.items():
        n, m = f.cod.n_objects, f.cod.n_morphisms
        k = rng.randrange(len(f.mor_map))
        y = rng.randrange(len(f.obj_map))
        for tables in ((f.obj_map[::-1], f.mor_map[::-1]),
                       (f.obj_map, f.mor_map[:k] + ((f.mor_map[k] + 1) % m,)
                        + f.mor_map[k + 1:]),
                       (f.obj_map[:y] + ((f.obj_map[y] + 1) % n,) + f.obj_map[y + 1:],
                        f.mor_map),
                       (f.obj_map, f.mor_map[:-1]),
                       (f.obj_map, f.mor_map[:-1] + (m,))):
            yield replace(x, res={**x.res, (u, v): GroupoidMap(f.dom, f.cod, *tables)})
        yield replace(x, res={**x.res, (u, v): GroupoidMap(f.cod, f.dom, f.obj_map,
                                                          f.mor_map)})


def test_validate_presheaf_agrees_with_the_all_restrictions_report():
    rng = random.Random("validate-presheaf-differential")
    z4 = build_bg(cyclic_group(4))
    ident = GroupoidMap(z4, z4, (0,), (0, 1, 2, 3))
    inv = GroupoidMap(z4, z4, (0,), (0, 3, 2, 1))
    presheaves = [GroupoidPresheaf(site=sierpinski_site(), sections=(z4, z4, z4),
                                   res={(1, 0): ident, (2, 0): inv, (2, 1): ident})]
    presheaves += [random_presheaf_action(rng).presheaf for _ in range(6)]
    chain = site_from_open_sets(("a", "b", "c"), [
        frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})])
    presheaves.append(constant_presheaf(chain, z4))
    faults = 0
    for x in presheaves:
        for case in [x, *broken_restrictions(x, rng)]:
            want = all_restrictions_validate_presheaf(case)
            assert validate_presheaf(case) == want
            faults += bool(want)
    assert faults > 300


# ---------------------------------------------------------------------------
# each action's fixed points once per call


@pytest.fixture
def hfp_calls(monkeypatch):
    """The actions ``gamma.hfp`` is called on while the test runs."""
    from grpd import gamma
    calls, original = [], gamma.hfp

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(gamma, "hfp", counting)
    return calls


def test_presheaf_hfp_computes_a_repeated_involution_once(hfp_calls):
    s = site_from_open_sets(("x", "y"), [(), (0,), (0, 1)])
    a = constant_presheaf_action(s, bz2_trivial())
    assert s.n_opens == 3 and len({id(b) for b in a.at}) == 1
    out = presheaf_hfp(a)
    assert hfp_calls == [a.at[0]]
    fps = [hfp(b) for b in a.at]
    assert out.presheaf.sections == tuple(fp.groupoid for fp in fps)
    assert out.iota.at == tuple(fp.iota() for fp in fps)
    assert out.presheaf.res == {
        (u, v): hfp_map(EquivariantMap(a.presheaf.res[(u, v)], a.at[u], a.at[v]), fps[u], fps[v])
        for (u, v) in s.comparable_pairs()}


def test_a_skyscraper_computes_each_distinct_involution_once(hfp_calls):
    s = site_from_open_sets(("x", "y"), [(), (0,), (0, 1)])
    a = skyscraper_presheaf_action(s, 1, bz2_trivial())
    presheaf_hfp(a)
    assert len(hfp_calls) == len({id(b) for b in a.at}) == 2


def test_the_colimit_comparison_computes_a_repeated_node_once(hfp_calls):
    from grpd.colimit import hfp_colimit_comparison
    from grpd.corpus import _bar_power_diagram
    d = _bar_power_diagram(random.Random(3))
    assert len(d.nodes) == 4 and len({id(a) for a in d.nodes}) == 1
    c = hfp_colimit_comparison(d)
    assert hfp_calls == [d.nodes[0]]
    ref = hfp_colimit_comparison(d, node_fps=[hfp(a) for a in d.nodes])
    assert (c.map, c.is_isomorphism, c.lhs) == (ref.map, ref.is_isomorphism, ref.lhs)


def test_hfp_map_of_an_endomorphism_computes_the_fixed_points_once(hfp_calls):
    a = skyscraper_presheaf_action(sierpinski_site(), 0, bz2_trivial()).at[2]
    e = EquivariantMap(identity_map(a.carrier), a, a)
    f = hfp_map(e)
    assert hfp_calls == [a]
    assert f == hfp_map(e, hfp(a), hfp(a))


# ---------------------------------------------------------------------------
# meets on down-sets


def pairwise_validate_site(s: FiniteSite) -> list[str]:
    """``validate_site`` as it was before meets were read off down-sets: for
    each pair of opens, every lower bound against every other."""
    report = []
    n = s.n_opens
    if len(s.point_open) != s.n_points:
        return ["shape: one least open per point expected"]
    for (u, v) in s.leq:
        if not (0 <= u < n and 0 <= v < n):
            report.append("shape: leq entry out of range")
            return report
    for u in s.opens():
        if not s.is_leq(u, u):
            report.append(f"poset: {u} is not below itself")
    for (u, v) in s.leq:
        if u != v and s.is_leq(v, u):
            report.append(f"poset: {u} and {v} are below each other")
    for (u, v) in s.leq:
        for w in s.opens():
            if s.is_leq(v, w) and not s.is_leq(u, w):
                report.append(f"poset: transitivity fails at ({u},{v},{w})")
    if report:
        return report
    if not any(all(s.is_leq(u, t) for u in s.opens()) for t in s.opens()):
        report.append("bounds: no top open")
    if not any(all(s.is_leq(b, u) for u in s.opens()) for b in s.opens()):
        report.append("bounds: no bottom open")
    for u in s.opens():
        for v in s.opens():
            lower = [w for w in s.opens() if s.is_leq(w, u) and s.is_leq(w, v)]
            if not any(all(s.is_leq(x, w) for x in lower) for w in lower):
                report.append(f"meets: opens {u} and {v} have no meet")
    for t in s.points():
        if not 0 <= s.point_open[t] < n:
            report.append(f"points: least open of point {t} out of range")
    seen = {}
    for u in s.opens():
        key = frozenset(t for t in s.points() if s.is_leq(s.point_open[t], u))
        if key in seen:
            report.append(f"separation: opens {seen[key]} and {u} contain the same points")
        else:
            seen[key] = u
    return report


def poset_site(n, below, points):
    """Opens 0..n-1 ordered by the reflexive closure of ``below``."""
    leq = frozenset(below) | {(u, u) for u in range(n)}
    return FiniteSite(open_labels=tuple(map(str, range(n))), leq=leq,
                      point_labels=tuple("abcdefg"[:len(points)]), point_open=tuple(points))


def broken_sites():
    # two middle opens below two incomparable opens below the top: the
    # upper two have lower bounds 0, 1 and 2 but no greatest one
    crown = {(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4),
             (1, 5), (2, 5), (3, 5), (4, 5)}
    yield poset_site(6, crown, (1, 2))
    yield poset_site(6, crown - {(0, 5)}, (1, 2))  # transitivity broken too
    yield poset_site(4, {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}, (1, 1))  # separation
    yield poset_site(3, {(0, 1), (1, 2), (0, 2), (2, 1)}, (1,))  # not antisymmetric
    yield poset_site(3, {(0, 1), (1, 2), (0, 2), (0, 9)}, (1,))  # out of range
    yield poset_site(3, {(0, 1), (1, 2), (0, 2)}, (1, 7))  # a point's open out of range
    yield poset_site(3, {(0, 1), (0, 2)}, (1, 2))  # no top, and 1, 2 have no join
    yield poset_site(3, {(1, 0), (2, 0)}, (1, 2))  # no bottom, and 1, 2 have no meet
    rng = random.Random("sites:dropped")
    for _ in range(40):
        s = random_site(rng)
        pairs = sorted(s.leq)
        yield replace(s, leq=s.leq - {rng.choice(pairs)})  # a pair dropped from leq
        u, v = rng.sample(range(s.n_opens), 2)
        yield replace(s, point_open=(u,) * s.n_points)  # opens alike on points
        yield replace(s, leq=s.leq | {(u, v)})


def test_validate_site_agrees_with_the_pairwise_meet_check():
    rng = random.Random("sites:valid")
    for _ in range(200):
        s = random_site(rng)
        assert validate_site(s) == pairwise_validate_site(s) == []
    reports = [(validate_site(s), pairwise_validate_site(s)) for s in broken_sites()]
    assert all(new == old for new, old in reports)
    lines = {" ".join(line.split()[:2]) for new, _ in reports for line in new}
    assert {"meets: opens", "separation: opens", "shape: leq", "poset: transitivity",
            "bounds: no", "points: least"} <= lines
