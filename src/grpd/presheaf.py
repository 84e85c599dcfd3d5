"""Presheaves of groupoids on finite poset sites.

A site here is a finite poset of opens (with top, bottom, and meets) together
with finitely many points, each having a principal neighborhood filter: a
least open containing it.  Presheaves are strict functors; stalks are
computed as genuine filtered colimits over the neighborhood filter, which for
principal filters must agree with the section at the least open; a stalk
that disagrees raises ``InvariantViolation``, as do induced stalk maps
whose germs disagree.  Presheaves of groups or of group actions have no type
here: their action groupoids, open by open, form a presheaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .colimit import (
    ColimitComparison,
    FilteredDiagram,
    GroupoidColimit,
    _induced_map,
    _poset_category,
    colimit_groupoids,
    hfp_colimit_comparison,
)
from .core import (
    FiniteCategory,
    FiniteGroupoid,
    GroupoidMap,
    InvariantViolation,
    _label_report,
    _map_shape_report,
    identity_map,
    is_fibration,
    is_weak_equivalence,
    terminal_groupoid,
    validate_functor,
    validate_groupoid,
)
from .gamma import (
    EquivariantMap,
    GammaAction,
    HomotopyFixedPoints,
    _hfp_each,
    _involution_report,
    equivariance_witness,
    hfp_map,
)

__all__ = [
    "FiniteSite",
    "GroupoidPresheaf",
    "PresheafMap",
    "PresheafGammaAction",
    "Stalk",
    "PresheafHfp",
    "validate_site",
    "site_from_open_sets",
    "sierpinski_site",
    "validate_presheaf",
    "validate_presheaf_gamma_action",
    "terminal_presheaf",
    "constant_presheaf",
    "stalk",
    "stalk_map",
    "is_sectionwise_weq",
    "is_sectionwise_fib",
    "is_local_weq",
    "is_local_fib",
    "presheaf_hfp",
    "stalk_commutation_check",
]


@dataclass(frozen=True)
class FiniteSite:
    """A finite poset of opens with points whose filters are principal.

    ``leq`` contains (u, v) when u is contained in v; ``point_open[t]`` is
    the least open containing point t.
    """

    open_labels: tuple[str, ...]
    leq: frozenset
    point_labels: tuple[str, ...]
    point_open: tuple[int, ...]

    @property
    def n_opens(self) -> int:
        return len(self.open_labels)

    @property
    def n_points(self) -> int:
        return len(self.point_labels)

    def opens(self) -> range:
        return range(self.n_opens)

    def points(self) -> range:
        return range(self.n_points)

    def is_leq(self, u: int, v: int) -> bool:
        return (u, v) in self.leq

    def filter_opens(self, t: int) -> tuple[int, ...]:
        """All opens containing the point t, in increasing id order."""
        ut = self.point_open[t]
        return tuple(u for u in self.opens() if self.is_leq(ut, u))

    def comparable_pairs(self) -> tuple[tuple[int, int], ...]:
        """Pairs (u, v) with v strictly below u: the restriction directions."""
        return tuple(
            (u, v) for u in self.opens() for v in self.opens()
            if u != v and self.is_leq(v, u)
        )


def validate_site(s: FiniteSite) -> list[str]:
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
    # on a poset, the meet of u and v is the w below both whose down-set is
    # everything below both
    down = [frozenset(w for w in s.opens() if s.is_leq(w, u)) for u in s.opens()]
    for u in s.opens():
        for v in s.opens():
            lower = down[u] & down[v]
            if not any(down[w] == lower for w in lower):
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


def site_from_open_sets(point_labels: Sequence[str],
                        open_sets: Sequence[frozenset]) -> FiniteSite:
    """Build a site from opens given as sets of point indices.

    Opens are sorted by (size, sorted members); every point must have a least
    open containing it.
    """
    opens = sorted(set(frozenset(u) for u in open_sets), key=lambda u: (len(u), sorted(u)))
    labels = tuple(
        "{" + ",".join(point_labels[t] for t in sorted(u)) + "}" if u else "{}"
        for u in opens
    )
    leq = frozenset(
        (i, j) for i, u in enumerate(opens) for j, v in enumerate(opens) if u <= v
    )
    point_open = []
    for t in range(len(point_labels)):
        containing = [i for i, u in enumerate(opens) if t in u]
        if not containing:
            raise ValueError(f"point {point_labels[t]} lies in no open")
        least = min(containing, key=lambda i: len(opens[i]))
        if not all(opens[least] <= opens[i] for i in containing):
            raise ValueError(f"point {point_labels[t]} has no least open")
        point_open.append(least)
    return FiniteSite(open_labels=labels, leq=leq,
                      point_labels=tuple(point_labels), point_open=tuple(point_open))


def sierpinski_site() -> FiniteSite:
    """Two points a, b; opens {}, {a}, {a,b}."""
    return site_from_open_sets(
        ("a", "b"),
        (frozenset(), frozenset({0}), frozenset({0, 1})),
    )


@dataclass(frozen=True)
class GroupoidPresheaf:
    """A strict presheaf of groupoids: a section per open and a restriction
    functor for every strictly comparable pair of opens."""

    site: FiniteSite
    sections: tuple[FiniteGroupoid, ...]
    res: dict = field(hash=False)

    def res_map(self, u: int, v: int) -> GroupoidMap:
        if u == v:
            return identity_map(self.sections[u])
        return self.res[(u, v)]


def validate_presheaf(x: GroupoidPresheaf) -> list[str]:
    """Sections, then restriction functors, then functoriality; empty means
    valid.  The restrictions are first decided on covering pairs
    (``_restrictions_valid_on_covers``); only if that finds a fault is every
    restriction walked, so the report is the same line for line."""
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
    if _restrictions_valid_on_covers(x, pairs):
        return report
    for (u, v), f in x.res.items():
        if f.dom != x.sections[u] or f.cod != x.sections[v]:
            report.append(f"restriction ({u},{v}): wrong endpoints")
            continue
        report.extend(f"restriction ({u},{v}): {line}" for line in validate_functor(f))
    return report or _functoriality_report(x, pairs)


def _restrictions_valid_on_covers(x: GroupoidPresheaf, pairs: set) -> bool:
    """Whether every restriction is a functor between its sections and the
    restrictions compose, with the functor laws checked on covering pairs
    only.  The other restrictions are checked for their endpoints and table
    shapes, so the functoriality check can compose them; it then shows each
    one to be a composite of covering restrictions, which is a functor."""
    s = x.site
    for (u, v), f in x.res.items():
        if f.dom != x.sections[u] or f.cod != x.sections[v]:
            return False
        covers = not any(s.is_leq(v, w) and s.is_leq(w, u) for w in s.opens()
                         if w != u and w != v)
        if validate_functor(f) if covers else _map_shape_report(f):
            return False
    return not _functoriality_report(x, pairs)


def _functoriality_report(x: GroupoidPresheaf, pairs: set) -> list[str]:
    """``functoriality: (u,v,w)`` for each chain of opens whose restriction
    from u to w is not the one through v."""
    s = x.site
    report = []
    for (u, v) in pairs:
        for w in s.opens():
            if w != v and w != u and s.is_leq(w, v):
                if x.res[(u, v)].then(x.res[(v, w)]) != x.res[(u, w)]:
                    report.append(f"functoriality: ({u},{v},{w})")
    return report


@dataclass(frozen=True)
class PresheafMap:
    dom: GroupoidPresheaf
    cod: GroupoidPresheaf
    at: tuple[GroupoidMap, ...]


@dataclass(frozen=True)
class PresheafGammaAction:
    """A presheaf of groupoids with a compatible involution on each section."""

    presheaf: GroupoidPresheaf
    at: tuple[GammaAction, ...]


def validate_presheaf_gamma_action(a: PresheafGammaAction) -> list[str]:
    """The presheaf (``validate_presheaf``), then one involution per open on
    the section there, then equivariance of the restrictions; empty means
    valid.  A carrier equal to its section shares every table but the
    labels with a section already checked by ``validate_presheaf``, so only
    its labels are checked again (lines prefixed ``carrier ``)."""
    report = validate_presheaf(a.presheaf)
    if report:
        return report
    s = a.presheaf.site
    if len(a.at) != s.n_opens:
        report.append("shape: one involution per open expected")
        return report
    for u in s.opens():
        if a.at[u].carrier != a.presheaf.sections[u]:
            report.append(f"carrier: open {u}")
            continue
        lines = ([f"carrier {line}" for line in _label_report(a.at[u].carrier)]
                 or _involution_report(a.at[u]))
        report.extend(f"open {u}: {line}" for line in lines)
    if report:
        return report
    for (u, v) in s.comparable_pairs():
        e = EquivariantMap(a.presheaf.res[(u, v)], a.at[u], a.at[v])
        w = equivariance_witness(e)
        if w is not None:
            report.append(f"equivariance: restriction ({u},{v}) at {w[0]} {w[1]}")
    return report


def terminal_presheaf(site: FiniteSite) -> GroupoidPresheaf:
    t = terminal_groupoid()
    res = {pair: identity_map(t) for pair in site.comparable_pairs()}
    return GroupoidPresheaf(site=site, sections=tuple(t for _ in site.opens()), res=res)


def constant_presheaf(site: FiniteSite, g: FiniteGroupoid) -> GroupoidPresheaf:
    res = {pair: identity_map(g) for pair in site.comparable_pairs()}
    return GroupoidPresheaf(site=site, sections=tuple(g for _ in site.opens()), res=res)


def _point_filter_category(site: FiniteSite, t: int) -> tuple[FiniteCategory, tuple[int, ...]]:
    """The neighborhood filter of a point as a finite (filtered) category.

    Arrows run from larger opens to smaller ones, the restriction direction.
    Returns the category and the opens in position order.
    """
    opens = site.filter_opens(t)
    cat, _ = _poset_category(len(opens), lambda i, j: site.is_leq(opens[j], opens[i]))
    return cat, opens


@dataclass(frozen=True)
class Stalk:
    groupoid: FiniteGroupoid
    opens: tuple[int, ...]
    germs: dict = field(hash=False)


def stalk(x: GroupoidPresheaf, t: int) -> Stalk:
    """The stalk at a point, as the colimit over its neighborhood filter.

    The filter is principal, so the germ map from the section at the least
    open must be an isomorphism; that is checked, not assumed.  The result
    is the stalk only when every restriction is a functor, which this does
    not check (``validate_presheaf`` does).  ``colimit_groupoids`` joins
    classes along the covering restrictions of the filter and reads the
    tables off the least open, so otherwise the call returns the colimit
    along the covers, or raises ``InvariantViolation`` when the germ at the
    least open is not an isomorphism or a class gets two values.
    """
    cat, opens = _point_filter_category(x.site, t)
    gpds = [x.sections[u] for u in opens]
    maps = [x.res_map(opens[i], opens[j]) for i, j in zip(cat.src, cat.tgt)]
    co = colimit_groupoids(cat, gpds, maps)
    return Stalk(groupoid=co.groupoid, opens=opens,
                 germs=_checked_germs(x, t, opens, co.cocones))


def _checked_germs(x: GroupoidPresheaf, t: int, opens: Sequence[int],
                   cocones: Sequence[GroupoidMap]) -> dict:
    """The cocone maps of a colimit over the filter of t, keyed by open.  The
    filter is principal, so the germ at the least open must be an
    isomorphism; ``InvariantViolation`` if it is not."""
    germs = dict(zip(opens, cocones, strict=True))
    least = x.site.point_open[t]
    germ = germs[least]
    if not (len(set(germ.obj_map)) == germ.cod.n_objects == x.sections[least].n_objects
            and len(set(germ.mor_map)) == germ.cod.n_morphisms
            == x.sections[least].n_morphisms):
        raise InvariantViolation(
            f"the germ map at the least open of point {t} is not an isomorphism")
    return germs


def stalk_map(f: PresheafMap, t: int) -> GroupoidMap:
    """The induced map on stalks at a point."""
    sd = stalk(f.dom, t)
    sc = stalk(f.cod, t)
    co = GroupoidColimit(sd.groupoid, tuple(sd.germs[u] for u in sd.opens))
    return _induced_map("stalk map", co, sc.groupoid,
                        [f.at[u].then(sc.germs[u]) for u in sd.opens])


def _diagram_at_point(a: PresheafGammaAction, t: int) -> FilteredDiagram:
    """The neighborhood filter of t as a diagram of groupoids with involution."""
    cat, opens = _point_filter_category(a.presheaf.site, t)
    nodes = tuple(a.at[u] for u in opens)
    arrows = tuple(
        EquivariantMap(a.presheaf.res_map(opens[i], opens[j]), nodes[i], nodes[j])
        for i, j in zip(cat.src, cat.tgt))
    return FilteredDiagram(index=cat, nodes=nodes, arrows=arrows)


def is_sectionwise_weq(f: PresheafMap) -> bool:
    return all(is_weak_equivalence(f.at[u]) for u in f.dom.site.opens())


def is_sectionwise_fib(f: PresheafMap) -> bool:
    return all(is_fibration(f.at[u]) for u in f.dom.site.opens())


def is_local_weq(f: PresheafMap) -> bool:
    return all(is_weak_equivalence(stalk_map(f, t)) for t in f.dom.site.points())


def is_local_fib(f: PresheafMap) -> bool:
    return all(is_fibration(stalk_map(f, t)) for t in f.dom.site.points())


@dataclass(frozen=True)
class PresheafHfp:
    presheaf: GroupoidPresheaf
    iota: PresheafMap
    fixed_points: tuple[HomotopyFixedPoints, ...]


def presheaf_hfp(a: PresheafGammaAction) -> PresheafHfp:
    """Apply homotopy fixed points open by open, once per distinct involution
    object; restrictions are the induced maps, and the forgetful map is a
    map of presheaves."""
    x = a.presheaf
    fps = tuple(_hfp_each([a.at[u] for u in x.site.opens()]))
    sections = tuple(fp.groupoid for fp in fps)
    res = {}
    for (u, v) in x.site.comparable_pairs():
        e = EquivariantMap(x.res[(u, v)], a.at[u], a.at[v])
        res[(u, v)] = hfp_map(e, fps[u], fps[v])
    out = GroupoidPresheaf(site=x.site, sections=sections, res=res)
    iota = PresheafMap(dom=out, cod=x, at=tuple(fp.iota() for fp in fps))
    return PresheafHfp(presheaf=out, iota=iota, fixed_points=fps)


def stalk_commutation_check(a: PresheafGammaAction, t: int,
                            open_fps: Optional[Sequence[HomotopyFixedPoints]] = None
                            ) -> ColimitComparison:
    """Compare the stalk of the fixed point presheaf with the fixed points of
    the stalk, over the neighborhood filter of the point.  The comparison's
    ``colimit`` is the stalk of the carriers, checked as ``stalk`` checks it.
    ``open_fps[u]``, if given, is ``hfp`` of the involution at open u, as
    ``presheaf_hfp`` computes it, so that a caller deciding every point
    computes each open's fixed points once."""
    opens = a.presheaf.site.filter_opens(t)
    c = hfp_colimit_comparison(
        _diagram_at_point(a, t),
        node_fps=None if open_fps is None else [open_fps[u] for u in opens])
    _checked_germs(a.presheaf, t, opens, [e.map for e in c.colimit.cocones])
    return c
