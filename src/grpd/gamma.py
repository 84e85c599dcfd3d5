"""Involutions on finite groupoids and their homotopy fixed points.

An involution is a strict action of the two-element group: object and
morphism permutations, each squaring to the identity and commuting with all
structure maps.

Composition here is diagrammatic, so the classical right-to-left fixed-point
condition "phi1 . alpha = bar(alpha) . phi" reads
``compose(alpha, phi1) == compose(phi, bar(alpha))`` throughout this
module.  That is the only place the two conventions need translating.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

from .core import (
    FiniteGroupoid,
    GroupoidMap,
    InvariantViolation,
    _label_rules,
    _stars,
    discrete_groupoid,
    disjoint_union,
    is_weak_equivalence,
    product,
    relabel,
    union_offsets,
    validate_functor,
    validate_groupoid,
)
from .util import _generators

__all__ = [
    "GammaAction",
    "HfpObject",
    "HomotopyFixedPoints",
    "EquivariantMap",
    "NotEquivariantError",
    "SwapComparison",
    "validate_gamma_action",
    "trivial_action",
    "set_as_groupoid",
    "hfp",
    "equivariance_witness",
    "hfp_map",
    "swap_action",
    "swap_comparison",
    "gamma_union",
    "gamma_product",
    "gamma_relabel",
]


class NotEquivariantError(ValueError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class GammaAction:
    """An involution of a finite groupoid: bar on objects and on morphisms."""

    carrier: FiniteGroupoid
    bar_obj: tuple[int, ...]
    bar_mor: tuple[int, ...]


def validate_gamma_action(a: GammaAction) -> list[str]:
    """The carrier's groupoid axioms (lines prefixed ``carrier ``; a bad carrier
    ends the report), then bar: permutations squaring to the identity that
    form a functor from the carrier to itself.  Empty means valid."""
    report = [f"carrier {line}" for line in validate_groupoid(a.carrier)]
    return report or _involution_report(a)


def _involution_report(a: GammaAction) -> list[str]:
    """The checks of ``validate_gamma_action`` after the carrier's, for a
    carrier already known to be a groupoid."""
    g = a.carrier
    report = []
    if len(a.bar_obj) != g.n_objects or len(a.bar_mor) != g.n_morphisms:
        return ["shape: bar tables do not match the carrier"]
    if sorted(a.bar_obj) != list(g.objects()) or sorted(a.bar_mor) != list(g.morphisms()):
        return ["shape: bar tables are not permutations"]
    for x in g.objects():
        if a.bar_obj[a.bar_obj[x]] != x:
            report.append(f"involution: object {x}")
    for m in g.morphisms():
        if a.bar_mor[a.bar_mor[m]] != m:
            report.append(f"involution: morphism {m}")
    report.extend(validate_functor(GroupoidMap(g, g, a.bar_obj, a.bar_mor)))
    return report


def trivial_action(g: FiniteGroupoid) -> GammaAction:
    return GammaAction(g, tuple(g.objects()), tuple(g.morphisms()))


def set_as_groupoid(involution: Sequence[int], labels: Optional[Sequence[str]] = None) -> GammaAction:
    """A finite set with involution, viewed as a discrete groupoid with action."""
    bar = tuple(involution)
    g = discrete_groupoid(len(bar), labels=labels)
    return GammaAction(g, bar, bar)


@dataclass(frozen=True)
class HfpObject:
    """A fixed-point datum: an object together with phi: base -> bar(base)."""

    base: int
    phi: int


class HomotopyFixedPoints:
    """The homotopy fixed point groupoid of an involution.

    Objects are pairs (x, phi) with phi: x -> bar(x) and bar(phi) = inv(phi),
    ordered lexicographically by (x, phi).  There is one morphism
    (x, phi) -> (x1, phi1) for each alpha: x -> x1 of the carrier with
    compose(alpha, phi1) == compose(phi, bar(alpha)); ``underlying[m]`` records
    that alpha.
    """

    def __init__(self, action: GammaAction, groupoid: FiniteGroupoid,
                 objects: tuple[HfpObject, ...], underlying: tuple[int, ...],
                 obj_index, lifts):
        self.action = action
        self.groupoid = groupoid
        self.objects = objects
        self.underlying = underlying
        self._obj_index = obj_index
        self._lifts = lifts  # lifts[i][alpha]: the morphism over alpha out of i

    def object_id(self, base: int, phi: int) -> int:
        return self._obj_index[(base, phi)]

    def morphism_id(self, src_obj: int, alpha: int) -> int:
        return self._lifts[src_obj][alpha]

    def iota(self) -> GroupoidMap:
        """The forgetful map to the carrier: (x, phi) -> x, alpha -> alpha."""
        return GroupoidMap(
            dom=self.groupoid,
            cod=self.action.carrier,
            obj_map=tuple(o.base for o in self.objects),
            mor_map=self.underlying,
        )

    def __repr__(self) -> str:
        return (f"HomotopyFixedPoints(objects={len(self.objects)}, "
                f"morphisms={len(self.underlying)})")


def hfp(a: GammaAction) -> HomotopyFixedPoints:
    """Compute the homotopy fixed point groupoid of an involution.

    The arrows are found from two carrier rows per fixed point.  For each
    (y, phi1), inv(phi1) then every arrow from y to a base: in a groupoid
    the inverses of these composites are alpha then phi1 for every alpha
    from a base into y, so each pair (alpha, alpha then phi1) is keyed to the
    fixed point it lands on.  For each (x, phi), phi then bar(alpha) for
    every alpha from x to a base; alpha lifts to (y, phi1) exactly when
    (alpha, phi then bar(alpha)) is keyed to it.  On a carrier that is a
    groupoid, with any bar, these are exactly the arrows of the fixed point
    groupoid.  On a carrier that is not, the first rows read other pairs
    than alpha then phi1; inv(phi1) must still return to y before its row is
    read, and a key that two fixed points reach raises ``InvariantViolation``
    when an arrow looks it up.  Composition is a row rule induced from the
    carrier's: the arrow out of (x, phi) over alpha, then the arrows over a
    row of betas, are the arrows out of (x, phi) over the carrier's row of
    alpha then the betas.

    Closure under that composite is checked per component with root r
    (``core._stars``), one carrier row per checked arrow: each star arrow
    r -> x for x != r, whose inverse must return to r, and a generating set
    of Aut(r) picked by ``util._generators`` (none when Aut(r) is the
    identity alone).  An arrow passes when its row lifts, each composite
    landing where the arrow it was composed with lands.  Then r must have
    |Aut(r)| arrows out per fixed point of its component, and every fixed
    point of the component as many as r.  Proof, on a carrier that is a
    groupoid: the passing arrows are closed under composition.  The identity
    of r lands on r, since the row of star[x] composes it from star[x] and
    its inverse (or r is alone), and its row is the arrows out of r
    themselves, so it passes; every other automorphism of r is a composite
    of generators.  For each x, a then star[x] for a in Aut(r) are |Aut(r)|
    passing arrows r -> x that differ in the carrier, and the count of
    arrows out of r leaves no other, so every arrow out of r passes.  The
    row of star[x] takes the arrows out of x one to one into the arrows out
    of r, and onto them, as there are as many; so inv(star[x]) then an arrow
    out of r is the arrow out of x it came from, and inv(star[x]) passes.
    Every m: x -> y is inv(star[x]) then (star[x] then m).  So, with any
    bar, the check passes exactly when the fixed points form a groupoid, and
    otherwise ``InvariantViolation`` is raised: for a missing arrow,
    composite, identity or inverse (the carrier is not a groupoid), or for a
    composite or inverse that lands on the wrong fixed point, or a count
    that differs (the carrier is not a groupoid or bar is not a functor).
    On a carrier that is not a groupoid the scan reads other pairs than a
    scan per arrow would and the check can pass where a walk over every
    composable pair would fail, so completeness rests on
    ``validate_gamma_action``, which every compute command runs first.

    A bar or inv table of the wrong length or with an entry out of range
    also raises ``InvariantViolation``.  Bar need not be a functor, so each
    bar(alpha) is checked to leave the target of phi before its row is read.
    """
    g = a.carrier
    each, bar_mor = g.compose_each, a.bar_mor
    g_tgt, g_inv, n = g.tgt, g.inv, g.n_morphisms
    for name, table, size in (("bar_obj", a.bar_obj, g.n_objects),
                              ("bar_mor", bar_mor, n), ("inv", g_inv, n)):
        if len(table) != size:
            raise InvariantViolation(f"{name} has {len(table)} entries, expected {size}")
        if table and not 0 <= min(table) <= max(table) < size:
            raise InvariantViolation(f"{name} has an entry out of range")
    objs = tuple(HfpObject(x, phi) for x, bar_x in enumerate(a.bar_obj) for phi in g.out_of[x]
                 if g_tgt[phi] == bar_x and bar_mor[phi] == g_inv[phi])
    obj_index = {(o.base, o.phi): i for i, o in enumerate(objs)}

    fixed_over = {}  # base -> [(j, phi)] in object order
    for j, o in enumerate(objs):
        fixed_over.setdefault(o.base, []).append((j, o.phi))
    # between[x]: the arrows from x to a base, by target and then id
    between = {x: [alpha for alpha in sorted(g.out_of[x], key=g_tgt.__getitem__)
                   if g_tgt[alpha] in fixed_over] for x in fixed_over}
    src, tgt, underlying, starts = [], [], [], []
    lifts = [{} for _ in objs]
    try:
        # land[alpha * n + (alpha then phi1)] is the fixed point (y, phi1), read
        # off one row per fixed point: that composite is the inverse of
        # inv(phi1) then inv(alpha), and inv(alpha) runs over the arrows from y
        # to a base.  twice[key] is the second fixed point a key reaches, if any.
        # A key is a pair of arrows packed into one int; inv is in range, and a
        # composite out of range gets key -1, which no fixed point reaches.
        land, twice = {}, {}
        for y, fixed in fixed_over.items():
            bs = between[y]
            inv_bs = [g_inv[b] * n for b in bs]
            for j, phi1 in fixed:
                back = g_inv[phi1]
                if g_tgt[back] != y:
                    raise InvariantViolation(f"inv({phi1}) does not return to {y}: "
                                             "the carrier is not a groupoid")
                for p, c in zip(inv_bs, each(back, bs)):
                    key = p + g_inv[c]
                    if land.setdefault(key, j) != j:
                        twice.setdefault(key, j)
        for i, o in enumerate(objs):
            starts.append(len(src))
            alphas = between[o.base]
            bars = [bar_mor[alpha] for alpha in alphas]
            y = g_tgt[o.phi]
            for beta in bars:
                if g.src[beta] != y:
                    raise KeyError((o.phi, beta))
            composites = each(o.phi, bars)
            keys = [alpha * n + c for alpha, c in zip(alphas, composites)]
            if composites and not 0 <= min(composites) <= max(composites) < n:
                keys = [k if 0 <= c < n else -1 for k, c in zip(keys, composites)]
            clash = [(twice[key], alpha) for alpha, key in zip(alphas, keys) if key in twice]
            if clash:  # as an arrow's second fixed point turns up in (j, alpha) order
                raise InvariantViolation(f"arrow {min(clash)[1]} out of fixed point {i} "
                                         "reaches two fixed points: the carrier "
                                         "is not a groupoid")
            # arrows are numbered by source, target, underlying
            for j, alpha in sorted([(land[key], alpha) for alpha, key in zip(alphas, keys)
                                    if key in land]):
                lifts[i][alpha] = len(src)
                src.append(i)
                tgt.append(j)
                underlying.append(alpha)
        starts.append(len(src))
        src, tgt, underlying = tuple(src), tuple(tgt), tuple(underlying)
        id_of = [lifts[i][g.id_of[o.base]] for i, o in enumerate(objs)]
        inv = tuple([lifts[j][g_inv[alpha]] for j, alpha in zip(tgt, underlying)])
        del land, twice, between  # the scan's tables, released before the closure check

        def compose_fp(m1, ms):
            return list(map(lifts[src[m1]].__getitem__,
                            each(underlying[m1], [underlying[m2] for m2 in ms])))

        carrier_objs, carrier_mors = _label_rules(g)

        def obj_labels():
            xs, ms = carrier_objs(), carrier_mors()
            return [f"({xs[o.base]},{ms[o.phi]})" for o in objs]

        def mor_labels():
            return list(map(carrier_mors().__getitem__, underlying))

        groupoid = FiniteGroupoid(
            len(objs), src, tgt, id_of, inv, compose_fp,
            obj_labels=obj_labels, mor_labels=mor_labels,
            out_of=map(range, starts, starts[1:]),
        )

        def aut_generators(r, a0, h):
            # Aut(r) is the block a0, ..., a0 + h - 1 that starts out_of[r]:
            # arrows are numbered by target, and r is the least object of its
            # component.  The picker sees positions in that block
            lift, alphas = lifts[r], underlying[a0:a0 + h]

            def each_aut(p, qs):
                ps = [lift[c] - a0 for c in each(alphas[p], [alphas[q] for q in qs])]
                if ps and not 0 <= min(ps) <= max(ps) < h:
                    raise InvariantViolation(f"a composite with fixed-point arrow {a0 + p} "
                                             "lands on the wrong fixed point: the carrier is "
                                             "not a groupoid or bar is not a functor")
                return ps

            unit = id_of[r] - a0
            units = (unit,) if 0 <= unit < h else ()
            if h <= 2:  # the automorphism that is not the identity, if any, generates
                return [a0 + p for p in range(h) if p not in units]
            return [a0 + p for p in _generators((0,) * h, (0,) * h, (range(h),), each_aut, units)]

        for r, star in _stars(groupoid):
            if any(tgt[inv[k]] != r for x, k in star.items() if x != r):
                raise InvariantViolation(f"an inverse of a star arrow does not return to {r}: "
                                         "the carrier is not a groupoid or bar is not a functor")
            a0, a1 = starts[r], starts[r + 1]
            h = tgt[a0:a1].count(r)
            for k in chain(aut_generators(r, a0, h),
                           sorted(k for x, k in star.items() if x != r)):
                into, out = lifts[src[k]], lifts[tgt[k]]
                row = each(underlying[k], list(out))
                if [tgt[into[c]] for c in row] != [tgt[m] for m in out.values()]:
                    raise InvariantViolation(f"a composite with fixed-point arrow {k} lands "
                                             "on the wrong fixed point: the carrier is not a "
                                             "groupoid or bar is not a functor")
            if a1 - a0 != h * len(star):
                raise InvariantViolation(f"fixed point {r} has {a1 - a0} arrows out, {h} to "
                                         f"itself and {len(star)} fixed points in its component: "
                                         "the carrier is not a groupoid or bar is not a functor")
            x = next((x for x in star if len(lifts[x]) != a1 - a0), None)
            if x is not None:
                raise InvariantViolation(f"fixed point {x} has {len(lifts[x])} arrows out and "
                                         f"{r} has {a1 - a0}: the carrier is not a groupoid "
                                         "or bar is not a functor")
    except KeyError as exc:
        raise InvariantViolation(f"no fixed-point arrow or composite over {exc.args[0]}: "
                                 "the carrier is not a groupoid") from exc
    return HomotopyFixedPoints(a, groupoid, objs, underlying, obj_index, lifts)


def _hfp_each(actions: Sequence[GammaAction]) -> list[HomotopyFixedPoints]:
    """``hfp`` of each action, computed once per action object: a site or a
    diagram may repeat one action.  Nothing is kept after the call."""
    fps = {}
    for a in actions:
        if id(a) not in fps:
            fps[id(a)] = hfp(a)
    return [fps[id(a)] for a in actions]


@dataclass(frozen=True)
class EquivariantMap:
    """A functor together with the involutions it is supposed to commute with."""

    map: GroupoidMap
    dom_action: GammaAction
    cod_action: GammaAction


def equivariance_witness(e: EquivariantMap):
    """None if equivariant, else ('object'|'morphism', id) where it fails."""
    f = e.map
    for x in f.dom.objects():
        if f.obj_map[e.dom_action.bar_obj[x]] != e.cod_action.bar_obj[f.obj_map[x]]:
            return ("object", x)
    for m in f.dom.morphisms():
        if f.mor_map[e.dom_action.bar_mor[m]] != e.cod_action.bar_mor[f.mor_map[m]]:
            return ("morphism", m)
    return None


def hfp_map(e: EquivariantMap,
            dom_fp: Optional[HomotopyFixedPoints] = None,
            cod_fp: Optional[HomotopyFixedPoints] = None) -> GroupoidMap:
    """The induced map on homotopy fixed points.

    Precomputed fixed points may be passed to avoid recomputation; they must
    come from ``hfp`` of the corresponding actions.  An endomorphism's fixed
    points are computed once.
    """
    w = equivariance_witness(e)
    if w is not None:
        raise NotEquivariantError(f"map fails equivariance at {w[0]} {w[1]}", witness=w)
    if dom_fp is None:
        dom_fp = hfp(e.dom_action)
    if cod_fp is None:
        cod_fp = dom_fp if e.cod_action is e.dom_action else hfp(e.cod_action)
    f = e.map
    obj_map = tuple(
        cod_fp.object_id(f.obj_map[o.base], f.mor_map[o.phi]) for o in dom_fp.objects
    )
    mor_map = tuple(
        cod_fp.morphism_id(obj_map[dom_fp.groupoid.src[m]], f.mor_map[dom_fp.underlying[m]])
        for m in dom_fp.groupoid.morphisms()
    )
    return GroupoidMap(dom_fp.groupoid, cod_fp.groupoid, obj_map, mor_map)


def swap_action(x: FiniteGroupoid) -> GammaAction:
    """The coordinate swap involution on the product of x with itself."""
    p = product(x, x)
    n, m = x.n_objects, x.n_morphisms
    bar_obj = tuple(b * n + a for a in range(n) for b in range(n))
    bar_mor = tuple(k2 * m + k1 for k1 in range(m) for k2 in range(m))
    return GammaAction(p, bar_obj, bar_mor)


@dataclass(frozen=True)
class SwapComparison:
    fixed_points: HomotopyFixedPoints
    map: GroupoidMap
    is_weak_equivalence: bool


def swap_comparison(x: FiniteGroupoid) -> SwapComparison:
    """The canonical map from x to the fixed points of the swap involution.

    An object a goes to ((a, a), (id_a, id_a)); a morphism goes to the arrow
    with underlying (alpha, alpha).
    """
    fp = hfp(swap_action(x))
    n, m = x.n_objects, x.n_morphisms
    obj_map = tuple(
        fp.object_id(a * n + a, x.id_of[a] * m + x.id_of[a]) for a in x.objects()
    )
    mor_map = tuple(
        fp.morphism_id(obj_map[x.src[k]], k * m + k) for k in x.morphisms()
    )
    f = GroupoidMap(x, fp.groupoid, obj_map, mor_map)
    return SwapComparison(fixed_points=fp, map=f,
                          is_weak_equivalence=is_weak_equivalence(f))


def gamma_union(parts: Sequence[GammaAction]) -> GammaAction:
    """Disjoint union of involutions, bar acting within each summand."""
    gs = [a.carrier for a in parts]
    obj_off, mor_off = union_offsets(gs)
    bar_obj, bar_mor = [], []
    for i, a in enumerate(parts):
        bar_obj.extend(obj_off[i] + x for x in a.bar_obj)
        bar_mor.extend(mor_off[i] + k for k in a.bar_mor)
    return GammaAction(disjoint_union(gs), tuple(bar_obj), tuple(bar_mor))


def gamma_product(a: GammaAction, b: GammaAction) -> GammaAction:
    """Product of involutions, bar acting coordinatewise."""
    p = product(a.carrier, b.carrier)
    no, nm = b.carrier.n_objects, b.carrier.n_morphisms
    bar_obj = tuple(a.bar_obj[x] * no + b.bar_obj[y]
                    for x in range(a.carrier.n_objects) for y in range(no))
    bar_mor = tuple(a.bar_mor[k] * nm + b.bar_mor[l]
                    for k in range(a.carrier.n_morphisms) for l in range(nm))
    return GammaAction(p, bar_obj, bar_mor)


def gamma_relabel(a: GammaAction, obj_perm: Sequence[int], mor_perm: Sequence[int]) -> GammaAction:
    """Transport an involution along a renaming of the carrier."""
    g = relabel(a.carrier, obj_perm, mor_perm)
    bar_obj = [0] * len(obj_perm)
    bar_mor = [0] * len(mor_perm)
    for x, nx in enumerate(obj_perm):
        bar_obj[nx] = obj_perm[a.bar_obj[x]]
    for m, nm in enumerate(mor_perm):
        bar_mor[nm] = mor_perm[a.bar_mor[m]]
    return GammaAction(g, tuple(bar_obj), tuple(bar_mor))
