"""Finite categories and groupoids with tabulated source, target, identity
and inverse maps.

Objects and morphisms are dense integer ids.  Composition is diagrammatic:
``compose(m1, m2)`` is "m1 then m2" and is defined exactly when
``tgt[m1] == src[m2]``.  It is given either as a table (documents, index
categories and hand-written fixtures) or as a row rule computed from the
structure (the action groupoids, products and disjoint unions built here,
and the fixed points of ``grpd.gamma``), which composes one arrow with a
whole row of arrows out of its target; ``comp``, the full table, is built
from a rule on first access.  A builder that knows the arrows out of each
object supplies them as rows (an action groupoid's and a fixed point
groupoid's are ranges); every other structure indexes ``src`` on first
access.  Everything is finite and explicit; validation returns reports
rather than trusting constructors.

A groupoid is a category whose arrows are invertible: ``FiniteGroupoid``
extends ``FiniteCategory`` by its inverse table and labels, and
``validate_groupoid`` and ``validate_category`` share one checker,
``_category_report``.  Labels, like composition, come as a table or as a
rule: the builders here pass rules, run once on the first read of
``obj_labels`` or ``mor_labels``, so a groupoid whose labels nobody reads
never builds its strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Optional, Sequence

from .groups import FiniteGroup, GroupAction, left_multiplication_action, trivial_point_action
from .util import _associativity_report

__all__ = [
    "FiniteCategory",
    "FiniteGroupoid",
    "GroupoidMap",
    "InvariantViolation",
    "validate_category",
    "validate_groupoid",
    "validate_functor",
    "identity_map",
    "terminal_groupoid",
    "discrete_groupoid",
    "build_action_groupoid",
    "action_mor",
    "action_mor_parts",
    "build_eg",
    "build_bg",
    "components",
    "is_fibration",
    "is_weak_equivalence",
    "groupoid_cardinality",
    "disjoint_union",
    "disjoint_union_map",
    "union_offsets",
    "product",
    "relabel",
    "automorphism_group",
]


class InvariantViolation(RuntimeError):
    """An internal invariant failed; this indicates a bug, not bad input."""


class FiniteCategory:
    """A finite category: objects 0..n_objects-1, morphisms 0..n_morphisms-1.

    ``id_of[x]`` is the identity at x.  The ``comp`` argument is either a
    table, a dict from composable pairs to composites, or a row rule, a
    callable ``rule(m1, ms)`` that returns the list of composites of m1 with
    each arrow of ``ms``.  ``compose_each`` holds the rule, or a table lookup
    that raises ``KeyError`` on a missing pair.  A row rule may skip the
    endpoint check, so ``ms`` must be arrows out of ``tgt[m1]``: a row of
    ``out_of`` or ``hom``, or arrows checked to leave it.  ``compose(m1, m2)``
    checks the endpoints, raises ``KeyError`` on a pair that is not
    composable and reads a one-element row.  ``compositions()`` walks every
    composable pair a row at a time without building anything; the ``comp``
    property is the full table, built from that walk on first access and
    read by ``compose_each`` from then on, since a lookup is faster than a
    nested rule.  ``out_of``, the morphisms out of each object, is the
    ``out_of`` argument if a builder supplies it, one row of increasing ids
    per object, else indexed once per instance; ``hom`` filters it on target.
    """

    __slots__ = ("n_objects", "src", "tgt", "id_of", "compose_each", "_comp", "_out_of")

    def __init__(self, n_objects, src, tgt, id_of, comp, out_of=None):
        self.n_objects = int(n_objects)
        self.src = tuple(src)
        self.tgt = tuple(tgt)
        self.id_of = tuple(id_of)
        if callable(comp):
            self._comp = None
            self.compose_each = comp
        else:
            self._use_table(dict(comp))
        self._out_of = None if out_of is None else tuple(out_of)

    def _use_table(self, table: dict) -> None:
        self._comp = table
        self.compose_each = lambda m1, ms: [table[m1, m2] for m2 in ms]

    def compose(self, m1: int, m2: int) -> int:
        if self.tgt[m1] != self.src[m2]:
            raise KeyError((m1, m2))
        return self.compose_each(m1, (m2,))[0]

    @property
    def comp(self) -> dict:
        if self._comp is None:
            self._use_table(dict(self.compositions()))
        return self._comp

    def compositions(self):
        """Every composable pair with its composite, as ``((m1, m2), m3)``: the
        table's entries if there is one, else the rule walked a row at a time
        along the arrows out of each object, storing nothing."""
        if self._comp is not None:
            return iter(self._comp.items())
        out_of = self.out_of
        each = self.compose_each
        return chain.from_iterable(
            zip(zip(repeat(m1), out_of[y]), each(m1, out_of[y]))
            for m1, y in enumerate(self.tgt))

    @property
    def n_morphisms(self) -> int:
        return len(self.src)

    def objects(self) -> range:
        return range(self.n_objects)

    def morphisms(self) -> range:
        return range(self.n_morphisms)

    @property
    def out_of(self) -> tuple[Sequence[int], ...]:
        """The morphisms out of each object, in increasing order."""
        if self._out_of is None:
            out_of = [[] for _ in self.objects()]
            for k, x in enumerate(self.src):
                out_of[x].append(k)
            self._out_of = tuple(map(tuple, out_of))
        return self._out_of

    def hom(self, x: int, y: int) -> tuple[int, ...]:
        """The arrows x -> y in increasing order, read off ``out_of[x]``;
        none if x is not an object."""
        if not 0 <= x < self.n_objects:
            return ()
        tgt = self.tgt
        return tuple(k for k in self.out_of[x] if tgt[k] == y)

    def _tables(self) -> tuple:
        return self.n_objects, self.src, self.tgt, self.id_of

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return other is self or (self._tables() == other._tables()
                                 and self.comp == other.comp)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(objects={self.n_objects}, "
                f"morphisms={self.n_morphisms})")


class FiniteGroupoid(FiniteCategory):
    """A finite category whose morphisms are invertible: ``inv[m]`` is the
    inverse of m.  Labels are optional and never take part in equality.

    ``obj_labels`` and ``mor_labels`` are each given, like ``comp``, as a
    table or as a rule, a callable of no arguments that returns the table;
    a rule runs once, on the first read, and its table replaces it.  A rule
    should keep alive only the label sources of its inputs (``_label_rules``),
    never a groupoid that would otherwise be freed.
    """

    __slots__ = ("inv", "_obj_labels", "_mor_labels")

    def __init__(self, n_objects, src, tgt, id_of, inv, comp,
                 obj_labels=None, mor_labels=None, out_of=None):
        super().__init__(n_objects, src, tgt, id_of, comp, out_of)
        self.inv = tuple(inv)
        self._obj_labels = _label_source(obj_labels)
        self._mor_labels = _label_source(mor_labels)

    @property
    def obj_labels(self) -> Optional[tuple[str, ...]]:
        if callable(self._obj_labels):
            self._obj_labels = tuple(self._obj_labels())
        return self._obj_labels

    @property
    def mor_labels(self) -> Optional[tuple[str, ...]]:
        if callable(self._mor_labels):
            self._mor_labels = tuple(self._mor_labels())
        return self._mor_labels

    def aut(self, x: int) -> tuple[int, ...]:
        return self.hom(x, x)

    def obj_label(self, x: int) -> str:
        if self.obj_labels is not None:
            return self.obj_labels[x]
        return f"x{x}"

    def mor_label(self, m: int) -> str:
        if self.mor_labels is not None:
            return self.mor_labels[m]
        return f"m{m}"

    def _tables(self) -> tuple:
        return super()._tables() + (self.inv,)


def _label_source(labels):
    """A label argument as stored: None, a rule, or a table as a tuple."""
    return labels if labels is None or callable(labels) else tuple(labels)


def _label_rules(g: FiniteGroupoid):
    """Rules for the object and the morphism labels of g, one per id as
    ``obj_label`` and ``mor_label`` read them: numbered where g has no
    labels, and a short table raises ``IndexError``.  A rule of g is used
    as it is, since the builders' rules give one label per id.  They keep
    g's label sources alive, not g, and store no table on g."""
    def rule(source, prefix, n):
        if source is None:
            return lambda: [f"{prefix}{i}" for i in range(n)]
        return source if callable(source) else lambda: [source[i] for i in range(n)]
    return (rule(g._obj_labels, "x", g.n_objects),
            rule(g._mor_labels, "m", g.n_morphisms))


def _category_report(c: FiniteCategory, inv=None) -> list[str]:
    """Category axioms, one violation per line, in order: table shapes, the
    range of every composition entry, identities, non-composable and missing
    composites (any of these ends the report), unit laws, the inverse laws of
    an in-range ``inv`` table if one is given, associativity.  Pairs are
    walked through the arrows out of each object; associativity is decided
    from a generating set on rows of ``compose_each``, a table lookup once
    ``comp`` is read, walking every triple only if a generator fails."""
    n, m = c.n_objects, c.n_morphisms
    src, tgt, id_of = c.src, c.tgt, c.id_of
    if len(tgt) != m or len(id_of) != n:
        return ["shape: src/tgt/id tables have inconsistent lengths"]
    if any(not 0 <= x < n for x in src) or any(not 0 <= x < n for x in tgt):
        return ["shape: src/tgt entry out of range"]
    if any(not 0 <= k < m for k in id_of):
        return ["shape: id entry out of range"]
    comp = c.comp
    for (m1, m2), m3 in comp.items():
        if not (0 <= m1 < m and 0 <= m2 < m and 0 <= m3 < m):
            return [f"composition-domain: entry ({m1},{m2}) out of range"]
    report = []
    for x in range(n):
        if src[id_of[x]] != x or tgt[id_of[x]] != x:
            report.append(f"identity: id_of[{x}] is not an endomorphism of {x}")
    for (m1, m2), m3 in comp.items():
        if tgt[m1] != src[m2]:
            report.append(f"composition-domain: ({m1},{m2}) is not composable")
        elif src[m3] != src[m1] or tgt[m3] != tgt[m2]:
            report.append(f"composition: comp({m1},{m2}) has wrong endpoints")
    out_of = c.out_of
    for m1 in range(m):
        for m2 in out_of[tgt[m1]]:
            if (m1, m2) not in comp:
                report.append(f"composition-domain: missing entry for ({m1},{m2})")
    if report:
        return report
    for k in range(m):
        if comp[(id_of[src[k]], k)] != k:
            report.append(f"unit: id . {k} != {k}")
        if comp[(k, id_of[tgt[k]])] != k:
            report.append(f"unit: {k} . id != {k}")
    units = () if report else id_of
    if inv is not None:
        for k in range(m):
            if src[inv[k]] != tgt[k] or tgt[inv[k]] != src[k]:
                report.append(f"inverse: inv({k}) has wrong endpoints")
                continue
            if comp[(k, inv[k])] != id_of[src[k]]:
                report.append(f"inverse: {k} then inv({k}) is not the identity")
            if comp[(inv[k], k)] != id_of[tgt[k]]:
                report.append(f"inverse: inv({k}) then {k} is not the identity")
    return report + _associativity_report(src, tgt, out_of, c.compose_each, units)


def _label_report(g: FiniteGroupoid) -> list[str]:
    """Label tables whose length does not match the objects or morphisms."""
    return [f"labels: {name} has {len(labels)} entries, expected {size}"
            for name, labels, size in (("obj_labels", g.obj_labels, g.n_objects),
                                       ("mor_labels", g.mor_labels, g.n_morphisms))
            if labels is not None and len(labels) != size]


def validate_groupoid(g: FiniteGroupoid) -> list[str]:
    """All groupoid axioms, reported one violation per line; empty means valid.
    Label tables come first, then the ``inv`` table, then the shared checker."""
    report = _label_report(g)
    m = g.n_morphisms
    if len(g.inv) != m:
        return report + ["shape: inv table has the wrong length"]
    if any(not 0 <= k < m for k in g.inv):
        return report + ["shape: inv entry out of range"]
    return report + _category_report(g, g.inv)


def validate_category(c: FiniteCategory) -> list[str]:
    """The category axioms, one violation per line; empty means valid."""
    return _category_report(c)


@dataclass(frozen=True)
class GroupoidMap:
    """A functor between finite groupoids, as object and morphism tables."""

    dom: FiniteGroupoid
    cod: FiniteGroupoid
    obj_map: tuple[int, ...]
    mor_map: tuple[int, ...]

    def then(self, other: "GroupoidMap") -> "GroupoidMap":
        if self.cod != other.dom:
            raise ValueError("maps are not composable")
        return GroupoidMap(
            dom=self.dom,
            cod=other.cod,
            obj_map=tuple(other.obj_map[x] for x in self.obj_map),
            mor_map=tuple(other.mor_map[m] for m in self.mor_map),
        )


def identity_map(g: FiniteGroupoid) -> GroupoidMap:
    return GroupoidMap(g, g, tuple(g.objects()), tuple(g.morphisms()))


def _map_shape_report(f: GroupoidMap) -> list[str]:
    """The first of: map tables whose lengths do not match the domain, an
    object image out of range, a morphism image out of range.  A map that
    passes can be composed with ``then``."""
    dom, cod = f.dom, f.cod
    if len(f.obj_map) != dom.n_objects or len(f.mor_map) != dom.n_morphisms:
        return ["shape: map tables do not match the domain"]
    if any(not 0 <= y < cod.n_objects for y in f.obj_map):
        return ["shape: object image out of range"]
    if any(not 0 <= k < cod.n_morphisms for k in f.mor_map):
        return ["shape: morphism image out of range"]
    return []


def validate_functor(f: GroupoidMap) -> list[str]:
    """The functor laws, one violation per line; empty means a functor.  A
    composite the codomain lacks is reported as a composition violation."""
    report = _map_shape_report(f)
    if report:
        return report
    dom, cod = f.dom, f.cod
    for m in dom.morphisms():
        if cod.src[f.mor_map[m]] != f.obj_map[dom.src[m]]:
            report.append(f"src: morphism {m}")
        if cod.tgt[f.mor_map[m]] != f.obj_map[dom.tgt[m]]:
            report.append(f"tgt: morphism {m}")
    for x in dom.objects():
        if f.mor_map[dom.id_of[x]] != cod.id_of[f.obj_map[x]]:
            report.append(f"identity: object {x}")
    if report:
        return report
    cod_comp = cod.comp
    for (m1, m2), m3 in dom.comp.items():
        if cod_comp.get((f.mor_map[m1], f.mor_map[m2])) != f.mor_map[m3]:
            report.append(f"composition: ({m1},{m2})")
    for m in dom.morphisms():
        if f.mor_map[dom.inv[m]] != cod.inv[f.mor_map[m]]:
            report.append(f"inverse: morphism {m}")
    return report


def terminal_groupoid() -> FiniteGroupoid:
    return FiniteGroupoid(1, (0,), (0,), (0,), (0,), {(0, 0): 0},
                          obj_labels=("*",), mor_labels=("id",))


def discrete_groupoid(n: int, labels: Optional[Sequence[str]] = None) -> FiniteGroupoid:
    rng = tuple(range(n))
    return FiniteGroupoid(
        n, rng, rng, rng, rng, {(i, i): i for i in rng},
        obj_labels=labels,
        mor_labels=None if labels is None else tuple(f"id_{l}" for l in labels),
    )


def action_mor(a: GroupAction, g: int, x: int) -> int:
    """Morphism id of (g, x) in the action groupoid of ``a``."""
    return g * a.n_points + x


def action_mor_parts(a: GroupAction, m: int) -> tuple[int, int]:
    return divmod(m, a.n_points)


def build_action_groupoid(a: GroupAction) -> FiniteGroupoid:
    """The action groupoid: objects are points, morphisms are pairs (g, x).

    The morphism (g, x) runs from x to g.x and is encoded as g * n_points + x,
    so the arrows out of x are a range with step n_points.  Composition is
    the rule (g, x) then (h, g.x) is (hg, x): a row of composites with
    (g, x) reads column g of the group table.  Labels are a rule, "g.p" for
    an arrow, from the group's and the action's label tables.
    """
    grp = a.group
    nx = a.n_points
    src = tuple(range(nx)) * grp.order
    tgt = tuple(chain.from_iterable(a.act_table))
    id_of = tuple(action_mor(a, grp.identity, x) for x in range(nx))
    inv = tuple(g_inv * nx + y for g_inv, row in zip(grp.inv_table, a.act_table) for y in row)
    column = tuple(zip(*grp.table))  # column[g][h] is hg

    def compose_each(m1, ms):
        g, x = divmod(m1, nx)
        col = column[g]
        return [col[m2 // nx] * nx + x for m2 in ms]

    def obj_labels():
        return [a.point_label(x) for x in range(nx)]

    def mor_labels():
        points = obj_labels()
        return [f"{g}.{p}" for g in map(grp.label, grp.elements()) for p in points]

    return FiniteGroupoid(
        nx, src, tgt, id_of, inv, compose_each,
        obj_labels=obj_labels,
        mor_labels=mor_labels,
        out_of=[range(x, len(src), nx) for x in range(nx)],
    )


def build_eg(g: FiniteGroup) -> FiniteGroupoid:
    """The action groupoid of g on itself by left multiplication."""
    return build_action_groupoid(left_multiplication_action(g))


def build_bg(g: FiniteGroup) -> FiniteGroupoid:
    """One object, one morphism per group element; morphism ids are element ids."""
    return build_action_groupoid(trivial_point_action(g))


def _stars(g: FiniteGroupoid) -> list[tuple[int, dict[int, int]]]:
    """One star per component, in order of least object: the root r and, for
    each object x of its component, ``star[x]``, the first arrow r -> x in
    ``out_of[r]``.  Proof that these arrows and the arrows out of r generate
    the component: m: x -> y is inv(star[x]) then (star[x] then m)."""
    stars, covered = [], bytearray(g.n_objects)
    for r in g.objects():
        if not covered[r]:
            star = {g.tgt[k]: k for k in reversed(g.out_of[r])}  # the first arrow wins
            for x in star:
                covered[x] = 1
            stars.append((r, star))
    return stars


def components(g: FiniteGroupoid) -> list[list[int]]:
    """Isomorphism classes of objects as sorted lists, ordered by least object."""
    return [sorted(star) for _, star in _stars(g)]


def _component_index(g: FiniteGroupoid) -> list[int]:
    """The number of each object's component, as in ``components``."""
    index = [0] * g.n_objects
    for c, (_, star) in enumerate(_stars(g)):
        for x in star:
            index[x] = c
    return index


def is_fibration(f: GroupoidMap) -> bool:
    """Every morphism out of an image object lifts to a morphism out of the source."""
    mor_map, cod_out_of = f.mor_map, f.cod.out_of
    for x, arrows in enumerate(f.dom.out_of):
        if not {mor_map[b] for b in arrows}.issuperset(cod_out_of[f.obj_map[x]]):
            return False
    return True


def is_weak_equivalence(f: GroupoidMap) -> bool:
    """Whether a functor, which ``f`` must be, is fully faithful and
    essentially surjective: a bijection on components, and a bijection
    aut(r) -> aut(f r) at the root r of each component of the domain."""
    dom, cod, obj_map, mor_map = f.dom, f.cod, f.obj_map, f.mor_map
    roots = [r for r, _ in _stars(dom)]
    comp_of = _component_index(cod)
    hit = {comp_of[obj_map[r]] for r in roots}
    if len(hit) != len(roots) or hit != set(comp_of):
        return False
    for r in roots:
        auts = dom.aut(r)
        if len({mor_map[k] for k in auts}) != len(auts) or len(auts) != len(cod.aut(obj_map[r])):
            return False
    return True


def groupoid_cardinality(g: FiniteGroupoid) -> Fraction:
    """Sum of 1/|Aut| over isomorphism classes, as an exact rational."""
    return sum((Fraction(1, len(g.aut(r))) for r, _ in _stars(g)), Fraction(0))


def union_offsets(gs: Sequence[FiniteGroupoid]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Object and morphism id offsets of each summand inside ``disjoint_union(gs)``."""
    obj_off, mor_off = [], []
    o = m = 0
    for g in gs:
        obj_off.append(o)
        mor_off.append(m)
        o += g.n_objects
        m += g.n_morphisms
    return tuple(obj_off), tuple(mor_off)


def disjoint_union(gs: Sequence[FiniteGroupoid]) -> FiniteGroupoid:
    """Summands side by side; composition is the summands' own, shifted: a
    row is the summand's row."""
    obj_off, mor_off = union_offsets(gs)
    src, tgt, id_of, inv, summand = [], [], [], [], []
    for i, g in enumerate(gs):
        oo, mo = obj_off[i], mor_off[i]
        src.extend(oo + x for x in g.src)
        tgt.extend(oo + x for x in g.tgt)
        id_of.extend(mo + k for k in g.id_of)
        inv.extend(mo + k for k in g.inv)
        summand.extend([i] * g.n_morphisms)
    rows = [g.compose_each for g in gs]
    label_rules = [_label_rules(g) for g in gs]

    def obj_labels():
        return [label for objs, _ in label_rules for label in objs()]

    def mor_labels():
        return [label for _, mors in label_rules for label in mors()]

    def compose_each(m1, ms):
        i = summand[m1]
        mo = mor_off[i]
        return [mo + k for k in rows[i](m1 - mo, [m2 - mo for m2 in ms])]

    return FiniteGroupoid(sum(g.n_objects for g in gs), src, tgt, id_of, inv, compose_each,
                          obj_labels=obj_labels, mor_labels=mor_labels)


def disjoint_union_map(fs: Sequence[GroupoidMap]) -> GroupoidMap:
    """The summand-wise map between disjoint unions of the domains and of the
    codomains."""
    dom = disjoint_union([f.dom for f in fs])
    cod = disjoint_union([f.cod for f in fs])
    cobj, cmor = union_offsets([f.cod for f in fs])
    obj_map, mor_map = [], []
    for i, f in enumerate(fs):
        obj_map.extend(cobj[i] + y for y in f.obj_map)
        mor_map.extend(cmor[i] + k for k in f.mor_map)
    return GroupoidMap(dom, cod, tuple(obj_map), tuple(mor_map))


def product(g: FiniteGroupoid, h: FiniteGroupoid) -> FiniteGroupoid:
    """Product groupoid; object (x, y) is x * h.n_objects + y and morphism
    (m, k) is m * h.n_morphisms + k.  Composition is coordinatewise: a row
    zips the two factors' rows."""
    no, nm = h.n_objects, h.n_morphisms
    src = [a * no + b for a in g.src for b in h.src]
    tgt = [a * no + b for a in g.tgt for b in h.tgt]
    id_of = [a * nm + b for a in g.id_of for b in h.id_of]
    inv = [a * nm + b for a in g.inv for b in h.inv]
    g_each, h_each = g.compose_each, h.compose_each

    def compose_each(m1, ms):
        a1, b1 = divmod(m1, nm)
        return [a * nm + b for a, b in zip(g_each(a1, [m2 // nm for m2 in ms]),
                                           h_each(b1, [m2 % nm for m2 in ms]))]

    (g_objs, g_mors), (h_objs, h_mors) = _label_rules(g), _label_rules(h)

    def obj_labels():
        hs = h_objs()
        return [f"({a},{b})" for a in g_objs() for b in hs]

    def mor_labels():
        hs = h_mors()
        return [f"({a},{b})" for a in g_mors() for b in hs]

    return FiniteGroupoid(g.n_objects * no, src, tgt, id_of, inv, compose_each,
                          obj_labels=obj_labels, mor_labels=mor_labels)


def relabel(g: FiniteGroupoid, obj_perm: Sequence[int], mor_perm: Sequence[int]) -> FiniteGroupoid:
    """The same groupoid with object x renamed obj_perm[x] and morphism m
    renamed mor_perm[m]."""
    n, m = g.n_objects, g.n_morphisms
    src = [0] * m
    tgt = [0] * m
    inv = [0] * m
    id_of = [0] * n
    obj_labels = [""] * n if g.obj_labels else None
    mor_labels = [""] * m if g.mor_labels else None
    for k in g.morphisms():
        nk = mor_perm[k]
        src[nk] = obj_perm[g.src[k]]
        tgt[nk] = obj_perm[g.tgt[k]]
        inv[nk] = mor_perm[g.inv[k]]
        if mor_labels is not None:
            mor_labels[nk] = g.mor_labels[k]
    for x in g.objects():
        id_of[obj_perm[x]] = mor_perm[g.id_of[x]]
        if obj_labels is not None:
            obj_labels[obj_perm[x]] = g.obj_labels[x]
    comp = {(mor_perm[a], mor_perm[b]): mor_perm[c] for (a, b), c in g.comp.items()}
    return FiniteGroupoid(n, src, tgt, id_of, inv, comp,
                          obj_labels=obj_labels, mor_labels=mor_labels)


def automorphism_group(g: FiniteGroupoid, x: int) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Aut(x) as a finite group, together with the list of morphism ids.

    The multiplication is arranged so that ``build_bg`` of the result maps
    into ``g`` functorially: mul(a, b) is the composite "b then a".
    """
    mors = g.aut(x)
    index = {k: i for i, k in enumerate(mors)}
    rows = [g.compose_each(k, mors) for k in mors]  # rows[b][a]: mors[b] then mors[a]
    table = tuple(tuple(index[row[a]] for row in rows) for a in range(len(mors)))
    grp = FiniteGroup(
        table=table,
        identity=index[g.id_of[x]],
        inv_table=tuple(index[g.inv[k]] for k in mors),
        name=f"Aut({g.obj_label(x)})",
        labels=tuple(g.mor_label(k) for k in mors),
    )
    return grp, mors
