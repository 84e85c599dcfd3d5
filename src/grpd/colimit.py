"""Colimits of diagrams of groupoids over finite index categories.

The colimit is computed set-theoretically on objects and on morphisms: the
disjoint union over the nodes, quotiented by the equivalence generated by
transport along the diagram arrows.  For a filtered index this is the actual
colimit groupoid and the construction below produces complete, well-defined
tables; a non-filtered index may make composition on classes clash, which is
reported as ``NotFilteredError``.

Every table indexed by classes is induced from tables on the nodes by one
routine, ``_descend``: the colimit's source, target, inverse and identity
tables in ``colimit_groupoids``, and every map out of a colimit in
``_induced_map``.  That map is given on each node and read through the
cocones; its three uses are the induced involution (bar, then the cocone),
the comparison map of ``hfp_colimit_comparison`` (``hfp_map`` of each
cocone) and the stalk maps of ``grpd.presheaf`` (the map at an open, then
the codomain's germ).  Members of a class that disagree raise
``InvariantViolation``; the comparison map reads that as "not an
isomorphism".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import (FiniteCategory, FiniteGroupoid, GroupoidMap, InvariantViolation,
                   identity_map, union_offsets, validate_category, validate_functor)
from .gamma import (EquivariantMap, GammaAction, HomotopyFixedPoints, equivariance_witness,
                    hfp, hfp_map, validate_gamma_action)
from .util import UnionFind

__all__ = [
    "FilteredDiagram",
    "NotFilteredError",
    "GroupoidColimit",
    "ColimitResult",
    "ColimitComparison",
    "filtered_witness",
    "validate_diagram",
    "colimit_groupoids",
    "colimit",
    "hfp_colimit_comparison",
]


class NotFilteredError(ValueError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def _poset_category(n: int, leq) -> tuple[FiniteCategory, dict]:
    """The preorder on ``range(n)`` with an arrow i -> j when ``leq(i, j)``.

    Arrows are numbered by (i, j) in lexicographic order; also returns the
    map from (i, j) to its arrow id.
    """
    pairs = [(i, j) for i in range(n) for j in range(n) if leq(i, j)]
    arrow_id = {p: k for k, p in enumerate(pairs)}
    comp = {}
    for (i, j) in pairs:
        for (j2, k) in pairs:
            if j == j2:
                comp[(arrow_id[(i, j)], arrow_id[(j2, k)])] = arrow_id[(i, k)]
    cat = FiniteCategory(
        n_objects=n,
        src=tuple(p[0] for p in pairs),
        tgt=tuple(p[1] for p in pairs),
        id_of=tuple(arrow_id[(i, i)] for i in range(n)),
        comp=comp,
    )
    return cat, arrow_id


def filtered_witness(c: FiniteCategory) -> Optional[str]:
    """None if the category is filtered, else a description of a failure.

    Checked by enumeration: non-emptiness, a cocone for every pair of
    objects, and an equalizing arrow for every parallel pair.
    """
    if c.n_objects == 0:
        return "the index category is empty"
    out_of = c.out_of
    reach = [{c.tgt[u] for u in arrows} for arrows in out_of]
    for i in c.objects():
        for j in c.objects():
            if reach[i].isdisjoint(reach[j]):
                return f"objects {i} and {j} admit no cocone"
    comp = c.comp
    for u in c.morphisms():
        after = out_of[c.tgt[u]]
        for v in c.hom(c.src[u], c.tgt[u]):
            if v > u and not any(comp[u, w] == comp[v, w] for w in after):
                return f"parallel arrows {u} and {v} are never equalized"
    return None


@dataclass(frozen=True)
class FilteredDiagram:
    """A diagram of groupoids with involution over a finite index category."""

    index: FiniteCategory
    nodes: tuple[GammaAction, ...]
    arrows: tuple[EquivariantMap, ...]


def validate_diagram(d: FilteredDiagram) -> list[str]:
    """The index's category axioms (a bad index ends the report), then the
    nodes, the arrows and functoriality; empty means valid."""
    report = validate_category(d.index)
    if report:
        return report
    c = d.index
    if len(d.nodes) != c.n_objects or len(d.arrows) != c.n_morphisms:
        report.append("shape: one node per index object and one map per arrow expected")
        return report
    report.extend(
        f"node {i}: {line}" for i, a in enumerate(d.nodes)
        for line in validate_gamma_action(a)
    )
    if report:
        return report
    for u in c.morphisms():
        e = d.arrows[u]
        if e.dom_action != d.nodes[c.src[u]]:
            report.append(f"arrow {u}: domain is not the source node")
            continue
        if e.cod_action != d.nodes[c.tgt[u]]:
            report.append(f"arrow {u}: codomain is not the target node")
            continue
        functor_report = validate_functor(e.map)
        if functor_report:
            report.extend(f"arrow {u}: {line}" for line in functor_report)
            continue
        w = equivariance_witness(e)
        if w is not None:
            report.append(f"arrow {u}: not equivariant at {w[0]} {w[1]}")
    if report:
        return report
    for i in c.objects():
        if d.arrows[c.id_of[i]].map != identity_map(d.nodes[i].carrier):
            report.append(f"functoriality: identity arrow of object {i}")
    for (u, v), w in c.comp.items():
        if d.arrows[u].map.then(d.arrows[v].map) != d.arrows[w].map:
            report.append(f"functoriality: composite ({u},{v})")
    return report


@dataclass(frozen=True)
class GroupoidColimit:
    groupoid: FiniteGroupoid
    cocones: tuple[GroupoidMap, ...]


def _descend(what: str, n_classes: int, class_maps: Sequence[Sequence[int]],
             values: Sequence[Sequence]) -> tuple:
    """The table on colimit classes induced by tables on the nodes.

    Item x of node i lies in class ``class_maps[i][x]`` and has the value
    ``values[i][x]``; the induced table gives each class the common value of
    its members.  Raises ``InvariantViolation``, naming ``what`` and the first
    class whose members disagree, or if some class has no member.
    """
    table = {}
    for classes, vals in zip(class_maps, values, strict=True):
        for c, v in zip(classes, vals, strict=True):
            if table.setdefault(c, v) != v:
                raise InvariantViolation(
                    f"{what} is not well-defined on class {c}: {table[c]} != {v}")
    if len(table) != n_classes:
        raise InvariantViolation(f"{what} leaves a class without a value")
    return tuple(table[c] for c in range(n_classes))


def _induced_map(what: str, co: GroupoidColimit, cod: FiniteGroupoid,
                 maps: Sequence[GroupoidMap]) -> GroupoidMap:
    """The map out of the colimit ``co`` into ``cod`` that is ``maps[i]`` on
    node i, read through the cocones.  Raises ``InvariantViolation`` naming
    ``"{what} on objects"`` or ``"{what} on morphisms"`` at the first class
    whose members the maps send apart."""
    g = co.groupoid
    obj_map = _descend(f"{what} on objects", g.n_objects,
                       [c.obj_map for c in co.cocones], [f.obj_map for f in maps])
    mor_map = _descend(f"{what} on morphisms", g.n_morphisms,
                       [c.mor_map for c in co.cocones], [f.mor_map for f in maps])
    return GroupoidMap(g, cod, obj_map, mor_map)


def colimit_groupoids(index: FiniteCategory, gpds: Sequence[FiniteGroupoid],
                      maps: Sequence[GroupoidMap]) -> GroupoidColimit:
    """Set-level colimit of plain groupoids over the index, with cocone maps.

    Composition on classes is read off every composable pair of every node
    through ``FiniteGroupoid.compositions``, so a node given by a rule is
    walked, not tabulated."""
    obj_off, mor_off = union_offsets(gpds)
    uf_obj = UnionFind(sum(g.n_objects for g in gpds))
    uf_mor = UnionFind(sum(g.n_morphisms for g in gpds))
    for u in index.morphisms():
        i, j = index.src[u], index.tgt[u]
        f = maps[u]
        if (i == j and f.obj_map == tuple(gpds[i].objects())
                and f.mor_map == tuple(gpds[i].morphisms())):
            continue  # an identity map identifies nothing
        for x in gpds[i].objects():
            uf_obj.union(obj_off[i] + x, obj_off[j] + f.obj_map[x])
        for k in gpds[i].morphisms():
            uf_mor.union(mor_off[i] + k, mor_off[j] + f.mor_map[k])
    obj_of, n_obj = uf_obj.class_index()
    mor_of, n_mor = uf_mor.class_index()
    obj_cls = [tuple(obj_of[off:off + g.n_objects]) for off, g in zip(obj_off, gpds)]
    mor_cls = [tuple(mor_of[off:off + g.n_morphisms]) for off, g in zip(mor_off, gpds)]
    src = _descend("source", n_mor, mor_cls,
                   [[oc[x] for x in g.src] for oc, g in zip(obj_cls, gpds)])
    tgt = _descend("target", n_mor, mor_cls,
                   [[oc[x] for x in g.tgt] for oc, g in zip(obj_cls, gpds)])
    inv = _descend("inverse", n_mor, mor_cls,
                   [[mc[k] for k in g.inv] for mc, g in zip(mor_cls, gpds)])
    id_of = _descend("identity", n_obj, obj_cls,
                     [[mc[k] for k in g.id_of] for mc, g in zip(mor_cls, gpds)])
    comp = {}
    for mc, g in zip(mor_cls, gpds):
        for (m1, m2), m3 in g.compositions():
            key = (mc[m1], mc[m2])
            val = mc[m3]
            if comp.setdefault(key, val) != val:
                raise NotFilteredError(
                    f"composition on classes is not well-defined at {key}",
                    witness=key)

    colim = FiniteGroupoid(n_obj, src, tgt, id_of, inv, comp)
    cocones = tuple(
        GroupoidMap(dom=g, cod=colim, obj_map=oc, mor_map=mc)
        for g, oc, mc in zip(gpds, obj_cls, mor_cls)
    )
    return GroupoidColimit(groupoid=colim, cocones=cocones)


@dataclass(frozen=True)
class ColimitResult:
    action: GammaAction
    cocones: tuple[EquivariantMap, ...]

    @property
    def groupoid(self) -> FiniteGroupoid:
        return self.action.carrier


def colimit(d: FilteredDiagram, require_filtered: bool = True) -> ColimitResult:
    """Colimit of the diagram with the induced involution and cocone maps."""
    if require_filtered:
        w = filtered_witness(d.index)
        if w is not None:
            raise NotFilteredError(w, witness=w)
    co = colimit_groupoids(d.index, [a.carrier for a in d.nodes],
                           [e.map for e in d.arrows])
    g = co.groupoid
    bar = _induced_map("induced involution", co, g, [
        GroupoidMap(a.carrier, a.carrier, a.bar_obj, a.bar_mor).then(f)
        for f, a in zip(co.cocones, d.nodes)])
    action = GammaAction(g, bar.obj_map, bar.mor_map)
    cocones = tuple(
        EquivariantMap(co.cocones[i], d.nodes[i], action) for i in range(len(d.nodes))
    )
    return ColimitResult(action=action, cocones=cocones)


@dataclass(frozen=True)
class ColimitComparison:
    map: Optional[GroupoidMap]
    is_isomorphism: bool
    lhs: FiniteGroupoid = field(compare=False)
    rhs: HomotopyFixedPoints = field(compare=False)
    colimit: ColimitResult = field(compare=False)


def hfp_colimit_comparison(d: FilteredDiagram,
                           require_filtered: bool = True) -> ColimitComparison:
    """Compare the colimit of the fixed points with the fixed points of the
    colimit, via the canonical map; the verdict asks for a bijection on
    objects and on morphisms.
    """
    co = colimit(d, require_filtered=require_filtered)
    rhs = hfp(co.action)
    fps = [hfp(a) for a in d.nodes]
    arrow_maps = [
        hfp_map(d.arrows[u], fps[d.index.src[u]], fps[d.index.tgt[u]])
        for u in d.index.morphisms()
    ]
    lhs = colimit_groupoids(d.index, [fp.groupoid for fp in fps], arrow_maps)
    # a class whose members land on different fixed points leaves the
    # canonical map undefined
    try:
        f = _induced_map("comparison", lhs, rhs.groupoid, [
            hfp_map(c, fp, rhs) for c, fp in zip(co.cocones, fps)])
    except InvariantViolation:
        f = None
    bijective = (
        f is not None
        and len(set(f.obj_map)) == len(f.obj_map) == rhs.groupoid.n_objects
        and len(set(f.mor_map)) == len(f.mor_map) == rhs.groupoid.n_morphisms
    )
    return ColimitComparison(map=f, is_isomorphism=bijective, lhs=lhs.groupoid,
                             rhs=rhs, colimit=co)
