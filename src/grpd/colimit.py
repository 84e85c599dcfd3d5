"""Colimits of diagrams of groupoids over finite index categories.

The colimit is computed set-theoretically on objects and on morphisms: the
disjoint union over the nodes, quotiented by the equivalence generated by
transport along the diagram arrows.  For a filtered index this is the actual
colimit groupoid and the construction below produces complete, well-defined
tables; a non-filtered index may make composition on classes clash, which is
reported as ``NotFilteredError``.  When the maps are functors, transport
along the generator arrows of the index generates the same equivalence, and
the nodes of the terminal classes of the index carry every class and every
composite, so ``colimit_groupoids`` reads only those.

Every table indexed by classes is induced from tables on the nodes by one
routine, ``_descend``: the colimit's source, target, inverse and identity
tables in ``colimit_groupoids``, and every map out of a colimit in
``_induced_map``.  That map is given on each node and read through the
cocones; its three uses are the induced involution (bar, then the cocone),
the comparison map of ``hfp_colimit_comparison`` (``hfp_map`` of each
cocone) and the stalk maps of ``grpd.presheaf`` (the map at an open, then
the codomain's germ).  Members of a class that disagree raise
``InvariantViolation``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import (FiniteCategory, FiniteGroupoid, GroupoidMap, InvariantViolation,
                   _map_shape_report, identity_map, union_offsets, validate_category,
                   validate_functor)
from .gamma import (EquivariantMap, GammaAction, HomotopyFixedPoints, _hfp_each,
                    equivariance_witness, hfp, hfp_map, validate_gamma_action)
from .util import UnionFind, _generators

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
    map from (i, j) to its arrow id.  Each arrow is composed with the arrows
    leaving its target, taken in arrow order.
    """
    pairs = [(i, j) for i in range(n) for j in range(n) if leq(i, j)]
    arrow_id = {p: k for k, p in enumerate(pairs)}
    leaving = [[] for _ in range(n)]
    for (j, k) in pairs:
        leaving[j].append(k)
    comp = {}
    for a, (i, j) in enumerate(pairs):
        for k in leaving[j]:
            comp[(a, arrow_id[(j, k)])] = arrow_id[(i, k)]
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
    nodes, the arrows and functoriality; empty means valid.  The arrows are
    first decided on the generators of the index
    (``_arrows_valid_on_generators``); only if that finds a fault is every
    arrow walked, so the report is the same line for line."""
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
    if report or _arrows_valid_on_generators(d):
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
    return report or _functoriality_report(d)


def _arrows_valid_on_generators(d: FilteredDiagram) -> bool:
    """Whether every arrow is an equivariant functor between its nodes and the
    arrows compose as the index does, with functors and equivariance checked
    on the generator arrows of the index (``util._generators``) only.  The
    other arrows are checked for their endpoints and table shapes, so the
    functoriality check can compose them; it then shows each one to be an
    identity or a composite of equivariant functors, which is one."""
    c = d.index
    gens = set(_generators(c.src, c.tgt, c.out_of, c.compose_each, c.id_of))
    for u, e in enumerate(d.arrows):
        if (e.dom_action != d.nodes[c.src[u]] or e.cod_action != d.nodes[c.tgt[u]]
                or e.map.dom is not e.dom_action.carrier
                or e.map.cod is not e.cod_action.carrier):
            return False
        if u in gens:
            if validate_functor(e.map) or equivariance_witness(e) is not None:
                return False
        elif _map_shape_report(e.map):
            return False
    return not _functoriality_report(d)


def _functoriality_report(d: FilteredDiagram) -> list[str]:
    """Identity arrows that are not identity maps, then composites of the
    index whose maps do not compose, one line each."""
    c = d.index
    report = [f"functoriality: identity arrow of object {i}" for i in c.objects()
              if d.arrows[c.id_of[i]].map != identity_map(d.nodes[i].carrier)]
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


def _terminal_nodes(index: FiniteCategory) -> list[int]:
    """The least object of each terminal class of the preorder "has an arrow
    to", in increasing order: each object reaches one of them."""
    reach = [{index.tgt[u] for u in arrows} for arrows in index.out_of]
    return sorted({min(r) for i, r in enumerate(reach) if all(i in reach[j] for j in r)})


def colimit_groupoids(index: FiniteCategory, gpds: Sequence[FiniteGroupoid],
                      maps: Sequence[GroupoidMap]) -> GroupoidColimit:
    """Set-level colimit of plain groupoids over the index, with cocone maps.

    The result is the colimit only when every map is a functor, which this
    routine does not check (``validate_diagram`` does).  It then reads only
    what determines the answer.  Classes are joined along the generator
    arrows of the index (``util._generators``): the step from x to
    F(u.v)x is F(u), then F(v).  Every node maps into the least node of a
    terminal class of "has an arrow to", so every class, and every composable
    pair of classes, has a representative there: source, target, inverse,
    identity and composition are read off those nodes only, through
    ``FiniteGroupoid.compositions``, so a node given by a rule is walked,
    not tabulated.  On maps that are not functors the call still returns a
    groupoid built the same way, or raises ``InvariantViolation`` when a
    class gets two values, or ``NotFilteredError`` when composition on
    classes clashes; that groupoid need not be the quotient of the disjoint
    union by every map."""
    obj_off, mor_off = union_offsets(gpds)
    uf_obj = UnionFind(sum(g.n_objects for g in gpds))
    uf_mor = UnionFind(sum(g.n_morphisms for g in gpds))
    for u in _generators(index.src, index.tgt, index.out_of, index.compose_each,
                         index.id_of):
        i, j = index.src[u], index.tgt[u]
        f = maps[u]
        for x, y in enumerate(f.obj_map):
            uf_obj.union(obj_off[i] + x, obj_off[j] + y)
        for k, m in enumerate(f.mor_map):
            uf_mor.union(mor_off[i] + k, mor_off[j] + m)
    obj_of, n_obj = uf_obj.class_index()
    mor_of, n_mor = uf_mor.class_index()
    obj_cls = [tuple(obj_of[off:off + g.n_objects]) for off, g in zip(obj_off, gpds)]
    mor_cls = [tuple(mor_of[off:off + g.n_morphisms]) for off, g in zip(mor_off, gpds)]
    reps = _terminal_nodes(index)
    rep_obj = [obj_cls[i] for i in reps]
    rep_mor = [mor_cls[i] for i in reps]
    rep_gpds = [gpds[i] for i in reps]
    src = _descend("source", n_mor, rep_mor,
                   [[oc[x] for x in g.src] for oc, g in zip(rep_obj, rep_gpds)])
    tgt = _descend("target", n_mor, rep_mor,
                   [[oc[x] for x in g.tgt] for oc, g in zip(rep_obj, rep_gpds)])
    inv = _descend("inverse", n_mor, rep_mor,
                   [[mc[k] for k in g.inv] for mc, g in zip(rep_mor, rep_gpds)])
    id_of = _descend("identity", n_obj, rep_obj,
                     [[mc[k] for k in g.id_of] for mc, g in zip(rep_mor, rep_gpds)])
    comp = {}
    for mc, g in zip(rep_mor, rep_gpds):
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
    """Colimit of the diagram with the induced involution and cocone maps.

    As for ``colimit_groupoids``, the result is the colimit only when every
    arrow is an equivariant functor; this is not checked
    (``validate_diagram`` does).  Otherwise the call returns what the same
    construction gives, or raises ``InvariantViolation`` when a class gets
    two values, or ``NotFilteredError`` when composition on classes
    clashes, also over a filtered index."""
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
    map: GroupoidMap
    is_isomorphism: bool
    lhs: FiniteGroupoid = field(compare=False)
    rhs: HomotopyFixedPoints = field(compare=False)
    colimit: ColimitResult = field(compare=False)


def hfp_colimit_comparison(d: FilteredDiagram, require_filtered: bool = True,
                           node_fps: Optional[Sequence[HomotopyFixedPoints]] = None
                           ) -> ColimitComparison:
    """Compare the colimit of the fixed points with the fixed points of the
    colimit, via the canonical map; the verdict asks for a bijection on
    objects and on morphisms.

    ``node_fps[i]``, if given, is ``hfp`` of node i, already computed by the
    caller, as for ``hfp_map``; otherwise each distinct node object's fixed
    points are computed once.  The canonical map is read through the
    cocones of both colimits (``_induced_map``); on a diagram of equivariant
    functors every class lands on one fixed point, and a class that lands
    apart raises ``InvariantViolation``.
    """
    co = colimit(d, require_filtered=require_filtered)
    rhs = hfp(co.action)
    fps = _hfp_each(d.nodes) if node_fps is None else node_fps
    arrow_maps = [
        hfp_map(d.arrows[u], fps[d.index.src[u]], fps[d.index.tgt[u]])
        for u in d.index.morphisms()
    ]
    lhs = colimit_groupoids(d.index, [fp.groupoid for fp in fps], arrow_maps)
    f = _induced_map("comparison", lhs, rhs.groupoid, [
        hfp_map(c, fp, rhs) for c, fp in zip(co.cocones, fps)])
    bijective = (len(set(f.obj_map)) == len(f.obj_map) == rhs.groupoid.n_objects
                 and len(set(f.mor_map)) == len(f.mor_map) == rhs.groupoid.n_morphisms)
    return ColimitComparison(map=f, is_isomorphism=bijective, lhs=lhs.groupoid,
                             rhs=rhs, colimit=co)
