"""Twisted cocycle spaces for a group with involution and a stable subgroup.

The data is (G, theta, B): theta an involutive automorphism of G and B a
theta-stable subgroup.  B x B acts on G by (b1, b2) . g = b1 g b2^-1 and the
involution bar(g) = theta(g^-1), bar(b1, b2) = (theta(b2), theta(b1)) makes
the double coset groupoid a groupoid with involution.  Its homotopy fixed
points are carried by the cocycle-like sets

    X = {(b1, b2, g) : b1 g b2^-1 = theta(g^-1), b1 theta(b2) = e}
    Y = {(b, g)     : (b g) theta(b g) = e}
    Z = {g          : g theta(g) = e}

with X and Y isomorphic over B x B and Y -> Z, (b, g) -> b g, inducing the
comparison from the fixed points to the action groupoid of the twisted
conjugation action of B on Z.  The orbits of that action are the components
of its action groupoid and their stabilizers are its vertex groups, so
``twisted_orbits`` reads both off the groupoid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    FiniteGroupoid,
    GroupoidMap,
    InvariantViolation,
    action_mor,
    action_mor_parts,
    build_action_groupoid,
    components,
    is_fibration,
    is_weak_equivalence,
)
from .gamma import GammaAction, HomotopyFixedPoints, hfp
from .groups import (
    FiniteGroup,
    GroupAction,
    _two_sided,
    direct_product,
    induced_subgroup,
    is_involutive_automorphism,
    is_subgroup,
)

__all__ = [
    "InvolutiveGroupData",
    "TwistedCocycleSet",
    "TwistedOrbit",
    "XYCorrespondence",
    "ParameterFibration",
    "validate_involutive_data",
    "build_double_coset_groupoid",
    "z1_theta",
    "twisted_orbits",
    "xy_isomorphism",
    "parameter_fibration",
]


@dataclass(frozen=True)
class InvolutiveGroupData:
    """A finite group with involutive automorphism and stable subgroup."""

    group: FiniteGroup
    theta: tuple[int, ...]
    b_elements: tuple[int, ...]


def validate_involutive_data(d: InvolutiveGroupData) -> list[str]:
    g = d.group
    report = []
    if len(d.theta) != g.order:
        report.append("shape: theta table has the wrong length")
        return report
    if not is_involutive_automorphism(g, d.theta):
        report.append("involution: theta is not an involutive automorphism")
    bset = set(d.b_elements)
    if any(not 0 <= b < g.order for b in bset):
        report.append("shape: B element out of range")
    elif not is_subgroup(g, d.b_elements):
        report.append("subgroup: B is not a subgroup")
    elif any(d.theta[b] not in bset for b in bset):
        report.append("stability: theta does not preserve B")
    return report


@dataclass(frozen=True)
class _DoubleCoset:
    b_group: FiniteGroup
    b_embedding: tuple[int, ...]
    pair_group: FiniteGroup
    action: GroupAction
    gamma: GammaAction


def _pairs(d: InvolutiveGroupData) -> tuple[FiniteGroup, tuple[int, ...], FiniteGroup]:
    """B with its embedding into G, and B x B, whose element (i, j) is i |B| + j."""
    bgrp, emb = induced_subgroup(d.group, d.b_elements)
    return bgrp, emb, direct_product(bgrp, bgrp)


def _double_coset(d: InvolutiveGroupData) -> _DoubleCoset:
    g = d.group
    bgrp, emb, pair_group = _pairs(d)
    nb = bgrp.order
    act_table = tuple(_two_sided(g, b1, b2) for b1 in emb for b2 in emb)
    action = GroupAction(
        group=pair_group,
        n_points=g.order,
        act_table=act_table,
        point_labels=tuple(g.label(x) for x in g.elements()),
    )
    carrier = build_action_groupoid(action)
    b_index = {emb[i]: i for i in range(nb)}
    theta_local = tuple(b_index[d.theta[emb[i]]] for i in range(nb))
    bar_obj = tuple(d.theta[x] for x in g.inv_table)
    bar_mor = tuple(action_mor(action, tj * nb + ti, y)
                    for ti in theta_local for tj in theta_local for y in bar_obj)
    gamma = GammaAction(carrier, bar_obj, bar_mor)
    return _DoubleCoset(b_group=bgrp, b_embedding=emb, pair_group=pair_group,
                        action=action, gamma=gamma)


def build_double_coset_groupoid(d: InvolutiveGroupData) -> GammaAction:
    """The double coset groupoid of (G, theta, B) with its involution."""
    return _double_coset(d).gamma


@dataclass(frozen=True)
class TwistedCocycleSet:
    """Z = {g : g theta(g) = e} with the twisted conjugation action of B."""

    elements: tuple[int, ...]
    b_group: FiniteGroup = field(compare=False)
    b_embedding: tuple[int, ...]
    action: GroupAction = field(compare=False)


def z1_theta(d: InvolutiveGroupData) -> TwistedCocycleSet:
    """The cocycles Z and the twisted conjugation b . s = theta(b) s b^-1 of B
    on them.  The action row of b is the two-sided row of (theta(b), b) read
    through the index of Z; a conjugate outside Z means theta is not an
    automorphism and raises ``InvariantViolation``."""
    g = d.group
    elements = tuple(x for x, row in enumerate(g.table) if row[d.theta[x]] == g.identity)
    index = {x: i for i, x in enumerate(elements)}
    if set(d.b_elements) == set(g.elements()):
        bgrp, emb = g, tuple(g.elements())  # B = G: no subgroup to check or copy
    else:
        bgrp, emb = induced_subgroup(g, d.b_elements)
    act_rows = []
    for b in emb:
        conj = _two_sided(g, d.theta[b], b)
        row = [conj[x] for x in elements]
        try:
            act_rows.append(tuple([index[y] for y in row]))
        except KeyError as e:
            y = e.args[0]
            raise InvariantViolation(f"twisted conjugate {y} of cocycle "
                                     f"{elements[row.index(y)]} is not a cocycle") from None
    action = GroupAction(
        group=bgrp,
        n_points=len(elements),
        act_table=tuple(act_rows),
        point_labels=tuple(g.label(x) for x in elements),
    )
    return TwistedCocycleSet(elements=elements, b_group=bgrp, b_embedding=emb,
                             action=action)


@dataclass(frozen=True)
class TwistedOrbit:
    """One orbit of twisted conjugation, with members and stabilizer in G ids.

    With B = G these are the cocycle classes of ``cohomology.h1``.
    """

    representative: int
    members: tuple[int, ...]
    stabilizer: tuple[int, ...]


def twisted_orbits(d: InvolutiveGroupData) -> list[TwistedOrbit]:
    """Orbits of B on the cocycles, sorted by their least member, which is
    the representative."""
    zs = z1_theta(d)
    return _orbits(zs, build_action_groupoid(zs.action))


def _orbits(zs: TwistedCocycleSet, target: FiniteGroupoid) -> list[TwistedOrbit]:
    """The components of ``target``, the action groupoid of ``zs.action``,
    each with the group coordinates of the automorphisms of its least object."""
    return [
        TwistedOrbit(
            representative=zs.elements[cls[0]],
            members=tuple(zs.elements[t] for t in cls),
            stabilizer=tuple(zs.b_embedding[action_mor_parts(zs.action, m)[0]]
                             for m in target.aut(cls[0])),
        )
        for cls in components(target)
    ]


@dataclass(frozen=True)
class XYCorrespondence:
    """The equivariant bijection between the triple and pair presentations."""

    x_elements: tuple[tuple[int, int, int], ...]
    y_elements: tuple[tuple[int, int], ...]
    forward: tuple[int, ...]
    backward: tuple[int, ...]
    x_action: GroupAction = field(compare=False)
    y_action: GroupAction = field(compare=False)


def xy_isomorphism(d: InvolutiveGroupData) -> XYCorrespondence:
    """Enumerate X and Y, the mutually inverse maps (b1,b2,g) -> (b1,g) and
    (b,g) -> (b, theta(b^-1), g), and the B x B actions; everything is
    verified, a failure meaning a bug rather than bad input.

    X is read from one two-sided row per (b1, b2) with b1 theta(b2) = e, Y
    from row b of the table; the pair (beta1, beta2) acts through the rows of
    (theta(beta2), beta1), (theta(beta1), beta2) and (beta1, beta2).
    """
    g = d.group
    theta = d.theta
    bset = tuple(sorted(set(d.b_elements)))
    bar_obj = tuple(theta[x] for x in g.inv_table)
    xs = tuple((b1, b2, x) for b1 in bset for b2 in bset
               if g.table[b1][theta[b2]] == g.identity
               for x, y in enumerate(_two_sided(g, b1, b2)) if y == bar_obj[x])
    cocycles = {x for x, row in enumerate(g.table) if row[theta[x]] == g.identity}
    ys = tuple((b, x) for b in bset for x, z in enumerate(g.table[b]) if z in cocycles)
    x_index = {t: i for i, t in enumerate(xs)}
    y_index = {t: i for i, t in enumerate(ys)}

    forward = []
    for (b1, b2, x) in xs:
        key = (b1, x)
        if key not in y_index:
            raise InvariantViolation(f"image {key} of X element is not in Y")
        forward.append(y_index[key])
    backward = []
    for (b, x) in ys:
        key = (b, theta[g.inv(b)], x)
        if key not in x_index:
            raise InvariantViolation(f"image {key} of Y element is not in X")
        backward.append(x_index[key])
    for i in range(len(xs)):
        if backward[forward[i]] != i:
            raise InvariantViolation("forward then backward is not the identity on X")
    for i in range(len(ys)):
        if forward[backward[i]] != i:
            raise InvariantViolation("backward then forward is not the identity on Y")

    _, emb, pair_group = _pairs(d)
    x_rows, y_rows = [], []
    for beta1 in emb:
        for beta2 in emb:
            r1 = _two_sided(g, theta[beta2], beta1)
            r2 = _two_sided(g, theta[beta1], beta2)
            r3 = _two_sided(g, beta1, beta2)
            x_rows.append(_action_row(x_index, [(r1[b1], r2[b2], r3[x]) for b1, b2, x in xs], "X"))
            y_rows.append(_action_row(y_index, [(r1[b], r3[x]) for b, x in ys], "Y"))

    x_action = GroupAction(pair_group, len(xs), tuple(x_rows))
    y_action = GroupAction(pair_group, len(ys), tuple(y_rows))
    for p in pair_group.elements():
        for i in range(len(xs)):
            if forward[x_action.act(p, i)] != y_action.act(p, forward[i]):
                raise InvariantViolation("forward map is not equivariant")
    return XYCorrespondence(x_elements=xs, y_elements=ys, forward=tuple(forward),
                            backward=tuple(backward), x_action=x_action,
                            y_action=y_action)


def _action_row(index: dict, keys: list, name: str) -> tuple[int, ...]:
    """The index of each key; the first key missing means ``name`` is not
    closed under the action."""
    try:
        return tuple([index[t] for t in keys])
    except KeyError as e:
        raise InvariantViolation(
            f"{name} is not closed under the action at {e.args[0]}") from None


@dataclass(frozen=True)
class ParameterFibration:
    map: GroupoidMap
    is_fibration: bool
    is_weak_equivalence: bool
    fixed_points: HomotopyFixedPoints = field(compare=False)
    target: FiniteGroupoid = field(compare=False)
    cocycles: TwistedCocycleSet = field(compare=False)
    correspondence: XYCorrespondence = field(compare=False)
    orbits: tuple[TwistedOrbit, ...] = ()

    @property
    def is_acyclic_fibration(self) -> bool:
        return self.is_fibration and self.is_weak_equivalence


def parameter_fibration(d: InvolutiveGroupData) -> ParameterFibration:
    """The comparison from the fixed points of the double coset groupoid to
    the action groupoid of twisted conjugation on the cocycles.

    A fixed point decodes as a triple (b1, b2, g) and maps to the cocycle
    b1 g; an arrow with underlying ((beta1, beta2), g) maps to the arrow
    (beta2, .).  The freeness of the second factor on the pair presentation
    Y is checked explicitly along the way.
    """
    g = d.group
    dc = _double_coset(d)
    fp = hfp(dc.gamma)
    zs = z1_theta(d)
    target = build_action_groupoid(zs.action)
    z_index = {x: i for i, x in enumerate(zs.elements)}
    nb = dc.b_group.order
    emb = dc.b_embedding

    corr = xy_isomorphism(d)
    for j in range(nb):
        if j == dc.b_group.identity:
            continue
        row = corr.y_action.act_table[dc.b_group.identity * nb + j]  # the pair (e, b_j)
        yi = next((yi for yi, y in enumerate(row) if y == yi), None)
        if yi is not None:
            raise InvariantViolation(
                f"subgroup element {emb[j]} fixes the pair {corr.y_elements[yi]}")

    obj_map = []
    for o in fp.objects:
        pair, base = action_mor_parts(dc.action, o.phi)
        if base != o.base:
            raise InvariantViolation(f"fixed point at {o.base} has phi starting at {base}")
        i, _ = divmod(pair, nb)
        obj_map.append(z_index[g.table[emb[i]][o.base]])
    mor_map = []
    fpg = fp.groupoid
    for m in fpg.morphisms():
        pair, _ = divmod(fp.underlying[m], dc.action.n_points)
        _, beta2 = divmod(pair, nb)
        mor_map.append(action_mor(zs.action, beta2, obj_map[fpg.src[m]]))
    f = GroupoidMap(fpg, target, tuple(obj_map), tuple(mor_map))
    return ParameterFibration(
        map=f,
        is_fibration=is_fibration(f),
        is_weak_equivalence=is_weak_equivalence(f),
        fixed_points=fp,
        target=target,
        cocycles=zs,
        correspondence=corr,
        orbits=tuple(_orbits(zs, target)),
    )
