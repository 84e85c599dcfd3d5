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
    if any(not 0 <= b < g.order for b in d.b_elements):
        report.append("shape: B element out of range")
    elif not is_subgroup(g, d.b_elements):
        report.append("subgroup: B is not a subgroup")
    elif any(d.theta[b] not in set(d.b_elements) for b in d.b_elements):
        report.append("stability: theta does not preserve B")
    return report


@dataclass(frozen=True)
class _DoubleCoset:
    b_group: FiniteGroup
    b_embedding: tuple[int, ...]
    pair_group: FiniteGroup
    action: GroupAction
    gamma: GammaAction


def _double_coset(d: InvolutiveGroupData) -> _DoubleCoset:
    g = d.group
    bgrp, emb = induced_subgroup(g, d.b_elements)
    nb = bgrp.order
    pair_group = direct_product(bgrp, bgrp)
    act_table = tuple(
        tuple(g.mul(g.mul(emb[i], x), g.inv(emb[j])) for x in g.elements())
        for i in range(nb) for j in range(nb)
    )
    action = GroupAction(
        group=pair_group,
        n_points=g.order,
        act_table=act_table,
        point_labels=tuple(g.label(x) for x in g.elements()),
    )
    carrier = build_action_groupoid(action)
    b_index = {emb[i]: i for i in range(nb)}
    theta_local = tuple(b_index[d.theta[emb[i]]] for i in range(nb))
    bar_obj = tuple(d.theta[g.inv(x)] for x in g.elements())
    bar_mor = []
    for p in pair_group.elements():
        i, j = divmod(p, nb)
        bar_pair = theta_local[j] * nb + theta_local[i]
        for x in g.elements():
            bar_mor.append(action_mor(action, bar_pair, bar_obj[x]))
    gamma = GammaAction(carrier, bar_obj, tuple(bar_mor))
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
    g = d.group
    elements = tuple(x for x in g.elements() if g.mul(x, d.theta[x]) == g.identity)
    index = {x: i for i, x in enumerate(elements)}
    if set(d.b_elements) == set(g.elements()):
        bgrp, emb = g, tuple(g.elements())  # B = G: no subgroup to check or copy
    else:
        bgrp, emb = induced_subgroup(g, d.b_elements)
    act_rows = []
    for i in range(bgrp.order):
        b = emb[i]
        row = []
        for x in elements:
            y = g.mul(g.mul(d.theta[b], x), g.inv(b))
            if y not in index:
                raise InvariantViolation(
                    f"twisted conjugate {y} of cocycle {x} is not a cocycle")
            row.append(index[y])
        act_rows.append(tuple(row))
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
    """
    g = d.group
    theta = d.theta
    bset = tuple(sorted(set(d.b_elements)))
    xs = []
    for b1 in bset:
        for b2 in bset:
            if g.mul(b1, theta[b2]) != g.identity:
                continue
            for x in g.elements():
                if g.mul(g.mul(b1, x), g.inv(b2)) == theta[g.inv(x)]:
                    xs.append((b1, b2, x))
    ys = []
    for b in bset:
        for x in g.elements():
            z = g.mul(b, x)
            if g.mul(z, theta[z]) == g.identity:
                ys.append((b, x))
    xs = tuple(sorted(xs))
    ys = tuple(sorted(ys))
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

    bgrp, emb = induced_subgroup(g, bset)
    nb = bgrp.order
    pair_group = direct_product(bgrp, bgrp)

    x_rows, y_rows = [], []
    for p in pair_group.elements():
        i, j = divmod(p, nb)
        beta1, beta2 = emb[i], emb[j]
        xrow = []
        for (b1, b2, x) in xs:
            t = (
                g.mul(g.mul(theta[beta2], b1), g.inv(beta1)),
                g.mul(g.mul(theta[beta1], b2), g.inv(beta2)),
                g.mul(g.mul(beta1, x), g.inv(beta2)),
            )
            if t not in x_index:
                raise InvariantViolation(f"X is not closed under the action at {t}")
            xrow.append(x_index[t])
        x_rows.append(tuple(xrow))
        yrow = []
        for (b, x) in ys:
            t = (
                g.mul(g.mul(theta[beta2], b), g.inv(beta1)),
                g.mul(g.mul(beta1, x), g.inv(beta2)),
            )
            if t not in y_index:
                raise InvariantViolation(f"Y is not closed under the action at {t}")
            yrow.append(y_index[t])
        y_rows.append(tuple(yrow))

    x_action = GroupAction(pair_group, len(xs), tuple(x_rows))
    y_action = GroupAction(pair_group, len(ys), tuple(y_rows))
    for p in pair_group.elements():
        for i in range(len(xs)):
            if forward[x_action.act(p, i)] != y_action.act(p, forward[i]):
                raise InvariantViolation("forward map is not equivariant")
    return XYCorrespondence(x_elements=xs, y_elements=ys, forward=tuple(forward),
                            backward=tuple(backward), x_action=x_action,
                            y_action=y_action)


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
        p = dc.b_group.identity * nb + j
        for yi in range(len(corr.y_elements)):
            if corr.y_action.act(p, yi) == yi:
                raise InvariantViolation(
                    f"subgroup element {emb[j]} fixes the pair {corr.y_elements[yi]}")

    obj_map = []
    for o in fp.objects:
        pair, base = action_mor_parts(dc.action, o.phi)
        if base != o.base:
            raise InvariantViolation(f"fixed point at {o.base} has phi starting at {base}")
        i, _ = divmod(pair, nb)
        z = g.mul(emb[i], o.base)
        obj_map.append(z_index[z])
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
