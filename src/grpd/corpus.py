"""Fixture catalog and seeded instance generators.

Every generator takes a ``random.Random`` and is deterministic for a fixed
seed.  Instances are built so the property under test holds by construction
(isomorphisms, bundles, folds, inclusions); the checks downstream then verify
that the general-purpose predicates agree.  Sizes stay small enough for the
exhaustive verifiers.
"""

from __future__ import annotations

import functools
import random
from typing import Optional, Sequence

from .cohomology import GroupGammaAction, bg_gamma_action
from .colimit import FilteredDiagram, _poset_category
from .core import (
    FiniteCategory,
    FiniteGroupoid,
    GroupoidMap,
    InvariantViolation,
    build_action_groupoid,
    build_bg,
    build_eg,
    discrete_groupoid,
    disjoint_union,
    disjoint_union_map,
    identity_map,
    relabel,
    terminal_groupoid,
)
from .gamma import (
    EquivariantMap,
    GammaAction,
    gamma_product,
    gamma_relabel,
    gamma_union,
    set_as_groupoid,
    swap_action,
    trivial_action,
)
from .groups import (
    FiniteGroup,
    GroupAction,
    conjugation_automorphism,
    cyclic_group,
    dihedral_group,
    direct_product,
    gl2_f2,
    gl2_f2_upper_triangular,
    identity_automorphism,
    inversion_automorphism,
    is_involutive_automorphism,
    symmetric_group,
    trivial_group,
)
from .presheaf import (
    FiniteSite,
    GroupoidPresheaf,
    PresheafGammaAction,
    PresheafMap,
    constant_presheaf,
    sierpinski_site,
    site_from_open_sets,
    terminal_presheaf,
)
from .twisted import InvolutiveGroupData, build_double_coset_groupoid, validate_involutive_data

__all__ = [
    "group_catalog",
    "gamma_group_fixtures",
    "involutive_fixtures",
    "eg_gamma_action",
    "corrupted_bg_z2",
    "negative_control_map",
    "swap_corpus",
    "small_groupoid_catalog",
    "random_groupoid",
    "random_gamma_action",
    "random_equivariant_weq",
    "random_equivariant_fibration",
    "random_filtered_diagram",
    "nonfiltered_control_diagram",
    "random_site",
    "random_presheaf_action",
    "random_sectionwise_map",
    "constant_presheaf_action",
    "skyscraper_presheaf_action",
    "local_not_sectionwise_weq",
    "local_not_sectionwise_fib",
]

# S3 is tabulated with permutations in lexicographic order, so (1,0,2), the
# transposition of the first two points, sits at index 2.
S3_TRANSPOSITION = 2


@functools.cache
def _catalog_groups() -> tuple[tuple[str, FiniteGroup], ...]:
    return (
        ("1", trivial_group()),
        ("Z2", cyclic_group(2)),
        ("Z3", cyclic_group(3)),
        ("Z4", cyclic_group(4)),
        ("Z6", cyclic_group(6)),
        ("V4", direct_product(cyclic_group(2), cyclic_group(2))),
        ("S3", symmetric_group(3)),
        ("D4", dihedral_group(4)),
        ("GL2F2", gl2_f2()),
    )


def group_catalog() -> dict:
    return dict(_catalog_groups())


def _transpose_inverse(g: FiniteGroup) -> tuple[int, ...]:
    """g -> transpose of the inverse, on ``gl2_f2()``; involutive since
    transposition and inversion commute."""
    by_label = {g.label(a): a for a in g.elements()}
    out = []
    for a in g.elements():
        s = g.label(g.inv(a))
        out.append(by_label[s[0] + s[2] + s[1] + s[3]])
    return tuple(out)


def _v4_swap() -> tuple[int, ...]:
    """The factor-swapping automorphism of Z/2 x Z/2."""
    return tuple(y * 2 + x for x, y in (divmod(e, 2) for e in range(4)))


@functools.cache
def gamma_group_fixtures() -> tuple[GroupGammaAction, ...]:
    """Named (group, involutive automorphism) pairs; twelve of them."""
    cat = group_catalog()
    z2, z3, z4, z6 = cat["Z2"], cat["Z3"], cat["Z4"], cat["Z6"]
    v4, s3, d4, gl = cat["V4"], cat["S3"], cat["D4"], cat["GL2F2"]
    fixtures = (
        GroupGammaAction(z2, identity_automorphism(z2)),
        GroupGammaAction(z3, inversion_automorphism(z3)),
        GroupGammaAction(z4, identity_automorphism(z4)),
        GroupGammaAction(z4, inversion_automorphism(z4)),
        GroupGammaAction(z6, inversion_automorphism(z6)),
        GroupGammaAction(v4, identity_automorphism(v4)),
        GroupGammaAction(v4, _v4_swap()),
        GroupGammaAction(s3, identity_automorphism(s3)),
        GroupGammaAction(s3, conjugation_automorphism(s3, S3_TRANSPOSITION)),
        GroupGammaAction(d4, identity_automorphism(d4)),
        GroupGammaAction(d4, conjugation_automorphism(d4, 1)),
        GroupGammaAction(gl, _transpose_inverse(gl)),
    )
    for a in fixtures:
        if not is_involutive_automorphism(a.group, a.bar):
            raise InvariantViolation(
                f"fixture bar on {a.group.name} is not an involutive automorphism")
    return fixtures


@functools.cache
def involutive_fixtures() -> tuple[InvolutiveGroupData, ...]:
    """(G, theta, B) triples with B a theta-stable subgroup."""
    cat = group_catalog()
    z2, z4, z6 = cat["Z2"], cat["Z4"], cat["Z6"]
    v4, s3, d4, gl = cat["V4"], cat["S3"], cat["D4"], cat["GL2F2"]
    # In gl2_f2 the flip matrix 0110 is symmetric, so it spans a subgroup
    # stable under transpose-inverse; the upper triangular subgroup is not
    # stable under that map and pairs with the identity instead.
    flip = next(a for a in gl.elements() if gl.label(a) == "0110")
    fixtures = (
        InvolutiveGroupData(z2, identity_automorphism(z2), (0, 1)),
        InvolutiveGroupData(z4, inversion_automorphism(z4), (0, 2)),
        InvolutiveGroupData(z4, inversion_automorphism(z4), (0, 1, 2, 3)),
        InvolutiveGroupData(z6, inversion_automorphism(z6), (0, 3)),
        InvolutiveGroupData(v4, _v4_swap(), (0, 3)),
        InvolutiveGroupData(s3, identity_automorphism(s3), (0, S3_TRANSPOSITION)),
        InvolutiveGroupData(s3, identity_automorphism(s3), (0, 3, 4)),
        InvolutiveGroupData(s3, conjugation_automorphism(s3, S3_TRANSPOSITION),
                            (0, S3_TRANSPOSITION)),
        InvolutiveGroupData(d4, conjugation_automorphism(d4, 1), (0, 4)),
        InvolutiveGroupData(gl, _transpose_inverse(gl), tuple(sorted((gl.identity, flip)))),
        InvolutiveGroupData(gl, identity_automorphism(gl), gl2_f2_upper_triangular(gl)),
    )
    for d in fixtures:
        report = validate_involutive_data(d)
        if report:
            raise InvariantViolation(f"fixture on {d.group.name}: {report[0]}")
    return fixtures


def eg_gamma_action(g: FiniteGroup, theta: Optional[Sequence[int]] = None) -> GammaAction:
    """The left translation groupoid of g, with bar applying theta to both
    the group coordinate and the point coordinate."""
    if theta is None:
        theta = identity_automorphism(g)
    theta = tuple(theta)
    if not is_involutive_automorphism(g, theta):
        raise ValueError(f"theta is not an involutive automorphism of {g.name}")
    e = build_eg(g)
    n = g.order
    bar_mor = tuple([t * n + u for t in theta for u in theta])
    return GammaAction(e, theta, bar_mor)


def corrupted_bg_z2() -> FiniteGroupoid:
    """The one-object groupoid of Z/2 with the composite flip.flip redeclared
    as flip: every axiom holds except the inverse law."""
    g = build_bg(cyclic_group(2))
    comp = dict(g.comp)
    comp[(1, 1)] = 1
    return FiniteGroupoid(g.n_objects, g.src, g.tgt, g.id_of, g.inv, comp)


def negative_control_map() -> EquivariantMap:
    """The point into B(Z/2), trivial involutions on both sides.

    Neither a fibration nor a weak equivalence, and the induced map on fixed
    points is neither as well; it keeps the preservation suites honest.
    """
    t = terminal_groupoid()
    b = build_bg(cyclic_group(2))
    m = GroupoidMap(t, b, (0,), (0,))
    return EquivariantMap(m, trivial_action(t), trivial_action(b))


def swap_corpus() -> tuple[FiniteGroupoid, ...]:
    cat = group_catalog()
    return (
        terminal_groupoid(),
        discrete_groupoid(3),
        build_bg(cat["Z2"]),
        build_bg(cat["Z3"]),
        build_bg(cat["V4"]),
        build_bg(cat["S3"]),
        build_eg(cat["Z2"]),
        build_eg(cat["S3"]),
        disjoint_union([terminal_groupoid(), build_bg(cat["Z3"])]),
        disjoint_union([build_bg(cat["Z2"]), build_eg(cat["Z3"])]),
    )


def small_groupoid_catalog() -> tuple[FiniteGroupoid, ...]:
    """Groupoids of at most twelve morphisms, for exhaustive functor
    enumeration."""
    cat = group_catalog()
    out = (
        FiniteGroupoid(0, (), (), (), (), {}),
        terminal_groupoid(),
        discrete_groupoid(2),
        discrete_groupoid(3),
        build_bg(cat["Z2"]),
        build_bg(cat["Z3"]),
        build_bg(cat["Z4"]),
        build_bg(cat["V4"]),
        build_bg(cat["S3"]),
        build_eg(cat["Z2"]),
        build_eg(cat["Z3"]),
        disjoint_union([build_bg(cat["Z2"]), terminal_groupoid()]),
        disjoint_union([build_bg(cat["Z2"]), build_bg(cat["Z2"])]),
        disjoint_union([build_eg(cat["Z2"]), terminal_groupoid()]),
    )
    if any(g.n_morphisms > 12 for g in out):
        raise InvariantViolation("a small catalog groupoid has more than twelve morphisms")
    return out


def _random_perms(rng: random.Random, g: FiniteGroupoid) -> tuple[tuple[int, ...], tuple[int, ...]]:
    obj_perm = list(g.objects())
    mor_perm = list(g.morphisms())
    rng.shuffle(obj_perm)
    rng.shuffle(mor_perm)
    return tuple(obj_perm), tuple(mor_perm)


def _random_involution(rng: random.Random, k: int) -> tuple[int, ...]:
    perm = list(range(k))
    order = list(range(k))
    rng.shuffle(order)
    i = 0
    while i + 1 < k:
        if rng.random() < 0.6:
            a, b = order[i], order[i + 1]
            perm[a], perm[b] = b, a
            i += 2
        else:
            i += 1
    return tuple(perm)


def _random_group(rng: random.Random, max_order: int) -> FiniteGroup:
    pool = [g for g in group_catalog().values() if g.order <= max_order]
    return rng.choice(pool)


def _random_group_with_involution(rng: random.Random, max_order: int) -> GroupGammaAction:
    pool = [a for a in gamma_group_fixtures() if a.group.order <= max_order]
    if not pool:
        g = trivial_group()
        return GroupGammaAction(g, identity_automorphism(g))
    return rng.choice(pool)


def random_groupoid(rng: random.Random, max_morphisms: int = 60) -> FiniteGroupoid:
    """A disjoint union of discrete, one-object, translation, and trivial
    action groupoids, optionally renamed."""
    parts = []
    budget = max_morphisms
    for _ in range(rng.randint(1, 3)):
        g = _random_groupoid_part(rng, budget)
        if g is None:
            break
        parts.append(g)
        budget -= g.n_morphisms
    if not parts:
        return discrete_groupoid(1)
    u = disjoint_union(parts) if len(parts) > 1 else parts[0]
    if rng.random() < 0.5:
        obj_perm, mor_perm = _random_perms(rng, u)
        u = relabel(u, obj_perm, mor_perm)
    return u


def _random_groupoid_part(rng: random.Random, budget: int) -> Optional[FiniteGroupoid]:
    if budget < 1:
        return None
    kind = rng.randrange(4)
    if kind == 0:
        return discrete_groupoid(rng.randint(1, min(6, budget)))
    if kind == 1:
        return build_bg(_random_group(rng, budget))
    if kind == 2:
        g = _random_group(rng, 7)
        if g.order ** 2 > budget:
            return discrete_groupoid(1)
        return build_eg(g)
    g = _random_group(rng, max(1, budget // 2))
    k = rng.randint(1, max(1, min(4, budget // g.order)))
    return build_action_groupoid(GroupAction(g, k, tuple(
        tuple(range(k)) for _ in g.elements())))


def random_gamma_action(rng: random.Random, max_morphisms: int = 60) -> GammaAction:
    """An involution drawn from the patterns the constructions produce."""
    while True:
        a = _GAMMA_BUILDERS[rng.randrange(len(_GAMMA_BUILDERS))](rng, max_morphisms)
        if a is not None and a.carrier.n_morphisms <= max_morphisms:
            return a


def _gamma_trivial(rng, budget):
    return trivial_action(random_groupoid(rng, budget))


def _gamma_set(rng, budget):
    k = rng.randint(1, min(12, budget))
    return set_as_groupoid(_random_involution(rng, k))


def _gamma_bg(rng, budget):
    pool = [a for a in gamma_group_fixtures() if a.group.order <= budget]
    if not pool:
        return None
    return bg_gamma_action(rng.choice(pool))


def _gamma_eg(rng, budget):
    pool = [a for a in gamma_group_fixtures() if a.group.order ** 2 <= budget]
    if not pool:
        return None
    a = rng.choice(pool)
    return eg_gamma_action(a.group, a.bar)


def _gamma_double_coset(rng, budget):
    pool = [d for d in involutive_fixtures()
            if len(d.b_elements) ** 2 * d.group.order <= budget]
    if not pool:
        return None
    return build_double_coset_groupoid(rng.choice(pool))


def _gamma_swap(rng, budget):
    side = max(1, int(budget ** 0.5))
    return swap_action(random_groupoid(rng, side))


def _gamma_union(rng, budget):
    if budget < 2:
        return None
    a = random_gamma_action(rng, budget // 2)
    b = random_gamma_action(rng, budget - a.carrier.n_morphisms)
    return gamma_union([a, b])


def _gamma_relabel(rng, budget):
    a = random_gamma_action(rng, budget)
    obj_perm, mor_perm = _random_perms(rng, a.carrier)
    return gamma_relabel(a, obj_perm, mor_perm)


def _gamma_product(rng, budget):
    a = random_gamma_action(rng, min(7, budget))
    b = random_gamma_action(rng, max(1, budget // max(1, a.carrier.n_morphisms)))
    return gamma_product(a, b)


_GAMMA_BUILDERS = (
    _gamma_trivial,
    _gamma_set,
    _gamma_bg,
    _gamma_eg,
    _gamma_double_coset,
    _gamma_swap,
    _gamma_union,
    _gamma_relabel,
    _gamma_product,
)


def _union_equivariant(e1: EquivariantMap, e2: EquivariantMap) -> EquivariantMap:
    return EquivariantMap(
        disjoint_union_map([e1.map, e2.map]),
        gamma_union([e1.dom_action, e2.dom_action]),
        gamma_union([e1.cod_action, e2.cod_action]),
    )


def _relabel_iso(rng: random.Random, a: GammaAction) -> EquivariantMap:
    obj_perm, mor_perm = _random_perms(rng, a.carrier)
    b = gamma_relabel(a, obj_perm, mor_perm)
    return EquivariantMap(GroupoidMap(a.carrier, b.carrier, obj_perm, mor_perm), a, b)


def _fold_map(a: GammaAction, u: GammaAction, cod: FiniteGroupoid) -> GroupoidMap:
    """The fold of u = gamma_union([a, a]) into cod: both copies of a go to
    the ids of a, which are a's own in a.carrier and the first copy's in
    u.carrier."""
    n, k = a.carrier.n_objects, a.carrier.n_morphisms
    return GroupoidMap(u.carrier, cod, tuple(range(n)) * 2, tuple(range(k)) * 2)


def _random_eg_to_point(rng: random.Random) -> EquivariantMap:
    # a translation groupoid collapsed to the point: a weak equivalence and
    # a fibration
    a = _random_group_with_involution(rng, 6)
    e = eg_gamma_action(a.group, a.bar)
    t = trivial_action(terminal_groupoid())
    n = a.group.order
    m = GroupoidMap(e.carrier, t.carrier, (0,) * n, (0,) * (n * n))
    return EquivariantMap(m, e, t)


def random_equivariant_weq(rng: random.Random) -> EquivariantMap:
    """An equivariant map whose underlying functor is a weak equivalence by
    construction."""
    kind = rng.randrange(5)
    if kind == 0:
        return _relabel_iso(rng, random_gamma_action(rng, 40))
    if kind == 1:
        return _random_eg_to_point(rng)
    if kind == 2:
        # the identity object includes the point into the translation
        # groupoid: an equivalence that is not a fibration
        a = _random_group_with_involution(rng, 6)
        e = eg_gamma_action(a.group, a.bar)
        t = trivial_action(terminal_groupoid())
        x = a.group.identity
        m = GroupoidMap(t.carrier, e.carrier, (x,), (x * a.group.order + x,))
        return EquivariantMap(m, t, e)
    if kind == 3:
        a = random_gamma_action(rng, 40)
        m = GroupoidMap(a.carrier, a.carrier, a.bar_obj, a.bar_mor)
        return EquivariantMap(m, a, a)
    return _union_equivariant(random_equivariant_weq(rng), random_equivariant_weq(rng))


def random_equivariant_fibration(rng: random.Random) -> EquivariantMap:
    """An equivariant map whose underlying functor is a fibration by
    construction."""
    kind = rng.randrange(6)
    if kind == 0:
        return _relabel_iso(rng, random_gamma_action(rng, 40))
    if kind == 1:
        a = random_gamma_action(rng, 8)
        b = random_gamma_action(rng, 7)
        p = gamma_product(a, b)
        no, nm = b.carrier.n_objects, b.carrier.n_morphisms
        m = GroupoidMap(
            p.carrier, a.carrier,
            tuple(x // no for x in range(p.carrier.n_objects)),
            tuple(k // nm for k in range(p.carrier.n_morphisms)),
        )
        return EquivariantMap(m, p, a)
    if kind == 2:
        # fold of two copies: a fibration that is not an equivalence
        a = random_gamma_action(rng, 30)
        u = gamma_union([a, a])
        return EquivariantMap(_fold_map(a, u, a.carrier), u, a)
    if kind == 3:
        # the bundle of a translation groupoid over the one-object groupoid
        a = _random_group_with_involution(rng, 7)
        e = eg_gamma_action(a.group, a.bar)
        b = bg_gamma_action(a)
        n = a.group.order
        m = GroupoidMap(e.carrier, b.carrier, (0,) * n,
                        tuple(k // n for k in range(n * n)))
        return EquivariantMap(m, e, b)
    if kind == 4:
        return _random_eg_to_point(rng)
    return _union_equivariant(random_equivariant_fibration(rng),
                              random_equivariant_fibration(rng))


def _inclusion_map(a: GammaAction, u: GammaAction) -> GroupoidMap:
    # u must be gamma_union([a, ...]) so the first summand sits at offset zero
    return GroupoidMap(a.carrier, u.carrier,
                       tuple(range(a.carrier.n_objects)),
                       tuple(range(a.carrier.n_morphisms)))


def _chain_diagram(rng: random.Random) -> FilteredDiagram:
    k = rng.randint(1, 3)
    nodes = [random_gamma_action(rng, 12)]
    steps = []
    for _ in range(k):
        cur = nodes[-1]
        choice = rng.randrange(3)
        if choice == 0:
            e = _relabel_iso(rng, cur)
            nodes.append(e.cod_action)
            steps.append(e.map)
        elif choice == 1:
            other = random_gamma_action(rng, 12)
            nxt = gamma_union([cur, other])
            nodes.append(nxt)
            steps.append(_inclusion_map(cur, nxt))
        else:
            nodes.append(cur)
            steps.append(GroupoidMap(cur.carrier, cur.carrier, cur.bar_obj, cur.bar_mor))
    cat, aid = _poset_category(k + 1, lambda i, j: i <= j)
    built = {}
    for (i, j) in sorted(aid, key=lambda p: p[1] - p[0]):
        if i == j:
            built[(i, j)] = identity_map(nodes[i].carrier)
        else:
            built[(i, j)] = built[(i, j - 1)].then(steps[j - 1])
    arrows = [None] * cat.n_morphisms
    for (i, j), a in aid.items():
        arrows[a] = EquivariantMap(built[(i, j)], nodes[i], nodes[j])
    return FilteredDiagram(cat, tuple(nodes), tuple(arrows))


def _bar_power_diagram(rng: random.Random) -> FilteredDiagram:
    # the square poset, with bar itself along every covering relation; the
    # two composites around the square agree because bar is an involution
    below = {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}
    height = (0, 1, 1, 2)
    a = random_gamma_action(rng, 40)
    bar = GroupoidMap(a.carrier, a.carrier, a.bar_obj, a.bar_mor)
    cat, aid = _poset_category(4, lambda i, j: i == j or (i, j) in below)
    arrows = [None] * cat.n_morphisms
    for (i, j), k in aid.items():
        f = identity_map(a.carrier) if (height[j] - height[i]) % 2 == 0 else bar
        arrows[k] = EquivariantMap(f, a, a)
    return FilteredDiagram(cat, (a, a, a, a), tuple(arrows))


def _retract_diagram(rng: random.Random) -> FilteredDiagram:
    # one object, one idempotent: filtered because the idempotent equalizes
    # itself with the identity
    a = random_gamma_action(rng, 25)
    u = gamma_union([a, a])
    collapse = _fold_map(a, u, u.carrier)
    cat = FiniteCategory(
        n_objects=1, src=(0, 0), tgt=(0, 0), id_of=(0,),
        comp={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
    )
    arrows = (
        EquivariantMap(identity_map(u.carrier), u, u),
        EquivariantMap(collapse, u, u),
    )
    return FilteredDiagram(cat, (u,), arrows)


def _fold_diagram(rng: random.Random) -> FilteredDiagram:
    # two parallel inclusions into a double, equalized by the fold back onto
    # the left copy
    a = random_gamma_action(rng, 25)
    u = gamma_union([a, a])
    n, k = a.carrier.n_objects, a.carrier.n_morphisms
    incl_left = _inclusion_map(a, u)
    incl_right = GroupoidMap(a.carrier, u.carrier,
                             tuple(n + x for x in range(n)),
                             tuple(k + m for m in range(k)))
    fold_left = _fold_map(a, u, u.carrier)
    cat = FiniteCategory(
        n_objects=2,
        src=(0, 1, 0, 0, 1),
        tgt=(0, 1, 1, 1, 1),
        id_of=(0, 1),
        comp={
            (0, 0): 0, (0, 2): 2, (0, 3): 3,
            (1, 1): 1, (1, 4): 4,
            (2, 1): 2, (2, 4): 2,
            (3, 1): 3, (3, 4): 2,
            (4, 1): 4, (4, 4): 4,
        },
    )
    arrows = (
        EquivariantMap(identity_map(a.carrier), a, a),
        EquivariantMap(identity_map(u.carrier), u, u),
        EquivariantMap(incl_left, a, u),
        EquivariantMap(incl_right, a, u),
        EquivariantMap(fold_left, u, u),
    )
    return FilteredDiagram(cat, (a, u), arrows)


def random_filtered_diagram(rng: random.Random) -> FilteredDiagram:
    shape = rng.randrange(4)
    if shape == 0:
        return _chain_diagram(rng)
    if shape == 1:
        return _bar_power_diagram(rng)
    if shape == 2:
        return _retract_diagram(rng)
    return _fold_diagram(rng)


def nonfiltered_control_diagram() -> FilteredDiagram:
    """Two parallel arrows with no equalizer: the index is not filtered.

    Both nodes are two-point sets with the swap involution and the two maps
    differ by the swap, so the colimit collapses to a single fixable point
    while neither node has any fixed point datum at all.  Fixed points of the
    colimit: one object.  Colimit of the fixed points: empty.
    """
    x0 = set_as_groupoid((1, 0), ("a", "abar"))
    x1 = set_as_groupoid((1, 0), ("p", "q"))
    cat = FiniteCategory(
        n_objects=2,
        src=(0, 1, 0, 0),
        tgt=(0, 1, 1, 1),
        id_of=(0, 1),
        comp={(0, 0): 0, (1, 1): 1, (0, 2): 2, (0, 3): 3, (2, 1): 2, (3, 1): 3},
    )
    straight = GroupoidMap(x0.carrier, x1.carrier, (0, 1), (0, 1))
    twisted = GroupoidMap(x0.carrier, x1.carrier, (1, 0), (1, 0))
    arrows = (
        EquivariantMap(identity_map(x0.carrier), x0, x0),
        EquivariantMap(identity_map(x1.carrier), x1, x1),
        EquivariantMap(straight, x0, x1),
        EquivariantMap(twisted, x0, x1),
    )
    return FilteredDiagram(cat, (x0, x1), arrows)


def random_site(rng: random.Random) -> FiniteSite:
    """A random finite space on two to five points.

    Opens are the lattice generated by the principal down-sets of a random
    partial order; a redraw keeps the lattice small.
    """
    n = rng.randint(2, 5)
    labels = tuple("abcde"[:n])
    for _ in range(40):
        below = {t: {t} for t in range(n)}
        for j in range(n):
            for i in range(j):
                if rng.random() < 0.5:
                    below[j] |= below[i]
        opens = {frozenset(), frozenset(range(n))}
        opens.update(frozenset(below[t]) for t in range(n))
        changed = True
        while changed:
            changed = False
            cur = list(opens)
            for x in cur:
                for y in cur:
                    for z in (x | y, x & y):
                        if z not in opens:
                            opens.add(z)
                            changed = True
        if len(opens) <= 14:
            return site_from_open_sets(labels, opens)
    chain = [frozenset(range(k)) for k in range(n + 1)]
    return site_from_open_sets(labels, chain)


def constant_presheaf_action(site: FiniteSite, a: GammaAction) -> PresheafGammaAction:
    x = constant_presheaf(site, a.carrier)
    return PresheafGammaAction(x, tuple(a for _ in site.opens()))


def skyscraper_presheaf_action(site: FiniteSite, t: int, a: GammaAction) -> PresheafGammaAction:
    """The value a on opens containing the point t, collapsed to the point
    everywhere else."""
    point = trivial_action(terminal_groupoid())
    ut = site.point_open[t]
    secs = [a if site.is_leq(ut, u) else point for u in site.opens()]
    res = {}
    for (u, v) in site.comparable_pairs():
        if secs[u] is a and secs[v] is a:
            res[(u, v)] = identity_map(a.carrier)
        elif secs[u] is a:
            res[(u, v)] = GroupoidMap(a.carrier, point.carrier,
                                      (0,) * a.carrier.n_objects,
                                      (0,) * a.carrier.n_morphisms)
        elif secs[v] is not point:
            # v below u and t in v would force t in u
            raise InvariantViolation(
                f"open {v} contains point {t} but lies below open {u}, which does not")
        else:
            res[(u, v)] = identity_map(point.carrier)
    x = GroupoidPresheaf(site=site, sections=tuple(s.carrier for s in secs), res=res)
    return PresheafGammaAction(x, tuple(secs))


def _union_presheaf_action(p: PresheafGammaAction, q: PresheafGammaAction) -> PresheafGammaAction:
    site = p.presheaf.site
    at = tuple(gamma_union([p.at[u], q.at[u]]) for u in site.opens())
    res = {}
    for (u, v) in site.comparable_pairs():
        # on the section objects, not equal copies, as a loaded document has
        # them: checking a restriction's endpoints then compares no tables
        f = disjoint_union_map([p.presheaf.res[(u, v)], q.presheaf.res[(u, v)]])
        res[(u, v)] = GroupoidMap(at[u].carrier, at[v].carrier, f.obj_map, f.mor_map)
    x = GroupoidPresheaf(site=site, sections=tuple(a.carrier for a in at), res=res)
    return PresheafGammaAction(x, at)


def random_presheaf_action(rng: random.Random) -> PresheafGammaAction:
    site = random_site(rng)
    parts = []
    for _ in range(rng.randint(1, 2)):
        a = random_gamma_action(rng, 12)
        if rng.random() < 0.5:
            parts.append(constant_presheaf_action(site, a))
        else:
            parts.append(skyscraper_presheaf_action(site, rng.randrange(site.n_points), a))
    out = parts[0]
    for part in parts[1:]:
        out = _union_presheaf_action(out, part)
    return out


def random_sectionwise_map(rng: random.Random) -> PresheafMap:
    """A presheaf map that is sectionwise a weak equivalence or sectionwise a
    fibration, for checking that sectionwise implies local."""
    site = random_site(rng)
    kind = rng.randrange(3)
    if kind < 2:
        e = random_equivariant_weq(rng) if kind == 0 else random_equivariant_fibration(rng)
        dom = constant_presheaf(site, e.map.dom)
        cod = constant_presheaf(site, e.map.cod)
        return PresheafMap(dom, cod, tuple(e.map for _ in site.opens()))
    a = _random_group_with_involution(rng, 6)
    e = eg_gamma_action(a.group, a.bar)
    t = rng.randrange(site.n_points)
    dom = constant_presheaf(site, e.carrier)
    sky = skyscraper_presheaf_action(site, t, e)
    n, m = e.carrier.n_objects, e.carrier.n_morphisms
    collapse = GroupoidMap(e.carrier, terminal_groupoid(), (0,) * n, (0,) * m)
    at = tuple(
        identity_map(e.carrier) if site.is_leq(site.point_open[t], u) else collapse
        for u in site.opens()
    )
    return PresheafMap(dom, sky.presheaf, at)


def _sierpinski_skyscraper_at_bottom(value: FiniteGroupoid) -> GroupoidPresheaf:
    # value only over the empty open, the point everywhere else; stalks
    # never see the empty open, so maps out of this presheaf are invisible
    # locally
    site = sierpinski_site()
    t = terminal_groupoid()
    sections = (value, t, t)
    into_value = GroupoidMap(t, value, (0,), (value.id_of[0],))
    res = {(1, 0): into_value, (2, 0): into_value, (2, 1): identity_map(t)}
    return GroupoidPresheaf(site=site, sections=sections, res=res)


def local_not_sectionwise_weq() -> PresheafMap:
    """An isomorphism on every stalk that fails to be a weak equivalence on
    the section at the empty open."""
    site = sierpinski_site()
    bz2 = build_bg(cyclic_group(2))
    x = _sierpinski_skyscraper_at_bottom(bz2)
    y = terminal_presheaf(site)
    t = terminal_groupoid()
    at = (GroupoidMap(bz2, t, (0,), (0, 0)), identity_map(t), identity_map(t))
    return PresheafMap(x, y, at)


def local_not_sectionwise_fib() -> PresheafMap:
    """An isomorphism on every stalk that fails to be a fibration on the
    section at the empty open."""
    site = sierpinski_site()
    bz2 = build_bg(cyclic_group(2))
    x = terminal_presheaf(site)
    y = _sierpinski_skyscraper_at_bottom(bz2)
    t = terminal_groupoid()
    at = (GroupoidMap(t, bz2, (0,), (0,)), identity_map(t), identity_map(t))
    return PresheafMap(x, y, at)
