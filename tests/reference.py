"""Naive references, one per routine of ``grpd`` that has an optimised path.

Each is written from the definition that the routine's docstring states,
with nested loops over every element, pair or triple and full tables, so
that a differential test compares the routine with something plainly
correct.  Where a reference also pins what the definition leaves open, an
order or a message, its docstring says which.  The references of
constructions return groupoids by table whose labels are rules, so that a
reference reads no label until a test asks for them.
"""

import itertools
import json
from itertools import combinations, permutations
from typing import NamedTuple

import pytest

from grpd import gamma, jsonio
from grpd.cohomology import bg_gamma_action, h1
from grpd.colimit import GroupoidColimit, NotFilteredError
from grpd.core import (FiniteGroupoid, GroupoidMap, InvariantViolation, automorphism_group,
                       build_action_groupoid, build_bg, components, identity_map, union_offsets,
                       validate_functor)
from grpd.gamma import (GammaAction, HfpObject, equivariance_witness, hfp_map,
                        validate_gamma_action)
from grpd.groups import FiniteGroup, GroupAction, _from_table, _perm_label, is_subgroup
from grpd.presheaf import stalk
from grpd.twisted import TwistedOrbit


def classes(n, pairs):
    """The class of each of 0..n-1 under the equivalence relation generated
    by ``pairs``, classes numbered in order of their least member."""
    least = list(range(n))
    for x, y in pairs:
        a, b = sorted((least[x], least[y]))
        if a != b:
            least = [a if c == b else c for c in least]
    number = {c: i for i, c in enumerate(sorted(set(least)))}
    return [number[c] for c in least]


def descend(n, class_maps, values):
    """The table on n classes that gives each class the common value of its
    members: item x of node i lies in class ``class_maps[i][x]`` and has the
    value ``values[i][x]``.  Members that disagree raise
    ``InvariantViolation``."""
    table = {}
    for cs, vs in zip(class_maps, values):
        for c, v in zip(cs, vs):
            if table.setdefault(c, v) != v:
                raise InvariantViolation(f"not well-defined on class {c}")
    return tuple(table[c] for c in range(n))


# ---------------------------------------------------------------------------
# groups


def is_automorphism(g, f):
    """``groups.is_automorphism``: f is a bijection onto the elements with
    f(a*b) = f(a)*f(b) for every a and b."""
    t = g.table
    return sorted(f) == list(g.elements()) and all(
        f[t[a][b]] == t[f[a]][f[b]] for a in g.elements() for b in g.elements())


def symmetric_group(n):
    """``groups.symmetric_group``: the permutations of 0..n-1 in
    lexicographic order, p*q applying q first, every entry of the table
    composed, the identity and the inverses searched for by
    ``groups._from_table``."""
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms) for p in perms
    )
    return _from_table(table, f"S{n}", tuple(_perm_label(p) for p in perms))


def direct_product(a, b):
    """``groups.direct_product``: (x, y) numbered x * b.order + y, one pair
    of products per entry."""
    nb = b.order
    return FiniteGroup(
        table=tuple(tuple(a.mul(x1, x2) * nb + b.mul(y1, y2)
                          for x2 in a.elements() for y2 in b.elements())
                    for x1 in a.elements() for y1 in b.elements()),
        identity=a.identity * nb + b.identity,
        inv_table=tuple(a.inv(x) * nb + b.inv(y) for x in a.elements() for y in b.elements()),
        name=f"{a.name}x{b.name}",
        labels=tuple(f"({a.label(x)},{b.label(y)})" for x in a.elements() for y in b.elements()),
    )


def induced_subgroup(g, elements):
    """``groups.induced_subgroup``: ``is_subgroup`` first, then one product
    at a time through the index of the embedding; this pins the message of
    the ``ValueError``."""
    emb = tuple(sorted(set(elements)))
    if not is_subgroup(g, emb):
        raise ValueError(f"{emb} is not a subgroup of {g.name}")
    index = {a: i for i, a in enumerate(emb)}
    sub = FiniteGroup(
        table=tuple(tuple(index[g.mul(a, b)] for b in emb) for a in emb),
        identity=index[g.identity],
        inv_table=tuple(index[g.inv(a)] for a in emb),
        name=f"{g.name}<{len(emb)}>",
        labels=tuple(g.label(a) for a in emb),
    )
    return sub, emb


def conjugation_automorphism(g, s):
    """``groups.conjugation_automorphism``: x -> s*x*s^-1."""
    return tuple(g.mul(g.mul(s, x), g.inv(s)) for x in g.elements())


def subgroups(g):
    """Every subgroup of ``g``, in order of size, then of its elements,
    found by checking every subset."""
    return [s for k in range(1, g.order + 1) for s in combinations(g.elements(), k)
            if g.identity in s
            and all(g.mul(a, b) in s and g.inv(a) in s for a in s for b in s)]


def involutive_automorphisms(g):
    """Every involutive automorphism of ``g``: the automorphisms that square
    to the identity, among the permutations fixing the identity."""
    e = g.identity
    rest = [a for a in g.elements() if a != e]
    fs = ((*images[:e], e, *images[e:]) for images in permutations(rest))
    return [f for f in fs if all(f[f[a]] == a for a in rest) and is_automorphism(g, f)]


# ---------------------------------------------------------------------------
# categories and groupoids


def category_report(c, inv=None):
    """``core._category_report``, every pair and triple of morphisms scanned.
    ``c`` needs ``n_objects``, ``src``, ``tgt``, ``id_of`` and ``comp``.  This
    pins the order of the lines and their messages: table shapes, the range
    of every composition entry, identities, non-composable and missing
    composites (any of these ends the report), unit laws, the inverse laws
    of ``inv`` if given, associativity."""
    n, m = c.n_objects, len(c.src)
    src, tgt, id_of, comp = c.src, c.tgt, c.id_of, c.comp
    if len(tgt) != m or len(id_of) != n:
        return ["shape: src/tgt/id tables have inconsistent lengths"]
    if any(not 0 <= x < n for x in src) or any(not 0 <= x < n for x in tgt):
        return ["shape: src/tgt entry out of range"]
    if any(not 0 <= k < m for k in id_of):
        return ["shape: id entry out of range"]
    for (m1, m2), m3 in comp.items():
        if not (0 <= m1 < m and 0 <= m2 < m and 0 <= m3 < m):
            return [f"composition-domain: entry ({m1},{m2}) out of range"]
    report = [f"identity: id_of[{x}] is not an endomorphism of {x}"
              for x in range(n) if src[id_of[x]] != x or tgt[id_of[x]] != x]
    for (m1, m2), m3 in comp.items():
        if tgt[m1] != src[m2]:
            report.append(f"composition-domain: ({m1},{m2}) is not composable")
        elif src[m3] != src[m1] or tgt[m3] != tgt[m2]:
            report.append(f"composition: comp({m1},{m2}) has wrong endpoints")
    pairs = [(a, b) for a in range(m) for b in range(m) if tgt[a] == src[b]]
    report += [f"composition-domain: missing entry for ({a},{b})"
               for a, b in pairs if (a, b) not in comp]
    if report:
        return report
    for k in range(m):
        if comp[id_of[src[k]], k] != k:
            report.append(f"unit: id . {k} != {k}")
        if comp[k, id_of[tgt[k]]] != k:
            report.append(f"unit: {k} . id != {k}")
    for k in range(m) if inv is not None else ():
        if src[inv[k]] != tgt[k] or tgt[inv[k]] != src[k]:
            report.append(f"inverse: inv({k}) has wrong endpoints")
            continue
        if comp[k, inv[k]] != id_of[src[k]]:
            report.append(f"inverse: {k} then inv({k}) is not the identity")
        if comp[inv[k], k] != id_of[tgt[k]]:
            report.append(f"inverse: inv({k}) then {k} is not the identity")
    report += [f"associativity: ({a},{b},{d})" for a, b in pairs for d in range(m)
               if tgt[b] == src[d] and comp[comp[a, b], d] != comp[a, comp[b, d]]]
    return report


def validate_groupoid(g):
    """``core.validate_groupoid``: label tables of the wrong length, the
    shape of ``inv``, then ``category_report`` with ``inv``."""
    report = [f"labels: {name} has {len(labels)} entries, expected {size}"
              for name, labels, size in (("obj_labels", g.obj_labels, g.n_objects),
                                         ("mor_labels", g.mor_labels, g.n_morphisms))
              if labels is not None and len(labels) != size]
    m = g.n_morphisms
    if len(g.inv) != m:
        return report + ["shape: inv table has the wrong length"]
    if any(not 0 <= k < m for k in g.inv):
        return report + ["shape: inv entry out of range"]
    return report + category_report(g, g.inv)


def out_of(g):
    """``FiniteCategory.out_of``: the arrows out of each object, in
    increasing order, found by scanning ``src``."""
    rows = [[] for _ in g.objects()]
    for k, x in enumerate(g.src):
        rows[x].append(k)
    return [tuple(row) for row in rows]


def hom(c, x, y):
    """``FiniteCategory.hom``: the arrows x -> y in increasing order, found
    by scanning every arrow."""
    return tuple(u for u in range(len(c.src)) if c.src[u] == x and c.tgt[u] == y)


def action_groupoid(a):
    """``core.build_action_groupoid``: an arrow (g, x) from x to g.x, numbered
    g * n_points + x, with (g, x) then (h, g.x) equal to (hg, x); labels
    "g.p"."""
    grp, n = a.group, a.n_points
    arrows = [(g, x) for g in grp.elements() for x in range(n)]
    points = [a.point_label(x) for x in range(n)]
    return FiniteGroupoid(
        n, [x for _, x in arrows], [a.act(g, x) for g, x in arrows],
        [grp.identity * n + x for x in range(n)],
        [grp.inv(g) * n + a.act(g, x) for g, x in arrows],
        {(g * n + x, h * n + a.act(g, x)): grp.mul(h, g) * n + x
         for g, x in arrows for h in grp.elements()},
        obj_labels=lambda: points,
        mor_labels=lambda: [f"{grp.label(g)}.{points[x]}" for g, x in arrows])


def product(g, h):
    """``core.product``: object (x, y) numbered x * h.n_objects + y, morphism
    (m, k) numbered m * h.n_morphisms + k, every table coordinatewise; labels
    "(a,b)"."""
    no, nm = h.n_objects, h.n_morphisms
    pairs = [(m, k) for m in g.morphisms() for k in h.morphisms()]
    return FiniteGroupoid(
        g.n_objects * no, [g.src[m] * no + h.src[k] for m, k in pairs],
        [g.tgt[m] * no + h.tgt[k] for m, k in pairs],
        [g.id_of[x] * nm + h.id_of[y] for x in g.objects() for y in h.objects()],
        [g.inv[m] * nm + h.inv[k] for m, k in pairs],
        {(a1 * nm + b1, a2 * nm + b2): a3 * nm + b3
         for (a1, a2), a3 in g.comp.items() for (b1, b2), b3 in h.comp.items()},
        obj_labels=lambda: [f"({g.obj_label(x)},{h.obj_label(y)})"
                            for x in g.objects() for y in h.objects()],
        mor_labels=lambda: [f"({g.mor_label(m)},{h.mor_label(k)})" for m, k in pairs])


def disjoint_union(gs):
    """``core.disjoint_union``: the summands side by side, each one's ids
    shifted by the sizes of those before it; labels the summands'."""
    src, tgt, id_of, inv, comp = [], [], [], [], {}
    o = m = 0
    for g in gs:
        src += [o + x for x in g.src]
        tgt += [o + x for x in g.tgt]
        id_of += [m + k for k in g.id_of]
        inv += [m + k for k in g.inv]
        comp.update({(m + a, m + b): m + c for (a, b), c in g.comp.items()})
        o, m = o + g.n_objects, m + g.n_morphisms
    return FiniteGroupoid(
        o, src, tgt, id_of, inv, comp,
        obj_labels=lambda: [g.obj_label(x) for g in gs for x in g.objects()],
        mor_labels=lambda: [g.mor_label(k) for g in gs for k in g.morphisms()])


def enumerate_functors(a, b, cap):
    """``suites.enumerate_functors`` by generate and test, in the same order:
    every morphism assignment inside the hom-sets of each object map, if
    there are at most ``cap`` of them, filtered by ``validate_functor``."""
    if a.n_objects == 0:
        yield GroupoidMap(a, b, (), ())
        return
    if b.n_objects == 0:
        return
    for combo in itertools.product(range(b.n_objects), repeat=a.n_objects):
        obj_map = tuple(combo)
        choices = [b.hom(obj_map[a.src[m]], obj_map[a.tgt[m]]) for m in a.morphisms()]
        size = 1
        for ch in choices:
            size *= len(ch)
            if size == 0 or size > cap:
                break
        if size == 0 or size > cap:
            continue
        for assignment in itertools.product(*choices):
            f = GroupoidMap(a, b, obj_map, tuple(assignment))
            if not validate_functor(f):
                yield f


# ---------------------------------------------------------------------------
# fixed points


def eg_bar_mor(theta):
    """``corpus.eg_gamma_action``'s bar on morphisms: theta on the group
    coordinate and on the point of each arrow (g, x) of EG(G)."""
    n = len(theta)
    return tuple(theta[m // n] * n + theta[m % n] for m in range(n * n))


class FixedPoints(NamedTuple):
    objects: tuple
    groupoid: FiniteGroupoid
    underlying: tuple


def hfp(a):
    """``gamma.hfp``, one checked ``compose`` of the carrier per pair: the
    objects (x, phi) with phi: x -> bar(x) and bar(phi) = inv(phi), in order
    of (x, phi); one arrow (x, phi) -> (x1, phi1) over each alpha: x -> x1
    with alpha then phi1 equal to phi then bar(alpha), numbered by source,
    target and alpha; identities, inverses and composites the arrows over
    the carrier's.  Labels "(x,phi)" and the carrier's morphism labels.

    This is ``hfp`` as it was before it read rows, kept because it pins what
    the definition leaves open on a carrier that is not a groupoid: the
    ``InvariantViolation`` for an arrow that lifts to two fixed points, and
    for the first missing composite or arrow, walking each fixed point's
    arrows into each base, then identities, inverses and composable pairs."""
    g, bar = a.carrier, a.bar_mor
    objs = [HfpObject(x, phi) for x in g.objects() for phi in g.hom(x, a.bar_obj[x])
            if bar[phi] == g.inv[phi]]
    bases = sorted({o.base for o in objs})
    src, tgt, under, lifts = [], [], [], [{} for _ in objs]
    try:
        for i, o in enumerate(objs):
            for base in bases:
                alphas = g.hom(o.base, base)
                twisted = [g.compose(o.phi, bar[alpha]) for alpha in alphas]
                for j, o1 in enumerate(objs):
                    for alpha, rhs in zip(alphas, twisted):
                        if o1.base != base or g.compose(alpha, o1.phi) != rhs:
                            continue
                        if alpha in lifts[i]:
                            raise InvariantViolation(f"arrow {alpha} out of fixed point {i} "
                                                     "reaches two fixed points: the carrier "
                                                     "is not a groupoid")
                        lifts[i][alpha] = len(src)
                        src.append(i)
                        tgt.append(j)
                        under.append(alpha)
        id_of = [lifts[i][g.id_of[o.base]] for i, o in enumerate(objs)]
        inv = [lifts[j][g.inv[alpha]] for j, alpha in zip(tgt, under)]
        comp = {(m1, m2): lifts[src[m1]][g.compose(under[m1], under[m2])]
                for m1 in range(len(src)) for m2 in lifts[tgt[m1]].values()}
    except KeyError as exc:
        raise InvariantViolation(f"no fixed-point arrow or composite over {exc.args[0]}: "
                                 "the carrier is not a groupoid") from exc
    groupoid = FiniteGroupoid(
        len(objs), src, tgt, id_of, inv, comp,
        obj_labels=lambda: [f"({g.obj_label(o.base)},{g.mor_label(o.phi)})" for o in objs],
        mor_labels=lambda: [g.mor_label(k) for k in under])
    return FixedPoints(tuple(objs), groupoid, tuple(under))


# ---------------------------------------------------------------------------
# twisted conjugation and its cohomology


def twisted_orbits(g, theta, b_elements):
    """``twisted.twisted_orbits``: the cocycles z, with z*theta(z) the
    identity, split into the orbits of z -> theta(b)*z*b^-1 over the b in
    B.  Orbits come in order of their least member, which is the
    representative; members and the stabilizer, the b fixing the
    representative, in increasing order.  With B = G these are the classes
    of ``cohomology.h1``."""
    z = [x for x in g.elements() if g.mul(x, theta[x]) == g.identity]
    bs = sorted(set(b_elements))

    def act(b, x):
        return g.mul(g.mul(theta[b], x), g.inv(b))

    index = {x: i for i, x in enumerate(z)}
    cls = classes(len(z), [(index[x], index[act(b, x)]) for x in z for b in bs])
    orbits = [[x for x, c in zip(z, cls) if c == k] for k in range(len(set(cls)))]
    return [TwistedOrbit(o[0], tuple(o), tuple(b for b in bs if act(b, o[0]) == o[0]))
            for o in orbits]


def z1_theta(d):
    """``twisted.z1_theta``: the cocycles, the embedding of B and the
    twisted conjugation table, one product at a time; this pins the messages
    of what it raises."""
    g = d.group
    elements = tuple(x for x in g.elements() if g.mul(x, d.theta[x]) == g.identity)
    index = {x: i for i, x in enumerate(elements)}
    emb = tuple(sorted(set(d.b_elements)))
    if len(emb) < g.order:
        induced_subgroup(g, emb)  # the subgroup check
    act_rows = []
    for b in emb:
        row = []
        for x in elements:
            y = g.mul(g.mul(d.theta[b], x), g.inv(b))
            if y not in index:
                raise InvariantViolation(
                    f"twisted conjugate {y} of cocycle {x} is not a cocycle")
            row.append(index[y])
        act_rows.append(tuple(row))
    return elements, emb, tuple(act_rows)


def double_coset(d):
    """``twisted._double_coset``: the action table of B x B on G by
    (b1, b2).x = b1*x*b2^-1, and the bar tables on objects and arrows, one
    product at a time."""
    g = d.group
    bgrp, emb = induced_subgroup(g, d.b_elements)
    nb = bgrp.order
    act_table = tuple(
        tuple(g.mul(g.mul(emb[i], x), g.inv(emb[j])) for x in g.elements())
        for i in range(nb) for j in range(nb)
    )
    b_index = {emb[i]: i for i in range(nb)}
    theta_local = tuple(b_index[d.theta[emb[i]]] for i in range(nb))
    bar_obj = tuple(d.theta[g.inv(x)] for x in g.elements())
    bar_mor = []
    for p in range(nb * nb):
        i, j = divmod(p, nb)
        bar_pair = theta_local[j] * nb + theta_local[i]
        for x in g.elements():
            bar_mor.append(bar_pair * g.order + bar_obj[x])
    return act_table, bar_obj, tuple(bar_mor)


def xy_isomorphism(d):
    """``twisted.xy_isomorphism``: X, Y, the maps between them and the two
    action tables of B x B, one product at a time; this pins the messages of
    what it raises."""
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
    xs, ys = tuple(sorted(xs)), tuple(sorted(ys))
    x_index = {t: i for i, t in enumerate(xs)}
    y_index = {t: i for i, t in enumerate(ys)}
    forward = []
    for (b1, b2, x) in xs:
        if (b1, x) not in y_index:
            raise InvariantViolation(f"image {(b1, x)} of X element is not in Y")
        forward.append(y_index[b1, x])
    backward = []
    for (b, x) in ys:
        key = (b, theta[g.inv(b)], x)
        if key not in x_index:
            raise InvariantViolation(f"image {key} of Y element is not in X")
        backward.append(x_index[key])
    if any(backward[forward[i]] != i for i in range(len(xs))):
        raise InvariantViolation("forward then backward is not the identity on X")
    if any(forward[backward[i]] != i for i in range(len(ys))):
        raise InvariantViolation("backward then forward is not the identity on Y")
    x_rows, y_rows = [], []
    for beta1 in bset:
        for beta2 in bset:
            xrow = []
            for (b1, b2, x) in xs:
                t = (g.mul(g.mul(theta[beta2], b1), g.inv(beta1)),
                     g.mul(g.mul(theta[beta1], b2), g.inv(beta2)),
                     g.mul(g.mul(beta1, x), g.inv(beta2)))
                if t not in x_index:
                    raise InvariantViolation(f"X is not closed under the action at {t}")
                xrow.append(x_index[t])
            x_rows.append(tuple(xrow))
            yrow = []
            for (b, x) in ys:
                t = (g.mul(g.mul(theta[beta2], b), g.inv(beta1)),
                     g.mul(g.mul(beta1, x), g.inv(beta2)))
                if t not in y_index:
                    raise InvariantViolation(f"Y is not closed under the action at {t}")
                yrow.append(y_index[t])
            y_rows.append(tuple(yrow))
    for p in range(len(bset) ** 2):
        if any(forward[x_rows[p][i]] != y_rows[p][forward[i]] for i in range(len(xs))):
            raise InvariantViolation("forward map is not equivariant")
    return xs, ys, tuple(forward), tuple(backward), tuple(x_rows), tuple(y_rows)


def parameter_fibration(d):
    """The object and arrow tables of ``twisted.parameter_fibration``'s
    map, built from the references of the double coset action, the cocycles
    and the pair presentation; this pins the messages of what it raises."""
    g = d.group
    act_table, bar_obj, bar_mor = double_coset(d)
    bgrp, emb = induced_subgroup(g, d.b_elements)
    nb = bgrp.order
    action = GroupAction(direct_product(bgrp, bgrp), g.order, act_table)
    fp = gamma.hfp(GammaAction(build_action_groupoid(action), bar_obj, bar_mor))
    elements, _, z_rows = z1_theta(d)
    z_index = {x: i for i, x in enumerate(elements)}
    _, ys, _, _, _, y_rows = xy_isomorphism(d)
    e = bgrp.identity
    for j in range(nb):
        for yi in range(len(ys)):
            if j != e and y_rows[e * nb + j][yi] == yi:
                raise InvariantViolation(
                    f"subgroup element {emb[j]} fixes the pair {ys[yi]}")
    obj_map = []
    for o in fp.objects:
        pair, base = divmod(o.phi, g.order)
        if base != o.base:
            raise InvariantViolation(f"fixed point at {o.base} has phi starting at {base}")
        obj_map.append(z_index[g.mul(emb[pair // nb], o.base)])
    mor_map = tuple(
        (fp.underlying[m] // g.order) % nb * len(elements) + obj_map[fp.groupoid.src[m]]
        for m in fp.groupoid.morphisms())
    return tuple(obj_map), mor_map


def union_map(summands, targets, morphisms):
    """The map out of ``disjoint_union(summands)`` as ``bg_hfp_decomposition``
    and ``skeletonize`` built it, summand by summand through the offsets:
    ``(source, obj_map, mor_map)``."""
    source = disjoint_union(summands)
    obj_off, mor_off = union_offsets(summands)
    obj_map = [0] * source.n_objects
    mor_map = [0] * source.n_morphisms
    for i, (x, mors) in enumerate(zip(targets, morphisms)):
        obj_map[obj_off[i]] = x
        for k, mor in enumerate(mors):
            mor_map[mor_off[i] + k] = mor
    return source, tuple(obj_map), tuple(mor_map)


def decomposition_map(a):
    """``cohomology.bg_hfp_decomposition``'s map: BG of the stabilizer of
    each class of ``h1`` into the fixed points, at the class's
    representative."""
    fp = gamma.hfp(bg_gamma_action(a))
    summands, targets, morphisms = [], [], []
    for cls in h1(a):
        sub, emb = induced_subgroup(a.group, cls.stabilizer)
        summands.append(build_bg(sub))
        targets.append(fp.object_id(0, cls.representative))
        morphisms.append([fp.morphism_id(targets[-1], g) for g in emb])
    return union_map(summands, targets, morphisms)


def skeleton_map(g):
    """``cohomology.skeletonize``'s map: BG of Aut(r) at the least object r
    of each component."""
    summands, targets, morphisms = [], [], []
    for cls in components(g):
        grp, mors = automorphism_group(g, cls[0])
        summands.append(build_bg(grp))
        targets.append(cls[0])
        morphisms.append(mors)
    return union_map(summands, targets, morphisms)


# ---------------------------------------------------------------------------
# colimits


def filtered_witness(c):
    """``colimit.filtered_witness``: None if c is filtered, else the first
    failure, every arrow scanned: no object, a pair of objects with no
    cocone, or a pair of parallel arrows u < v that no arrow w equalizes.
    This pins the messages; a composite missing from ``comp`` raises
    ``KeyError``."""
    objs = range(c.n_objects)
    if not objs:
        return "the index category is empty"
    for i in objs:
        for j in objs:
            if not any(hom(c, i, k) and hom(c, j, k) for k in objs):
                return f"objects {i} and {j} admit no cocone"
    for u in range(len(c.src)):
        for v in hom(c, c.src[u], c.tgt[u]):
            after = [w for w in range(len(c.src)) if c.src[w] == c.tgt[u]]
            if v > u and not any(c.comp[u, w] == c.comp[v, w] for w in after):
                return f"parallel arrows {u} and {v} are never equalized"
    return None


def colimit_groupoids(index, gpds, maps):
    """``colimit.colimit_groupoids`` on maps that are functors: the disjoint
    union of the nodes quotiented along every arrow of the index, each table
    read off every node.  ``NotFilteredError`` names the first composite,
    in node order, that two pairs of classes give apart; a table whose
    members disagree raises ``InvariantViolation``."""
    obj_off = [sum(g.n_objects for g in gpds[:i]) for i in range(len(gpds))]
    mor_off = [sum(g.n_morphisms for g in gpds[:i]) for i in range(len(gpds))]
    moves = [(index.src[u], index.tgt[u], f) for u, f in enumerate(maps)]
    obj_of = classes(sum(g.n_objects for g in gpds), [
        (obj_off[i] + x, obj_off[j] + y) for i, j, f in moves for x, y in enumerate(f.obj_map)])
    mor_of = classes(sum(g.n_morphisms for g in gpds), [
        (mor_off[i] + k, mor_off[j] + l) for i, j, f in moves for k, l in enumerate(f.mor_map)])
    obj_cls = [obj_of[o:o + g.n_objects] for o, g in zip(obj_off, gpds)]
    mor_cls = [mor_of[o:o + g.n_morphisms] for o, g in zip(mor_off, gpds)]
    n_obj, n_mor = len(set(obj_of)), len(set(mor_of))
    tables = (descend(n_mor, mor_cls, [[oc[x] for x in g.src] for oc, g in zip(obj_cls, gpds)]),
              descend(n_mor, mor_cls, [[oc[x] for x in g.tgt] for oc, g in zip(obj_cls, gpds)]),
              descend(n_obj, obj_cls, [[mc[k] for k in g.id_of] for mc, g in zip(mor_cls, gpds)]),
              descend(n_mor, mor_cls, [[mc[k] for k in g.inv] for mc, g in zip(mor_cls, gpds)]))
    comp = {}
    for mc, g in zip(mor_cls, gpds):
        for (m1, m2), m3 in g.compositions():
            key = (mc[m1], mc[m2])
            if comp.setdefault(key, mc[m3]) != mc[m3]:
                raise NotFilteredError(f"composition on classes is not well-defined at {key}",
                                       witness=key)
    colim = FiniteGroupoid(n_obj, *tables, comp)
    return GroupoidColimit(colim, tuple(GroupoidMap(g, colim, tuple(oc), tuple(mc))
                                        for g, oc, mc in zip(gpds, obj_cls, mor_cls)))


def poset_comp(n, leq):
    """The composition of ``colimit._poset_category``, found by scanning
    every pair of arrows for a shared middle object; this pins the insertion
    order of its entries."""
    pairs = [(i, j) for i in range(n) for j in range(n) if leq(i, j)]
    arrow_id = {p: k for k, p in enumerate(pairs)}
    comp = {}
    for (i, j) in pairs:
        for (j2, k) in pairs:
            if j == j2:
                comp[(arrow_id[(i, j)], arrow_id[(j2, k)])] = arrow_id[(i, k)]
    return comp


def validate_diagram(d):
    """``colimit.validate_diagram`` as it was before it decided arrows on
    generators; kept because it pins the messages and their order."""
    report = category_report(d.index)
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


def induced_involution(d, co):
    """The involution of ``colimit.colimit``: on the colimit ``co`` of the
    carriers, the class of x is sent to the class of bar(x), node by node."""
    g = co.groupoid
    return (descend(g.n_objects, [f.obj_map for f in co.cocones],
                    [[f.obj_map[y] for y in a.bar_obj] for f, a in zip(co.cocones, d.nodes)]),
            descend(g.n_morphisms, [f.mor_map for f in co.cocones],
                    [[f.mor_map[k] for k in a.bar_mor] for f, a in zip(co.cocones, d.nodes)]))


def comparison_map(d, co, rhs, fps):
    """The comparison map of ``colimit.hfp_colimit_comparison``, ``co`` the
    colimit of ``d`` and ``rhs`` its fixed points, ``fps`` those of the nodes:
    a fixed point (x, phi) of node i, and an arrow over alpha, go to the
    fixed point and the arrow over their images under the cocone, looked up
    one at a time; ``None`` where a class lands apart or on no fixed point."""
    arrow_maps = [hfp_map(d.arrows[u], fps[d.index.src[u]], fps[d.index.tgt[u]])
                  for u in d.index.morphisms()]
    lhs = colimit_groupoids(d.index, [fp.groupoid for fp in fps], arrow_maps)
    germs = [c.map for c in co.cocones]

    def lookup(find, *key):
        try:
            return find(*key)
        except KeyError:
            return None

    def fixed_object(i, o):
        return lookup(rhs.object_id, germs[i].obj_map[o.base], germs[i].mor_map[o.phi])

    def fixed_morphism(i, m):
        src = obj_map[lhs.cocones[i].obj_map[fps[i].groupoid.src[m]]]
        return lookup(rhs.morphism_id, src, germs[i].mor_map[fps[i].underlying[m]])

    try:
        obj_map = descend(lhs.groupoid.n_objects, [c.obj_map for c in lhs.cocones],
                          [[fixed_object(i, o) for o in fp.objects] for i, fp in enumerate(fps)])
        if None in obj_map:
            return None
        mor_map = descend(lhs.groupoid.n_morphisms, [c.mor_map for c in lhs.cocones],
                          [[fixed_morphism(i, m) for m in fp.groupoid.morphisms()]
                           for i, fp in enumerate(fps)])
    except InvariantViolation:
        return None
    return None if None in mor_map else (obj_map, mor_map)


# ---------------------------------------------------------------------------
# sites and presheaves


def validate_site(s):
    """``presheaf.validate_site`` as it was before meets were read off
    down-sets, for each pair of opens every lower bound against every other;
    kept because it pins the messages and their order."""
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


def validate_presheaf(x):
    """``presheaf.validate_presheaf`` as it was before it decided
    restrictions on covering pairs; kept because it pins the messages and
    their order."""
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


def stalk_map(f, t):
    """``presheaf.stalk_map``: the germ at t of x in the section at an open
    u of the filter goes to the germ of f(x), open by open."""
    sd, sc = stalk(f.dom, t), stalk(f.cod, t)
    gd = [sd.germs[u] for u in sd.opens]
    gc = [sc.germs[u] for u in sd.opens]
    return (descend(sd.groupoid.n_objects, [g.obj_map for g in gd],
                    [[g.obj_map[y] for y in f.at[u].obj_map] for g, u in zip(gc, sd.opens)]),
            descend(sd.groupoid.n_morphisms, [g.mor_map for g in gd],
                    [[g.mor_map[k] for k in f.at[u].mor_map] for g, u in zip(gc, sd.opens)]))


# ---------------------------------------------------------------------------
# documents


def json_text(v) -> str:
    """``jsonio._json_text``: the stdlib's writer, indented by two, keys sorted."""
    return json.dumps(v, indent=2, sort_keys=True) + "\n"


def dumps(obj) -> str:
    """``jsonio.dumps``: the stdlib writer over triples read from ``.comp``,
    which tabulates a rule-backed structure."""
    def fields(c):
        return {
            "n_objects": c.n_objects,
            "src": list(c.src),
            "tgt": list(c.tgt),
            "id_of": list(c.id_of),
            "comp": [[a, b, w] for (a, b), w in sorted(c.comp.items())],
        }

    with pytest.MonkeyPatch.context() as m:
        m.setattr(jsonio, "_dump_category_fields", fields)
        return json_text(jsonio.dump_document(obj))
