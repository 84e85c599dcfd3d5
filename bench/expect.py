"""Independent expectations for the ladder rungs.

Nothing here imports or calls ``grpd``.  Groups are permutation tuples
built from scratch, and the checks read only the plain tables (``src``,
``tgt``, object and morphism maps) of the objects the library returns.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def transposition(n: int, i: int, j: int) -> tuple[int, ...]:
    p = list(range(n))
    p[i], p[j] = p[j], p[i]
    return tuple(p)


def lex_index(p: tuple[int, ...]) -> int:
    """Position of p among all permutations of its degree in lexicographic
    order, the element numbering of ``symmetric_group``."""
    return sorted(itertools.permutations(range(len(p)))).index(p)


def _mul(p, q):
    """p * q, applying q first."""
    return tuple(p[q[i]] for i in range(len(q)))


def _inv(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def twisted_orbit_count(n: int, t: tuple[int, ...]) -> int:
    """Orbits of h . s = bar(h) s h^-1 on {s : s bar(s) = e}, where bar is
    conjugation by the transposition t in S_n, counted by brute force."""
    group = list(itertools.permutations(range(n)))
    bar = {g: _mul(_mul(t, g), t) for g in group}
    e = tuple(range(n))
    cocycles = {s for s in group if _mul(s, bar[s]) == e}
    orbits = 0
    while cocycles:
        s = cocycles.pop()
        orbits += 1
        for h in group:
            cocycles.discard(_mul(_mul(bar[h], s), _inv(h)))
    return orbits


def _components(n_objects, src, tgt):
    parent = list(range(n_objects))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(src, tgt):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return [find(x) for x in range(n_objects)]


def cardinality(n_objects, src, tgt) -> Fraction:
    """Sum over components of 1/|Aut(x)|, from the source and target tables."""
    comp = _components(n_objects, src, tgt)
    aut = {}
    for a, b in zip(src, tgt):
        if a == b:
            aut[a] = aut.get(a, 0) + 1
    reps = {}
    for x, c in enumerate(comp):
        reps.setdefault(c, x)
    return sum((Fraction(1, aut[x]) for x in reps.values()), Fraction(0))


def is_fibration(dom_src, obj_map, mor_map, cod_src, n_dom_objects) -> bool:
    """Every arrow out of f(x) lifts to an arrow out of x."""
    lifts = set(zip(dom_src, mor_map))
    out_of = {}
    for m, s in enumerate(cod_src):
        out_of.setdefault(s, []).append(m)
    return all((x, m) in lifts
               for x in range(n_dom_objects)
               for m in out_of.get(obj_map[x], ()))


def is_weak_equivalence(dom, cod, obj_map, mor_map) -> bool:
    """Fully faithful and essentially surjective; dom and cod are
    (n_objects, src, tgt) triples."""
    dn, dsrc, dtgt = dom
    cn, csrc, ctgt = cod
    image = {}
    for k, m in enumerate(mor_map):
        image.setdefault((dsrc[k], dtgt[k]), []).append(m)
    cod_hom = {}
    for m in range(len(csrc)):
        cod_hom.setdefault((csrc[m], ctgt[m]), []).append(m)
    for x in range(dn):
        for y in range(dn):
            got = image.get((x, y), [])
            want = cod_hom.get((obj_map[x], obj_map[y]), [])
            if len(set(got)) != len(got) or sorted(got) != sorted(want):
                return False
    comp = _components(cn, csrc, ctgt)
    hit = {comp[obj_map[x]] for x in range(dn)}
    return all(c in hit for c in comp)


def eg_rung(n: int) -> dict:
    """hfp of EG(S_n) under any involution: the translation groupoid is
    indiscrete, so every object has exactly one fixed-point structure."""
    k = math.factorial(n)
    return {"objects": k, "morphisms": k * k, "cardinality": Fraction(1),
            "fibration": True}
