"""Small shared helpers."""

from __future__ import annotations

from typing import Callable, Sequence

__all__ = ["UnionFind"]


def _generators(src: Sequence[int], tgt: Sequence[int], out_of: Sequence[Sequence[int]],
                each: Callable[[int, Sequence[int]], list], units: Sequence[int] = ()) -> list[int]:
    """Generating arrows, in increasing order: every arrow not in ``units``
    is a composite of one or more generators, and no generator is in
    ``units`` or a composite of the others.  ``out_of`` and ``each`` are as
    for ``_associativity_report``; ``units`` lists identity arrows, which are
    the empty composites, so that no generator is an identity.

    Picked greedily in arrow order, each arrow not yet reached by
    right-composing reached arrows with generators becoming one; then each
    generator that the others reach is dropped, in order.  On a poset this
    leaves exactly the covering relations, which greedy picking alone misses
    when an arrow is numbered before one it factors through.
    """
    reached = bytearray(len(src))
    for k in units:
        reached[k] = 1
    reached_into = [[] for _ in out_of]
    gens, gens_out = [], [[] for _ in out_of]
    for k in range(len(src)):
        if reached[k]:
            continue
        gens.append(k)
        gens_out[src[k]].append(k)
        todo = [each(r, (k,))[0] for r in reached_into[src[k]]]
        todo.append(k)
        while todo:
            r = todo.pop()
            if not reached[r]:
                reached[r] = 1
                reached_into[tgt[r]].append(r)
                todo.extend(each(r, gens_out[tgt[r]]))
    for g in tuple(gens):
        others = gens_out[src[g]]
        others.remove(g)
        seen, todo = set(), list(others)
        while todo and g not in seen:
            r = todo.pop()
            if r not in seen:
                seen.add(r)
                todo.extend(each(r, gens_out[tgt[r]]))
        if g in seen:
            gens.remove(g)
        else:
            others.append(g)
    return gens


def _associativity_report(src: Sequence[int], tgt: Sequence[int],
                          out_of: Sequence[Sequence[int]],
                          each: Callable[[int, Sequence[int]], list],
                          units: Sequence[int] = ()) -> list[str]:
    """``associativity: (a,b,c)`` for every composable triple with
    (a.b).c != a.(b.c), in the order of a walk over a, then b out of its
    target, then c.  ``out_of[x]`` lists the arrows with source x in
    increasing order, and ``each(m1, ms)``, a row reader like
    ``FiniteCategory.compose_each``, returns the composites of m1 with each
    arrow of ``ms``, all leaving ``tgt[m1]``, with the right endpoints.
    ``units`` lists identity arrows for which the caller has checked the
    unit laws.

    Decided by Light's test (Clifford and Preston, *The Algebraic Theory of
    Semigroups*, Vol. 1, 1961): the arrows b with (a.b).c == a.(b.c) for all
    composable a and c are closed under composition and contain every unit,
    so it suffices to check the generators of ``_generators``, two rows per
    left factor a.  Only if a generator fails is every triple walked, a row
    of c at a time.
    """
    into = [[] for _ in out_of]
    for k, y in enumerate(tgt):
        into[y].append(k)
    if all(_is_good(b, into[src[b]], out_of[tgt[b]], each)
           for b in _generators(src, tgt, out_of, each, units)):
        return []
    report = []
    for a in range(len(src)):
        bs = out_of[tgt[a]]
        for b, ab in zip(bs, each(a, bs)):
            cs = out_of[tgt[b]]
            for c, left, right in zip(cs, each(ab, cs), each(a, each(b, cs))):
                if left != right:
                    report.append(f"associativity: ({a},{b},{c})")
    return report


def _is_good(b: int, before: Sequence[int], after: Sequence[int], each) -> bool:
    """Whether (a.b).c == a.(b.c) for every a in ``before`` and c in
    ``after``: one row of a gives a.b and every a.(b.c), one row of a.b every
    (a.b).c."""
    b_bc = [b, *each(b, after)]
    return all(each(row[0], after) == row[1:] for row in (each(a, b_bc) for a in before))


class UnionFind:
    """Union-find over 0..n-1, keeping the smallest member of a class as its root."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x):
        parent = self.parent
        while parent[x] != x:  # path halving
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return rx
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return rx

    def class_index(self) -> tuple[list[int], int]:
        """``(class_of, n_classes)``: the class number of every item, classes
        numbered in order of their minimum."""
        class_of = [0] * len(self.parent)
        n_classes = 0
        for x in range(len(self.parent)):
            root = self.find(x)
            if root == x:
                class_of[x] = n_classes
                n_classes += 1
            else:
                class_of[x] = class_of[root]
        return class_of, n_classes
