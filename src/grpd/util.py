"""Small shared helpers."""

from __future__ import annotations

from itertools import repeat
from typing import Mapping, Sequence

__all__ = ["UnionFind"]


def _associativity_report(src: Sequence[int], tgt: Sequence[int],
                          out_of: Sequence[Sequence[int]],
                          comp: Mapping[tuple[int, int], int]) -> list[str]:
    """``associativity: (a,b,c)`` for every composable triple with
    ``comp[comp[a, b], c] != comp[a, comp[b, c]]``, in the order of a walk
    over a, then b out of its target, then c.  ``out_of[x]`` lists the arrows
    with source x in increasing order, and ``comp`` must hold every composable
    pair with a composite of the right endpoints.

    Decided by Light's test (Clifford and Preston, *The Algebraic Theory of
    Semigroups*, Vol. 1, 1961): the arrows b with (a.b).c == a.(b.c) for all
    composable a and c are closed under composition, so it suffices to check
    a generating set.  Generators are picked greedily in arrow order: each
    arrow not yet reached by right-composing reached arrows with generators
    becomes one.  Only if a generator fails is every triple walked.
    """
    get = comp.__getitem__
    m = len(src)
    into = [[] for _ in out_of]
    for k, y in enumerate(tgt):
        into[y].append(k)
    reached = bytearray(m)
    reached_into = [[] for _ in out_of]
    gens, gens_out = [], [[] for _ in out_of]
    for k in range(m):
        if reached[k]:
            continue
        gens.append(k)
        gens_out[src[k]].append(k)
        todo = list(map(get, zip(reached_into[src[k]], repeat(k))))
        todo.append(k)
        while todo:
            r = todo.pop()
            if not reached[r]:
                reached[r] = 1
                reached_into[tgt[r]].append(r)
                todo.extend(map(get, zip(repeat(r), gens_out[tgt[r]])))
    if all(_is_good(b, into[src[b]], out_of[tgt[b]], get) for b in gens):
        return []
    report = []
    for a in range(m):
        for b in out_of[tgt[a]]:
            ab = comp[a, b]
            for c in out_of[tgt[b]]:
                if comp[ab, c] != comp[a, comp[b, c]]:
                    report.append(f"associativity: ({a},{b},{c})")
    return report


def _is_good(b: int, before: Sequence[int], after: Sequence[int], get) -> bool:
    """Whether (a.b).c == a.(b.c) for every a in ``before`` and c in
    ``after``, ``get`` looking up the composite of a pair."""
    bc = list(map(get, zip(repeat(b), after)))
    return all(
        list(map(get, zip(repeat(get((a, b))), after))) == list(map(get, zip(repeat(a), bc)))
        for a in before)


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
