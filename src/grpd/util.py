"""Small shared helpers."""

from __future__ import annotations

__all__ = ["UnionFind"]


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

    def classes(self) -> list[list[int]]:
        """Equivalence classes as sorted lists, ordered by their minimum."""
        class_of, n_classes = self.class_index()
        out = [[] for _ in range(n_classes)]
        for x, c in enumerate(class_of):
            out[c].append(x)
        return out
