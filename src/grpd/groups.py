"""Finite groups as explicit multiplication tables, plus group actions.

Elements of a group of order n are the integers 0..n-1.  ``table[a][b]`` is
the product a*b, so ``table[a][table[b][x]] == table[table[a][b]][x]`` and
actions below are left actions: ``act(a, act(b, x)) == act(a*b, x)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Optional, Sequence

from .util import _associativity_report, _generators

__all__ = [
    "FiniteGroup",
    "GroupAction",
    "validate_group",
    "trivial_group",
    "cyclic_group",
    "dihedral_group",
    "symmetric_group",
    "direct_product",
    "gl2_f2",
    "gl2_f2_upper_triangular",
    "is_subgroup",
    "induced_subgroup",
    "is_automorphism",
    "is_involutive_automorphism",
    "identity_automorphism",
    "inversion_automorphism",
    "conjugation_automorphism",
    "left_multiplication_action",
    "trivial_point_action",
]


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its full multiplication table."""

    table: tuple[tuple[int, ...], ...]
    identity: int
    inv_table: tuple[int, ...]
    name: str = field(default="G", compare=False)
    labels: Optional[tuple[str, ...]] = field(default=None, compare=False)

    @property
    def order(self) -> int:
        return len(self.table)

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inv_table[a]

    def label(self, a: int) -> str:
        if self.labels is not None:
            return self.labels[a]
        return f"g{a}"

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def validate_group(g: FiniteGroup) -> list[str]:
    """A label table of the wrong length, then the group axioms,
    as a report; empty means valid.  A table or ``inv_table`` of the wrong
    shape or with an entry out of range ends the report.  Associativity is
    decided as for a category with one object, by Light's test on rows of
    ``table`` (``util._associativity_report``); no pair table is built."""
    n = g.order
    report = []
    if g.labels is not None and len(g.labels) != n:
        report.append(f"labels: labels has {len(g.labels)} entries, expected {n}")
    if len(g.inv_table) != n:
        report.append(f"shape: inv table has length {len(g.inv_table)}, expected {n}")
        return report
    if any(not 0 <= k < n for k in g.inv_table):
        report.append("shape: inv entry out of range")
        return report
    for a, row in enumerate(g.table):
        if len(row) != n:
            report.append(f"shape: row {a} has length {len(row)}")
            return report
        if not 0 <= min(row) <= max(row) < n:
            b = next(b for b, c in enumerate(row) if not 0 <= c < n)
            report.append(f"shape: entry ({a},{b}) out of range")
            return report
    if not 0 <= g.identity < n:
        report.append("shape: identity out of range")
        return report
    units = (g.identity,)
    for a in range(n):
        if g.mul(g.identity, a) != a or g.mul(a, g.identity) != a:
            report.append(f"identity: {a} is not fixed by the identity")
            units = ()
    for a in range(n):
        if g.mul(a, g.inv(a)) != g.identity or g.mul(g.inv(a), a) != g.identity:
            report.append(f"inverse: inv({a}) is not a two-sided inverse")
    return report + _associativity_report(*_one_object(g.table), units)


def _one_object(rows) -> tuple:
    """A multiplication table as a category with one object, in the first
    four arguments of ``util._generators`` and ``util._associativity_report``:
    ``src``, ``tgt``, ``out_of`` and the row reader, a*b for each b of a row."""
    n = len(rows)

    def each(a, bs):
        row = rows[a]
        return [row[b] for b in bs]

    return (0,) * n, (0,) * n, (range(n),), each


def _from_table(table, name, labels=None) -> FiniteGroup:
    n = len(table)
    for a, row in enumerate(table):
        if len(row) < n:
            raise ValueError(f"row {a} has length {len(row)}, expected {n}")
    units = [e for e in range(n) if all(table[e][a] == a == table[a][e] for a in range(n))]
    if not units:
        raise ValueError("table has no identity element")
    identity, inv = units[0], []
    for a, row in enumerate(table):
        hits = [b for b in range(n) if row[b] == identity == table[b][a]]
        if len(hits) != 1:
            raise ValueError(f"element {a} has no unique inverse")
        inv.append(hits[0])
    return FiniteGroup(
        table=tuple(map(tuple, table)),
        identity=identity,
        inv_table=tuple(inv),
        name=name,
        labels=None if labels is None else tuple(labels),
    )


def trivial_group() -> FiniteGroup:
    return FiniteGroup(table=((0,),), identity=0, inv_table=(0,), name="1", labels=("e",))


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    inv = tuple((-a) % n for a in range(n))
    labels = tuple(str(a) for a in range(n))
    return FiniteGroup(table=table, identity=0, inv_table=inv, name=f"C{n}", labels=labels)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n.  Element 2k is r^k, 2k+1 is r^k s."""
    if n < 1:
        raise ValueError("n must be positive")

    def enc(k, s):
        return 2 * (k % n) + s

    table = []
    for a in range(2 * n):
        k1, s1 = a // 2, a % 2
        row = []
        for b in range(2 * n):
            k2, s2 = b // 2, b % 2
            # r^k1 s^s1 . r^k2 s^s2 = r^(k1 + (-1)^s1 k2) s^(s1+s2)
            k = k1 + (k2 if s1 == 0 else -k2)
            row.append(enc(k, (s1 + s2) % 2))
        table.append(tuple(row))
    labels = []
    for a in range(2 * n):
        k, s = a // 2, a % 2
        word = ("" if k == 0 else "r" if k == 1 else f"r{k}") + ("s" if s else "")
        labels.append(word or "e")
    g = _from_table(table, f"D{n}", labels)
    return g


def _perm_label(p: tuple[int, ...]) -> str:
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        cycles.append("(" + "".join(str(i) for i in cyc) + ")")
    return "".join(cycles) or "e"


def symmetric_group(n: int) -> FiniteGroup:
    """All permutations of 0..n-1 in lexicographic order; product p*q applies q first.

    Only two rows of the table are computed from permutations, those of the
    transposition (0 1) and of the n-cycle i -> i+1 mod n, which generate
    the group.  The other rows are filled by a search from the identity:
    row(p*s)[q] is row(p)[row(s)[q]] by associativity.  The inverse of p is
    the column where row(p) holds the identity.
    """
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    gens = ((1, 0, *range(2, n)), (*range(1, n), 0)) if n > 1 else ()
    gen_rows = {index[s]: [index[tuple(s[i] for i in q)] for q in perms] for s in gens}
    rows = [None] * len(perms)
    rows[0] = list(range(len(perms)))  # the identity is the least permutation
    reached = [0]
    for p in reached:
        row_p = rows[p]
        for s, row_s in gen_rows.items():
            ps = row_p[s]
            if rows[ps] is None:
                rows[ps] = [row_p[q] for q in row_s]
                reached.append(ps)
    return FiniteGroup(
        table=tuple(map(tuple, rows)),
        identity=0,
        inv_table=tuple(row.index(0) for row in rows),
        name=f"S{n}",
        labels=tuple(_perm_label(p) for p in perms),
    )


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Product group; element (x, y) is encoded as x * b.order + y, and its
    row is built from row x of ``a`` and row y of ``b``."""
    nb = b.order
    table = tuple(tuple(x * nb + y for x in row_a for y in row_b)
                  for row_a in a.table for row_b in b.table)
    inv = tuple(x * nb + y for x in a.inv_table for y in b.inv_table)
    labels = tuple(f"({a.label(x)},{b.label(y)})"
                   for x in a.elements() for y in b.elements())
    return FiniteGroup(
        table=table,
        identity=a.identity * nb + b.identity,
        inv_table=inv,
        name=f"{a.name}x{b.name}",
        labels=labels,
    )


def gl2_f2() -> FiniteGroup:
    """Invertible 2x2 matrices over the field with two elements.

    Elements are ordered by the bit tuple (a, b, c, d) of the matrix
    [[a, b], [c, d]]; labels are those bit strings.
    """
    mats = []
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    if (a * d + b * c) % 2 == 1:
                        mats.append((a, b, c, d))
    index = {m: i for i, m in enumerate(mats)}

    def mmul(m, n):
        a, b, c, d = m
        e, f, g, h = n
        return ((a * e + b * g) % 2, (a * f + b * h) % 2,
                (c * e + d * g) % 2, (c * f + d * h) % 2)

    table = tuple(tuple(index[mmul(m, n)] for n in mats) for m in mats)
    labels = tuple("".join(str(x) for x in m) for m in mats)
    return _from_table(table, "GL2(F2)", labels)


def gl2_f2_upper_triangular(g: FiniteGroup) -> tuple[int, ...]:
    """Element ids of the upper-triangular subgroup of ``gl2_f2()``."""
    return tuple(a for a in g.elements() if g.label(a)[2] == "0")


def is_subgroup(g: FiniteGroup, subset: Sequence[int]) -> bool:
    s = set(subset)
    if g.identity not in s:
        return False
    return all(g.mul(a, b) in s for a in s for b in s) and all(g.inv(a) in s for a in s)


def _two_sided(g: FiniteGroup, left: int, right: int) -> tuple[int, ...]:
    """The row x -> left x right^-1 over the elements of ``g``: row ``left``
    of the table, each entry then read at the column of right^-1.  Twisted
    conjugation, the double coset action and conjugation are all such rows."""
    table, col = g.table, g.inv_table[right]
    return tuple([table[y][col] for y in table[left]])


def induced_subgroup(g: FiniteGroup, elements: Sequence[int]) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Subgroup on the given elements with the induced table.

    Returns the new group together with the embedding: local element i sits at
    ``embedding[i]`` in ``g``.  The rows of ``g`` are read through the index
    of the embedding, and that read is the closure check: an identity,
    product or inverse outside the elements raises ``ValueError``.
    """
    emb = tuple(sorted(set(elements)))
    index = {a: i for i, a in enumerate(emb)}
    try:
        sub = FiniteGroup(
            table=tuple(tuple([index[row[b]] for b in emb])
                        for row in (g.table[a] for a in emb)),
            identity=index[g.identity],
            inv_table=tuple(index[g.inv_table[a]] for a in emb),
            name=f"{g.name}<{len(emb)}>",
            labels=tuple(g.label(a) for a in emb),
        )
    except KeyError:
        raise ValueError(f"{emb} is not a subgroup of {g.name}") from None
    return sub, emb


def is_automorphism(g: FiniteGroup, f: Sequence[int]) -> bool:
    """Whether f is a bijective homomorphism.  The elements a with
    f(a*b) = f(a)*f(b) for every b are closed under products, so the law is
    checked on the rows of a generating set (``util._generators``), as
    Light's test checks associativity in ``validate_group``; in a finite
    group the identity is a power of any generator."""
    if sorted(f) != list(g.elements()):
        return False
    table = g.table
    # row a of f(a*b) against row f(a) of f(a)*f(b), b running over the group
    return all([f[ab] for ab in table[a]] == [table[f[a]][fb] for fb in f]
               for a in _generators(*_one_object(table), (g.identity,)))


def is_involutive_automorphism(g: FiniteGroup, f: Sequence[int]) -> bool:
    return is_automorphism(g, f) and all(f[f[a]] == a for a in g.elements())


def identity_automorphism(g: FiniteGroup) -> tuple[int, ...]:
    return tuple(g.elements())


def inversion_automorphism(g: FiniteGroup) -> tuple[int, ...]:
    """x -> x^-1; an automorphism exactly for abelian groups."""
    return tuple(g.inv_table)


def conjugation_automorphism(g: FiniteGroup, s: int) -> tuple[int, ...]:
    """x -> s x s^-1; involutive when s^2 is central, e.g. s an involution."""
    return _two_sided(g, s, s)


@dataclass(frozen=True)
class GroupAction:
    """Left action of a group on the finite set 0..n_points-1, fully tabulated."""

    group: FiniteGroup
    n_points: int
    act_table: tuple[tuple[int, ...], ...]
    point_labels: Optional[tuple[str, ...]] = field(default=None, compare=False)

    def act(self, g: int, x: int) -> int:
        return self.act_table[g][x]

    def point_label(self, x: int) -> str:
        if self.point_labels is not None:
            return self.point_labels[x]
        return f"p{x}"


def left_multiplication_action(g: FiniteGroup) -> GroupAction:
    return GroupAction(
        group=g,
        n_points=g.order,
        act_table=g.table,
        point_labels=tuple(g.label(a) for a in g.elements()),
    )


def trivial_point_action(g: FiniteGroup) -> GroupAction:
    return GroupAction(
        group=g,
        n_points=1,
        act_table=tuple((0,) for _ in g.elements()),
        point_labels=("*",),
    )
