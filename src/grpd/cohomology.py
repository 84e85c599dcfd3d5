"""First nonabelian cohomology of an involution on a finite group.

For an involutive automorphism bar of G, the cocycles are
Z1 = {s in G : s * bar(s) = e}, the twisted conjugation action is
g . s = bar(g) * s * g^-1, and H1 is the set of orbits.  This is the twisted
conjugation of ``grpd.twisted`` with theta = bar and B = G, and ``h1``
takes its cocycles and orbits from there.  The stabilizer
K_s = {g : bar(g) * s = s * g} of a cocycle is the automorphism group of the
corresponding fixed point of the one-object groupoid of G.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

from .core import (
    FiniteGroupoid,
    GroupoidMap,
    _stars,
    automorphism_group,
    build_bg,
    disjoint_union,
    is_weak_equivalence,
)
from .gamma import GammaAction, HomotopyFixedPoints, hfp
from .groups import FiniteGroup, induced_subgroup, is_involutive_automorphism
from .twisted import InvolutiveGroupData, TwistedOrbit, twisted_orbits

__all__ = [
    "GroupGammaAction",
    "BgDecomposition",
    "SkeletonPart",
    "Skeleton",
    "validate_group_gamma_action",
    "bg_gamma_action",
    "h1",
    "bg_hfp_decomposition",
    "skeletonize",
]


@dataclass(frozen=True)
class GroupGammaAction:
    """An involutive automorphism of a finite group, as an element table."""

    group: FiniteGroup
    bar: tuple[int, ...]


def validate_group_gamma_action(a: GroupGammaAction) -> list[str]:
    g = a.group
    if len(a.bar) != g.order:
        return ["shape: bar table has the wrong length"]
    if not is_involutive_automorphism(g, a.bar):
        return ["involution: bar is not an involutive automorphism"]
    return []


def bg_gamma_action(a: GroupGammaAction) -> GammaAction:
    """The induced involution on the one-object groupoid of the group."""
    return GammaAction(build_bg(a.group), (0,), tuple(a.bar))


def h1(a: GroupGammaAction) -> list[TwistedOrbit]:
    """Orbits of twisted conjugation on the cocycles, sorted by representative."""
    return twisted_orbits(InvolutiveGroupData(group=a.group, theta=a.bar,
                                              b_elements=tuple(a.group.elements())))


@dataclass(frozen=True)
class BgDecomposition:
    """The comparison from a disjoint union of stabilizer groupoids into the
    fixed points of the one-object groupoid."""

    classes: tuple[TwistedOrbit, ...]
    fixed_points: HomotopyFixedPoints = field(compare=False)
    source: FiniteGroupoid = field(compare=False)
    map: GroupoidMap = field(compare=False)
    is_weak_equivalence: bool = True


def bg_hfp_decomposition(a: GroupGammaAction) -> BgDecomposition:
    """Build the canonical map from the union of one-object stabilizer
    groupoids into the homotopy fixed points, one summand per cocycle class,
    and record whether it is a weak equivalence.
    """
    classes = h1(a)
    fp = hfp(bg_gamma_action(a))
    parts = []
    for cls in classes:
        sub, emb = induced_subgroup(a.group, cls.stabilizer)
        x = fp.object_id(0, cls.representative)
        parts.append(SkeletonPart(x, sub, tuple(fp.morphism_id(x, g) for g in emb)))
    f = _deloopings_into(fp.groupoid, parts)
    return BgDecomposition(
        classes=tuple(classes),
        fixed_points=fp,
        source=f.dom,
        map=f,
        is_weak_equivalence=is_weak_equivalence(f),
    )


@dataclass(frozen=True)
class SkeletonPart:
    representative: int
    automorphisms: FiniteGroup
    morphisms: tuple[int, ...]


@dataclass(frozen=True)
class Skeleton:
    parts: tuple[SkeletonPart, ...]
    source: FiniteGroupoid = field(compare=False)
    map: GroupoidMap = field(compare=False)
    is_weak_equivalence: bool = True


def skeletonize(g: FiniteGroupoid) -> Skeleton:
    """Present a groupoid, up to weak equivalence, as a disjoint union of
    one-object groupoids: one per isomorphism class, at the least object."""
    parts = []
    for rep, _ in _stars(g):
        grp, mors = automorphism_group(g, rep)
        parts.append(SkeletonPart(representative=rep, automorphisms=grp,
                                  morphisms=mors))
    f = _deloopings_into(g, parts)
    return Skeleton(parts=tuple(parts), source=f.dom, map=f,
                    is_weak_equivalence=is_weak_equivalence(f))


def _deloopings_into(cod: FiniteGroupoid, parts: Sequence[SkeletonPart]) -> GroupoidMap:
    """The map out of the disjoint union of the one-object groupoids of the
    parts' groups, sending summand i to ``parts[i].representative`` by
    ``parts[i].morphisms``.  Every summand has one object and its morphism
    ids are group elements, so both map tables are concatenations."""
    source = disjoint_union([build_bg(p.automorphisms) for p in parts])
    return GroupoidMap(source, cod, tuple(p.representative for p in parts),
                       tuple(chain.from_iterable(p.morphisms for p in parts)))
