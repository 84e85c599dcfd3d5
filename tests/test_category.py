"""Index categories as ``core.FiniteCategory`` against the category type they
replaced: a frozen dataclass whose ``hom`` scans every arrow, the
``filtered_witness`` that scanned every arrow for each parallel pair, and a
category checker that takes the tables as loose arguments.  The references
below are copies of those; the indexes are every index the corpus builds and
one-entry mutations of their composition tables."""

import json
import random
from dataclasses import dataclass, field
from typing import Optional

import pytest

from grpd.colimit import filtered_witness
from grpd.core import FiniteCategory, build_bg, validate_category
from grpd.corpus import (
    _fold_diagram,
    _retract_diagram,
    nonfiltered_control_diagram,
    random_filtered_diagram,
    random_site,
)
from grpd.groups import cyclic_group
from grpd.jsonio import SchemaError, dumps, load_document
from grpd.presheaf import _point_filter_category


@dataclass(frozen=True)
class ReferenceCategory:
    n_objects: int
    src: tuple[int, ...]
    tgt: tuple[int, ...]
    id_of: tuple[int, ...]
    comp: dict = field(hash=False)

    @property
    def n_arrows(self) -> int:
        return len(self.src)

    def objects(self) -> range:
        return range(self.n_objects)

    def arrows(self) -> range:
        return range(self.n_arrows)

    def hom(self, i: int, j: int) -> tuple[int, ...]:
        return tuple(u for u in self.arrows() if self.src[u] == i and self.tgt[u] == j)


def reference_filtered_witness(c: ReferenceCategory) -> Optional[str]:
    if c.n_objects == 0:
        return "the index category is empty"
    for i in c.objects():
        for j in c.objects():
            if not any(c.hom(i, k) and c.hom(j, k) for k in c.objects()):
                return f"objects {i} and {j} admit no cocone"
    for u in c.arrows():
        for v in c.arrows():
            if u >= v or c.src[u] != c.src[v] or c.tgt[u] != c.tgt[v]:
                continue
            j = c.tgt[u]
            if not any(
                c.comp[(u, w)] == c.comp[(v, w)]
                for w in c.arrows() if c.src[w] == j
            ):
                return f"parallel arrows {u} and {v} are never equalized"
    return None


def reference_validate_category(c: ReferenceCategory) -> list[str]:
    """The checker on loose tables, with every composable triple walked for
    associativity in the order a, b out of the target of a, c out of the
    target of b."""
    n, m = c.n_objects, c.n_arrows
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
    report = []
    for x in range(n):
        if src[id_of[x]] != x or tgt[id_of[x]] != x:
            report.append(f"identity: id_of[{x}] is not an endomorphism of {x}")
    for (m1, m2), m3 in comp.items():
        if tgt[m1] != src[m2]:
            report.append(f"composition-domain: ({m1},{m2}) is not composable")
        elif src[m3] != src[m1] or tgt[m3] != tgt[m2]:
            report.append(f"composition: comp({m1},{m2}) has wrong endpoints")
    out_of = [[k for k in range(m) if src[k] == x] for x in range(n)]
    for m1 in range(m):
        for m2 in out_of[tgt[m1]]:
            if (m1, m2) not in comp:
                report.append(f"composition-domain: missing entry for ({m1},{m2})")
    if report:
        return report
    for k in range(m):
        if comp[(id_of[src[k]], k)] != k:
            report.append(f"unit: id . {k} != {k}")
        if comp[(k, id_of[tgt[k]])] != k:
            report.append(f"unit: {k} . id != {k}")
    for a in range(m):
        for b in out_of[tgt[a]]:
            for d in out_of[tgt[b]]:
                if comp[comp[a, b], d] != comp[a, comp[b, d]]:
                    report.append(f"associativity: ({a},{b},{d})")
    return report


def corpus_indexes() -> list[tuple]:
    """The distinct index tables the corpus builds: the indexes of
    ``random_filtered_diagram`` for 200 seeds, the point filters of 50 random
    sites and the three hand-built indexes."""
    cats = [random_filtered_diagram(random.Random(seed)).index for seed in range(200)]
    for seed in range(50):
        site = random_site(random.Random(seed))
        cats.extend(_point_filter_category(site, t)[0] for t in site.points())
    cats += [_retract_diagram(random.Random(0)).index,
             _fold_diagram(random.Random(0)).index,
             nonfiltered_control_diagram().index]
    tables = {}
    for c in cats:
        key = (c.n_objects, c.src, c.tgt, c.id_of, tuple(sorted(c.comp.items())))
        tables.setdefault(key, None)
    return list(tables)


def mutations(tables: tuple) -> list[tuple]:
    """One-entry mutations of the composition table: each composite moved to
    a parallel arrow if it has one and else to the next arrow, each entry
    dropped, and an entry added for three seeded pairs that are not
    composable."""
    n, src, tgt, id_of, items = tables
    comp = dict(items)
    m = len(src)
    out = []
    for pair, w in items:
        parallel = [k for k in range(m) if k != w and (src[k], tgt[k]) == (src[w], tgt[w])]
        flipped = parallel[0] if parallel else (w + 1) % m
        out.append((n, src, tgt, id_of, {**comp, pair: flipped}))
        out.append((n, src, tgt, id_of, {k: v for k, v in items if k != pair}))
    apart = [(u, v) for u in range(m) for v in range(m) if tgt[u] != src[v]]
    for u, v in random.Random(repr(tables)).sample(apart, min(3, len(apart))):
        out.append((n, src, tgt, id_of, {**comp, (u, v): u}))
    return out


def outcome(f, c):
    try:
        return f(c)
    except KeyError as exc:
        return ("KeyError", exc.args)


INDEXES = corpus_indexes()


def test_the_corpus_builds_every_kind_of_index():
    assert len(INDEXES) >= 8
    assert all(validate_category(FiniteCategory(*t[:4], dict(t[4]))) == [] for t in INDEXES)
    witnesses = {filtered_witness(FiniteCategory(*t[:4], dict(t[4]))) for t in INDEXES}
    assert None in witnesses and len(witnesses) > 1  # the control is not filtered


@pytest.mark.parametrize("i", range(len(INDEXES)))
def test_index_and_its_mutations_agree_with_the_reference(i):
    n, src, tgt, id_of, items = INDEXES[i]
    new = FiniteCategory(n, src, tgt, id_of, dict(items))
    ref = ReferenceCategory(n, src, tgt, id_of, dict(items))
    assert new.n_morphisms == ref.n_arrows
    # hom reads only src and tgt, which the mutations keep
    assert all(new.hom(x, y) == ref.hom(x, y)
               for x in range(-1, n + 1) for y in range(-1, n + 1))
    for n, src, tgt, id_of, comp in [INDEXES[i][:4] + (dict(items),)] + mutations(INDEXES[i]):
        new = FiniteCategory(n, src, tgt, id_of, comp)
        ref = ReferenceCategory(n, src, tgt, id_of, comp)
        assert validate_category(new) == reference_validate_category(ref)
        assert outcome(filtered_witness, new) == outcome(reference_filtered_witness, ref)


def test_out_of_lists_the_arrows_out_of_each_object_once_per_instance():
    c = FiniteCategory(*INDEXES[-1][:4], dict(INDEXES[-1][4]))
    assert c.out_of == tuple(tuple(u for u in c.morphisms() if c.src[u] == x)
                             for x in c.objects())
    assert c.out_of is c.out_of


def test_categories_and_groupoids_compare_by_their_own_type():
    g = build_bg(cyclic_group(2))
    c = FiniteCategory(g.n_objects, g.src, g.tgt, g.id_of, g.comp)
    assert c == FiniteCategory(g.n_objects, g.src, g.tgt, g.id_of, dict(g.comp))
    assert c != g and g != c


GROUPOID = json.loads(dumps(build_bg(cyclic_group(2))))
DIAGRAM = json.loads(dumps(nonfiltered_control_diagram()))


def groupoid_with(key, value):
    return {**GROUPOID, key: value}


def diagram_with(key, value):
    return {**DIAGRAM, "index": {**DIAGRAM["index"], key: value}}


@pytest.mark.parametrize("doc, message", [
    (groupoid_with("n_objects", -1), "groupoid: n_objects must be a nonnegative integer"),
    (groupoid_with("n_objects", "1"), "groupoid: n_objects must be a nonnegative integer"),
    (groupoid_with("src", [0, "x"]), "groupoid: src must be a list of integers"),
    (groupoid_with("tgt", None), "groupoid: tgt must be a list of integers"),
    (groupoid_with("id_of", 0), "groupoid: id_of must be a list of integers"),
    (groupoid_with("inv", [1.5]), "groupoid: inv must be a list of integers"),
    (groupoid_with("comp", {}), "groupoid: comp must be a list of triples"),
    (groupoid_with("comp", [[0, 0]]), "groupoid: comp entries must be integer triples"),
    ({**DIAGRAM, "index": []}, "diagram: index must be an object"),
    (diagram_with("n_objects", -1), "diagram: index n_objects must be a nonnegative integer"),
    (diagram_with("n_objects", None), "diagram: index n_objects must be a nonnegative integer"),
    (diagram_with("src", [0, "x"]), "diagram: src must be a list of integers"),
    (diagram_with("tgt", None), "diagram: tgt must be a list of integers"),
    (diagram_with("id_of", 0), "diagram: id_of must be a list of integers"),
    (diagram_with("comp", {}), "diagram: comp must be a list of triples"),
    (diagram_with("comp", [[0, 0]]), "diagram: comp entries must be integer triples"),
])
def test_category_schema_errors_are_unchanged(doc, message):
    with pytest.raises(SchemaError) as exc:
        load_document(doc)
    assert str(exc.value) == message
