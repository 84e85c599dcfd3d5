"""Index categories as ``core.FiniteCategory`` against ``reference.hom``,
``reference.filtered_witness`` and ``reference.category_report``, which scan
every arrow.  The indexes are every index the corpus builds and one-entry
mutations of their composition tables."""

import json
import random

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
import reference


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
    # hom reads only src and tgt, which the mutations keep
    assert all(new.hom(x, y) == reference.hom(new, x, y)
               for x in range(-1, n + 1) for y in range(-1, n + 1))
    for n, src, tgt, id_of, comp in [INDEXES[i][:4] + (dict(items),)] + mutations(INDEXES[i]):
        new = FiniteCategory(n, src, tgt, id_of, comp)
        assert validate_category(new) == reference.category_report(new)
        assert outcome(filtered_witness, new) == outcome(reference.filtered_witness, new)


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
