import enum
import json
import random
from collections import namedtuple

import pytest
from hypothesis import example, given, settings, strategies as st

from grpd import jsonio
from grpd.corpus import (
    corrupted_bg_z2,
    gamma_group_fixtures,
    group_catalog,
    eg_gamma_action,
    involutive_fixtures,
    random_filtered_diagram,
    random_gamma_action,
    random_presheaf_action,
    random_site,
)
from grpd.core import build_bg, build_eg, disjoint_union, product
from grpd.gamma import hfp
from grpd.groups import conjugation_automorphism, cyclic_group, symmetric_group
from grpd.jsonio import (
    SchemaError,
    _json_text,
    dumps,
    load_document,
    loads,
    to_dot,
)
from grpd.presheaf import sierpinski_site


def test_groupoid_round_trip():
    g = build_bg(group_catalog()["S3"])
    assert loads(dumps(g)) == g


def test_group_round_trip():
    g = group_catalog()["D4"]
    h = loads(dumps(g))
    assert h.table == g.table and h.labels == g.labels


def test_gamma_action_round_trip():
    a = eg_gamma_action(group_catalog()["Z4"])
    assert loads(dumps(a)) == a


def test_group_involution_round_trip():
    a = gamma_group_fixtures()[8]
    b = loads(dumps(a))
    assert b.bar == a.bar and b.group.table == a.group.table


def test_twisted_data_round_trip():
    d = involutive_fixtures()[5]
    e = loads(dumps(d))
    assert (e.theta, e.b_elements) == (d.theta, d.b_elements)


def test_site_round_trip():
    s = sierpinski_site()
    assert loads(dumps(s)) == s


def test_presheaf_round_trip():
    rng = random.Random("jsonio")
    a = random_presheaf_action(rng)
    b = loads(dumps(a))
    assert b.presheaf.site == a.presheaf.site
    assert b.at == a.at
    assert b.presheaf.res == a.presheaf.res


def test_diagram_round_trip():
    rng = random.Random("jsonio-diagram")
    d = random_filtered_diagram(rng)
    e = loads(dumps(d))
    assert e.index == d.index
    assert e.nodes == d.nodes
    assert [a.map for a in e.arrows] == [a.map for a in d.arrows]


def test_dumps_is_deterministic():
    g = build_bg(group_catalog()["S3"])
    assert dumps(g) == dumps(g)


def test_schema_errors():
    with pytest.raises(SchemaError):
        loads("not json at all {")
    with pytest.raises(SchemaError):
        load_document({"schema": 2, "kind": "groupoid"})
    with pytest.raises(SchemaError):
        load_document({"schema": 1, "kind": "wombat"})
    with pytest.raises(SchemaError):
        load_document({"schema": 1, "kind": "groupoid", "n_objects": -1})
    with pytest.raises(SchemaError):
        load_document({"schema": 1, "kind": "group", "table": [[0, 0], [0, 0]]})


def test_wrong_kind_is_rejected():
    doc = json.loads(dumps(build_bg(cyclic_group(2))))
    doc["kind"] = "group"
    with pytest.raises(SchemaError):
        load_document(doc)


def test_to_dot_omits_identities():
    g = build_bg(cyclic_group(2))
    dot = to_dot(g, name="bz2")
    assert dot.startswith('digraph "bz2"')
    assert dot.count("->") == 1
    assert dot.count("[label=") == 2  # one node, one non-identity arrow


def test_a_boolean_in_comp_loads_as_the_integer_it_equals():
    g = build_bg(cyclic_group(2))
    doc = json.loads(dumps(g))
    assert [0, 1, 1] in doc["comp"]
    doc["comp"][doc["comp"].index([0, 1, 1])] = [0, True, 1]
    h = load_document(doc)
    assert h == g and (0, True) in h.comp
    doc["comp"][0] = [0, 0, 0.0]
    with pytest.raises(SchemaError, match="groupoid: comp entries must be integer triples"):
        load_document(doc)


# ---------------------------------------------------------------------------
# the JSON writer against the stdlib's indented writer


def stdlib_text(v) -> str:
    return json.dumps(v, indent=2, sort_keys=True) + "\n"


class Colour(enum.IntEnum):
    RED = 1
    BLUE = -7


class Name(str):
    pass


Pair = namedtuple("Pair", "left right")

INTS = st.integers(min_value=-2**200, max_value=2**200)
# what a fast int-list or row path must not take for an int: bools and enums
INT_ITEMS = st.one_of(INTS, st.booleans(), st.sampled_from(Colour))
FLOATS = st.one_of(st.floats(), st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0]))
TEXT = st.one_of(st.text(), st.text().map(Name),
                 st.sampled_from(["\u00e9\u4e2d", "\x00\x1f\n\t\"\\", "\ud800"]))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT, st.sampled_from(Colour))
ROWS = st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(INT_ITEMS, min_size=k, max_size=k), min_size=1, max_size=8))
RAGGED = st.lists(st.lists(INTS, max_size=4), min_size=2, max_size=8)
LEAVES = st.one_of(SCALARS, st.lists(INT_ITEMS), ROWS, RAGGED,
                   ROWS.map(lambda rows: [tuple(r) for r in rows]))


def dicts(keys, values):
    return st.dictionaries(keys, values, max_size=5)


VALUES = st.recursive(LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=5),
    st.lists(children, max_size=5).map(tuple),
    st.builds(Pair, children, children),
    # one key type per dict: the stdlib sorts the keys before writing them
    dicts(TEXT, children), dicts(st.one_of(INTS, st.sampled_from(Colour)), children),
    dicts(FLOATS, children),
    dicts(st.booleans(), children), dicts(st.none(), children),
), max_leaves=30)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(VALUES)
@example([])
@example({})
@example([[]])
@example([[], []])
@example([[1, 2], []])
@example([[1, 2], [3]])
@example([[1, 2], [3, True]])
@example([1, True, 2])
@example([Colour.RED, 2])
@example([[Colour.BLUE, 0, 1]])
@example([[2**100, -1, 0], [-(2**70), 5, 6]])
@example({"comp": [[0, 0, 0], [0, 1, 1]], "leq": [[0, 1]], "n": -0.0})
def test_the_writer_matches_the_stdlib_indented_writer(v):
    assert _json_text(v) == stdlib_text(v)


UNSUPPORTED_KEYS = st.sampled_from([(1,), frozenset([1]), 1j, b"key", Pair(0, 1)])
UNSUPPORTED = st.sampled_from([set(), frozenset([1]), object(), range(2), 1j, b"value"])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(VALUES, UNSUPPORTED, UNSUPPORTED_KEYS)
def test_an_unsupported_value_raises_type_error_on_both_sides(v, bad, bad_key):
    for doc in ({"a": v, "b": bad}, [v, [bad]], {bad_key: v}):
        for write in (_json_text, stdlib_text):
            with pytest.raises(TypeError):
                write(doc)


# ---------------------------------------------------------------------------
# every document kind against the stdlib writer over tabulated triples


def reference_dumps(obj, monkeypatch) -> str:
    """The stdlib writer over triples read from ``.comp``, which tabulates a
    rule-backed structure."""
    def fields(c):
        return {
            "n_objects": c.n_objects,
            "src": list(c.src),
            "tgt": list(c.tgt),
            "id_of": list(c.id_of),
            "comp": [[a, b, w] for (a, b), w in sorted(c.comp.items())],
        }

    with monkeypatch.context() as m:
        m.setattr(jsonio, "_dump_category_fields", fields)
        return stdlib_text(jsonio.dump_document(obj))


def document_objects():
    rng = random.Random("jsonio-kinds")
    s4 = symmetric_group(4)
    return [
        *(random_gamma_action(rng, 60) for _ in range(20)),
        *gamma_group_fixtures(),
        *involutive_fixtures(),
        *group_catalog().values(),
        *(random_filtered_diagram(rng) for _ in range(10)),
        *(random_presheaf_action(rng) for _ in range(6)),
        *(random_site(rng) for _ in range(5)),
        eg_gamma_action(s4, conjugation_automorphism(s4, 1)),
        build_bg(symmetric_group(5)),
        corrupted_bg_z2(),
    ]


def test_every_document_kind_dumps_to_the_stdlib_bytes(monkeypatch):
    kinds = set()
    for obj in document_objects():
        text = dumps(obj)
        assert text == reference_dumps(obj, monkeypatch), obj
        kinds.add(json.loads(text)["kind"])
    assert kinds == set(jsonio._LOADERS)


def test_dumps_leaves_rule_backed_structures_untabulated(monkeypatch):
    s3, s4 = group_catalog()["S3"], symmetric_group(4)
    bz2 = build_bg(cyclic_group(2))
    gs = [
        build_eg(s4),
        product(build_eg(s3), bz2),
        disjoint_union([build_eg(s3), bz2]),
        hfp(eg_gamma_action(s3, conjugation_automorphism(s3, 1))).groupoid,
    ]
    for g in gs:
        assert g._comp is None
        text = dumps(g)
        assert g._comp is None
        assert text == reference_dumps(g, monkeypatch)
