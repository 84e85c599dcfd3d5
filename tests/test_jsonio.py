import json
import random

import pytest

from grpd.corpus import (
    gamma_group_fixtures,
    group_catalog,
    eg_gamma_action,
    involutive_fixtures,
    random_filtered_diagram,
    random_presheaf_action,
)
from grpd.core import build_bg
from grpd.groups import cyclic_group
from grpd.jsonio import (
    SchemaError,
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
