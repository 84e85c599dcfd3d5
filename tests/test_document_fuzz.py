"""Mutated documents of every kind through the CLI.

A valid document has one entry of its JSON tree edited, deleted, duplicated
or replaced by a value of another type.  Whatever comes out, ``grpd
validate`` and the kind's compute command exit 0, 1 or 2 without a
traceback, and the compute command exits 2 exactly when ``validate`` finds
a problem: every compute command runs ``validate``'s checks first.
"""

import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from grpd.cli import run
from grpd.cohomology import GroupGammaAction, bg_gamma_action
from grpd.core import build_bg
from grpd.corpus import (
    eg_gamma_action,
    gamma_group_fixtures,
    group_catalog,
    involutive_fixtures,
    random_filtered_diagram,
    random_presheaf_action,
    random_site,
    skyscraper_presheaf_action,
)
from grpd.groups import cyclic_group
from grpd.jsonio import dumps
from grpd.presheaf import sierpinski_site

# kind, document, compute command (None: the kind has none)
VALID = [
    ("groupoid", build_bg(cyclic_group(3)), None),
    ("group", group_catalog()["S3"], None),
    ("site", random_site(random.Random(5)), None),
    ("gamma-action", eg_gamma_action(group_catalog()["S3"], None), "hfp"),
    ("group-involution", gamma_group_fixtures()[8], "h1"),
    ("twisted-data", involutive_fixtures()[5], "twisted"),
    ("diagram", random_filtered_diagram(random.Random(3)), "colimit"),
    ("presheaf", random_presheaf_action(random.Random(3)), "stalk"),
    ("presheaf", skyscraper_presheaf_action(sierpinski_site(), 0, bg_gamma_action(
        GroupGammaAction(group=cyclic_group(2), bar=(0, 1)))), "stalk"),
]
DOCS = [(kind, json.loads(dumps(obj)), command) for kind, obj, command in VALID]


def paths(node, prefix=()):
    """Every position in a JSON tree below the root, parents first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


OTHER_VALUES = st.one_of(
    st.integers(min_value=-2, max_value=40),
    st.sampled_from([None, "x", [], {}, 1.5, True, [0], [[0, 0, 0]]]),
)


@st.composite
def mutated(draw):
    kind, doc, command = draw(st.sampled_from(DOCS))
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if op == "delete":
        del parent[key]
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(parent[key])))
    else:
        parent[key] = draw(OTHER_VALUES)
    return kind, doc, command


def invoke(argv):
    buf = io.StringIO()
    code = run(argv, stdout=buf)
    return code, buf.getvalue()


# derandomized, so that a run of the suite is repeatable; a larger campaign
# is the same test under a higher max_examples and other seeds
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_mutated_documents_exit_cleanly_and_compute_agrees_with_validate(case):
    kind, doc, command = case
    with tempfile.TemporaryDirectory() as tmp:
        f = str(Path(tmp) / "doc.json")
        Path(f).write_text(json.dumps(doc))
        code, _ = invoke(["validate", f])
        assert code in (0, 1, 2)
        if command is not None:
            computed, _ = invoke([command, f])
            assert computed in (0, 1, 2)
            assert (computed == 2) == (code != 0), (kind, command, code, computed)


def test_the_unmutated_documents_are_valid(tmp_path):
    for i, (kind, doc, command) in enumerate(DOCS):
        f = tmp_path / f"{i}.json"
        f.write_text(json.dumps(doc))
        assert invoke(["validate", str(f)]) == (0, "ok\n"), kind
        if command is not None:
            assert invoke([command, str(f)])[0] == 0, kind
