import hashlib
import importlib
import io
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from grpd.cli import run
from grpd.colimit import FilteredDiagram, colimit_groupoids, filtered_witness
from grpd.corpus import (
    S3_TRANSPOSITION,
    constant_presheaf_action,
    corrupted_bg_z2,
    eg_gamma_action,
    gamma_group_fixtures,
    group_catalog,
    involutive_fixtures,
    nonfiltered_control_diagram,
    random_filtered_diagram,
    random_presheaf_action,
    random_site,
    skyscraper_presheaf_action,
)
from grpd.cohomology import GroupGammaAction, bg_gamma_action
from grpd.core import FiniteCategory, FiniteGroupoid, GroupoidMap, build_bg, identity_map, validate_groupoid
from grpd.gamma import EquivariantMap, trivial_action
from grpd.groups import conjugation_automorphism, cyclic_group
from grpd.jsonio import dumps, loads
from grpd.twisted import InvolutiveGroupData, xy_isomorphism, z1_theta
from grpd.presheaf import GroupoidPresheaf, PresheafGammaAction, sierpinski_site


def invoke(argv):
    buf = io.StringIO()
    code = run(argv, stdout=buf)
    return code, buf.getvalue()


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(dumps(obj))
    return str(p)


def test_validate_good_and_bad(tmp_path):
    good = write(tmp_path, "good.json", build_bg(cyclic_group(3)))
    code, out = invoke(["validate", good])
    assert code == 0 and out == "ok\n"

    bad = write(tmp_path, "bad.json", corrupted_bg_z2())
    code, out = invoke(["validate", bad])
    assert code == 1
    assert "invalid" in out


def test_bad_input_is_a_usage_error(tmp_path):
    p = tmp_path / "garbage.json"
    p.write_text("{ not json")
    code, _ = invoke(["validate", str(p)])
    assert code == 2
    code, _ = invoke(["validate", str(tmp_path / "missing.json")])
    assert code == 2
    wrong = write(tmp_path, "wrong.json", build_bg(cyclic_group(2)))
    code, _ = invoke(["h1", wrong])
    assert code == 2


def test_validate_reports_a_malformed_diagram_arrow(tmp_path):
    # the last arrow's object table is one entry short
    d = nonfiltered_control_diagram()
    e = d.arrows[3]
    short = replace(e, map=replace(e.map, obj_map=e.map.obj_map[:-1]))
    f = write(tmp_path, "short.json", replace(d, arrows=d.arrows[:3] + (short,)))
    code, out = invoke(["validate", f])
    assert code == 1
    assert "arrow 3: shape" in out


def write_json(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def one_node_diagram(a):
    index = FiniteCategory(1, (0,), (0,), (0,), {(0, 0): 0})
    return FilteredDiagram(index, (a,), (EquivariantMap(identity_map(a.carrier), a, a),))


def bz2_without_a_composite():
    g = build_bg(cyclic_group(2))
    comp = {k: v for k, v in g.comp.items() if k != (1, 1)}
    return FiniteGroupoid(g.n_objects, g.src, g.tgt, g.id_of, g.inv, comp)


# ``invoke`` lets an exception through, so each case below also shows that
# validate prints no traceback


def test_validate_checks_the_carrier_of_a_diagram_node(tmp_path):
    f = write(tmp_path, "one.json", one_node_diagram(trivial_action(corrupted_bg_z2())))
    code, out = invoke(["validate", f])
    assert code == 1
    assert "node 0: carrier inverse: 1 then inv(1) is not the identity\n" in out

    # an arrow into a node whose carrier lacks a composite
    a = trivial_action(build_bg(cyclic_group(2)))
    b = trivial_action(bz2_without_a_composite())
    index = FiniteCategory(2, (0, 1, 0), (0, 1, 1), (0, 1),
                           {(0, 0): 0, (1, 1): 1, (0, 2): 2, (2, 1): 2})
    into_b = GroupoidMap(a.carrier, b.carrier, (0,), (0, 1))
    d = FilteredDiagram(index, (a, b), (EquivariantMap(identity_map(a.carrier), a, a),
                                        EquivariantMap(identity_map(b.carrier), b, b),
                                        EquivariantMap(into_b, a, b)))
    code, out = invoke(["validate", write(tmp_path, "two.json", d)])
    assert (code, out) == (1, "node 1: carrier composition-domain: missing entry "
                              "for (1,1)\ninvalid: 1 problem(s)\n")


def test_validate_checks_the_sections_of_a_presheaf(tmp_path):
    site = sierpinski_site()
    a = constant_presheaf_action(site, trivial_action(corrupted_bg_z2()))
    code, out = invoke(["validate", write(tmp_path, "const.json", a)])
    assert code == 1
    assert "section 0: inverse: 1 then inv(1) is not the identity\n" in out

    # restrictions from a good top section into sections lacking a composite
    good, bad = build_bg(cyclic_group(2)), bz2_without_a_composite()
    sections = (bad, bad, good)
    res = {(u, v): GroupoidMap(sections[u], sections[v], (0,), (0, 1))
           for (u, v) in site.comparable_pairs()}
    p = PresheafGammaAction(GroupoidPresheaf(site, sections, res),
                            tuple(trivial_action(g) for g in sections))
    code, out = invoke(["validate", write(tmp_path, "res.json", p)])
    assert code == 1
    assert out.startswith("section 0: composition-domain: missing entry for (1,1)\n")


def test_validate_reports_an_index_composite_out_of_range(tmp_path):
    doc = json.loads(dumps(nonfiltered_control_diagram()))
    doc["index"]["comp"].append([4, 0, 0])
    code, out = invoke(["validate", write_json(tmp_path, "index.json", doc)])
    assert code == 1
    assert out.startswith("composition-domain: entry (4,0) out of range\n")


def test_validate_reports_a_subgroup_element_out_of_range(tmp_path):
    d = InvolutiveGroupData(cyclic_group(2), (0, 1), (0, 5))
    code, out = invoke(["validate", write(tmp_path, "tw.json", d)])
    assert code == 1
    assert out.startswith("shape: B element out of range\n")


def test_validate_reports_labels_of_the_wrong_length(tmp_path):
    doc = json.loads(dumps(build_bg(cyclic_group(2))))
    doc["mor_labels"] = ["e"]
    code, out = invoke(["validate", write_json(tmp_path, "labels.json", doc)])
    assert code == 1
    assert out.startswith("labels: mor_labels has 1 entries, expected 2\n")


def test_hfp_text_and_json(tmp_path):
    f = write(tmp_path, "es3.json", eg_gamma_action(group_catalog()["S3"]))
    code, out = invoke(["hfp", f])
    assert code == 0
    assert "objects: 6" in out and "fibration: yes" in out

    code, out = invoke(["hfp", f, "--json"])
    assert code == 0
    g = loads(out)
    assert g.n_objects == 6 and g.n_morphisms == 36


def test_h1_command(tmp_path):
    f = write(tmp_path, "s3.json", gamma_group_fixtures()[8])
    code, out = invoke(["h1", f])
    assert code == 0
    assert "cocycles: 4" in out and "classes: 2" in out

    code, out = invoke(["h1", f, "--json"])
    doc = json.loads(out)
    assert len(doc["cocycles"]) == 4
    assert sorted(c["stabilizer"] for c in doc["classes"]) == [2, 6]


def test_twisted_command(tmp_path):
    f = write(tmp_path, "tw.json", involutive_fixtures()[5])
    code, out = invoke(["twisted", f])
    assert code == 0
    assert "cardinality: 2" in out
    assert "fibration: yes" in out and "weak equivalence: yes" in out


def count_calls(monkeypatch, func):
    """Replace ``func`` in every ``grpd`` module that holds it by a wrapper
    that records each call; returns the record."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "grpd" and getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, counted)
    return calls


def test_twisted_command_computes_each_presentation_once(tmp_path, monkeypatch):
    f = write(tmp_path, "tw.json", involutive_fixtures()[5])
    xy_calls = count_calls(monkeypatch, xy_isomorphism)
    z_calls = count_calls(monkeypatch, z1_theta)
    code, _ = invoke(["twisted", f])
    assert code == 0
    assert (len(xy_calls), len(z_calls)) == (1, 1)


def test_colimit_command_decides_filteredness_once(tmp_path, monkeypatch):
    f = write(tmp_path, "d.json", random_filtered_diagram(random.Random(3)))
    calls = count_calls(monkeypatch, filtered_witness)
    code, out = invoke(["colimit", f])
    assert code == 0 and out.startswith("filtered: yes")
    assert len(calls) == 1


def test_stalk_command_builds_two_colimits_per_point(tmp_path, monkeypatch):
    a = random_presheaf_action(random.Random(3))
    f = write(tmp_path, "p.json", a)
    calls = count_calls(monkeypatch, colimit_groupoids)
    code, out = invoke(["stalk", f])
    assert code == 0
    n_points = a.presheaf.site.n_points
    assert len(out.splitlines()) == n_points == 3
    # the colimit of the carriers and the colimit of their fixed points
    assert len(calls) == 2 * n_points


def test_h1_command_computes_the_cocycles_once(tmp_path, monkeypatch):
    f = write(tmp_path, "h1.json", gamma_group_fixtures()[8])
    calls = count_calls(monkeypatch, z1_theta)
    code, out = invoke(["h1", f])
    assert code == 0 and out.startswith("group: ")
    assert len(calls) == 1


def test_validate_checks_each_presheaf_section_once(tmp_path, monkeypatch):
    a = random_presheaf_action(random.Random(3))
    f = write(tmp_path, "p.json", a)
    calls = count_calls(monkeypatch, validate_groupoid)
    assert invoke(["validate", f]) == (0, "ok\n")
    assert len(calls) == a.presheaf.site.n_opens


def test_colimit_command_on_control(tmp_path):
    f = write(tmp_path, "control.json", nonfiltered_control_diagram())
    code, out = invoke(["colimit", f])
    assert code == 1 and out.startswith("not filtered")

    code, out = invoke(["colimit", f, "--allow-unfiltered"])
    assert code == 1
    assert "not an isomorphism" in out


EMPTY_INDEX_TEXT = (
    "filtered: no (the index category is empty)\n"
    "colimit: 0 objects, 0 morphisms\n"
    "fixed points of colimit: 0 objects, 0 morphisms\n"
    "colimit of fixed points: 0 objects, 0 morphisms\n"
    "comparison map: isomorphism\n"
)

EMPTY_INDEX_JSON = """\
{
  "colimit": {
    "bar_mor": [],
    "bar_obj": [],
    "groupoid": {
      "comp": [],
      "id_of": [],
      "inv": [],
      "kind": "groupoid",
      "n_objects": 0,
      "schema": 1,
      "src": [],
      "tgt": []
    },
    "kind": "gamma-action",
    "schema": 1
  },
  "colimit_of_fixed_points": {
    "morphisms": 0,
    "objects": 0
  },
  "filtered": false,
  "fixed_points_of_colimit": {
    "morphisms": 0,
    "objects": 0
  },
  "isomorphism": true
}
"""


def test_colimit_command_on_an_empty_index(tmp_path):
    empty = FiniteCategory(n_objects=0, src=(), tgt=(), id_of=(), comp={})
    f = write(tmp_path, "empty.json", FilteredDiagram(empty, (), ()))
    assert invoke(["colimit", f]) == (1, "not filtered: the index category is empty\n")
    assert invoke(["colimit", f, "--allow-unfiltered"]) == (0, EMPTY_INDEX_TEXT)
    assert invoke(["colimit", f, "--allow-unfiltered", "--json"]) == (0, EMPTY_INDEX_JSON)


def test_stalk_command(tmp_path):
    a = skyscraper_presheaf_action(sierpinski_site(), 0, bg_gamma_action(
        GroupGammaAction(group=cyclic_group(2), bar=(0, 1))))
    f = write(tmp_path, "sky.json", a)
    code, out = invoke(["stalk", f])
    assert code == 0
    assert out.count("fixed points commute: yes") == 2

    code, out = invoke(["stalk", f, "--point", "a"])
    assert code == 0 and len(out.splitlines()) == 1

    code, _ = invoke(["stalk", f, "--point", "nowhere"])
    assert code == 2


def test_check_single_suite_and_determinism():
    code, out1 = invoke(["check", "--size", "small", "--seed", "5",
                         "--suite", "bg-decomposition"])
    assert code == 0
    assert out1.splitlines()[1] == "[PASS] bg-decomposition"
    _, out2 = invoke(["check", "--size", "small", "--seed", "5",
                      "--suite", "bg-decomposition"])
    assert out1 == out2


def test_check_out_file(tmp_path):
    target = tmp_path / "report.txt"
    code, out = invoke(["check", "--size", "small", "--seed", "2",
                        "--suite", "iota-fibration", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert "[PASS] iota-fibration" in target.read_text()


def test_export_dot(tmp_path):
    f = write(tmp_path, "bz2.json", build_bg(cyclic_group(2)))
    code, out = invoke(["export-dot", f])
    assert code == 0
    assert out.startswith("digraph") and "->" in out


def test_usage_error_exits_2(capsys):
    assert run(["no-such-command"], stdout=io.StringIO()) == 2
    capsys.readouterr()


def test_export_dot_rejects_labels_of_the_wrong_length(tmp_path, capsys):
    doc = json.loads(dumps(build_bg(cyclic_group(2))))
    doc["mor_labels"] = ["e"]
    code, out = invoke(["export-dot", write_json(tmp_path, "short.json", doc)])
    assert (code, out) == (2, "")
    assert "mor_labels has 1 entries, expected 2" in capsys.readouterr().err


def swapped_group_entries(doc, row, a, b):
    # swapping two entries of a row keeps an identity and unique inverses, so
    # the document loads, but the table is no longer associative
    table = doc["group"]["table"]
    table[row][a], table[row][b] = table[row][b], table[row][a]
    return doc


def edited(obj, **fields):
    doc = json.loads(dumps(obj))
    doc.update(fields)
    return doc


def shortened(obj, *keys):
    # the list at doc[keys[0]][keys[1]]... loses its last entry
    doc = json.loads(dumps(obj))
    table = doc
    for key in keys:
        table = table[key]
    table.pop()
    return doc


S3_CONJUGATION = gamma_group_fixtures()[8]
Z3_NEGATION = gamma_group_fixtures()[1]
S3_REFLECTION = involutive_fixtures()[5]
S3 = group_catalog()["S3"]
EG_S3 = eg_gamma_action(S3, tuple(range(6)))
EG_S3_CONJUGATION = eg_gamma_action(S3, conjugation_automorphism(S3, S3_TRANSPOSITION))
NOT_A_GROUPOID = trivial_action(corrupted_bg_z2())
BZ2_TRIVIAL = trivial_action(build_bg(cyclic_group(2)))


@pytest.mark.parametrize("command, doc, problem", [
    ("h1", edited(S3_CONJUGATION, bar=[0, 1, 2, 3, 4, 99]),
     "involution: bar is not an involutive automorphism"),
    ("h1", edited(S3_CONJUGATION, bar=[0, 1]),
     "shape: bar table has the wrong length"),
    ("h1", swapped_group_entries(edited(S3_CONJUGATION), 1, 2, 4),
     "associativity: (1,2,1)"),
    ("h1", edited(Z3_NEGATION, bar=[0, -1, 1]),
     "involution: bar is not an involutive automorphism"),
    ("twisted", edited(S3_REFLECTION, theta=[0, 1, 2, 3, 4, 99]),
     "involution: theta is not an involutive automorphism"),
    ("twisted", edited(S3_REFLECTION, b_elements=[1]),
     "subgroup: B is not a subgroup"),
    ("twisted", swapped_group_entries(edited(S3_REFLECTION), 1, 3, 4),
     "associativity: (1,1,2)"),
    ("hfp", edited(EG_S3_CONJUGATION, bar_mor=list(range(36))),
     "src: morphism 1"),
    ("hfp", edited(EG_S3, bar_obj=[9, 1, 2, 3, 4, 5]),
     "shape: bar tables are not permutations"),
    ("hfp", shortened(EG_S3, "bar_mor"),
     "shape: bar tables do not match the carrier"),
    ("hfp", edited(NOT_A_GROUPOID),
     "carrier inverse: 1 then inv(1) is not the identity"),
    ("colimit", shortened(random_filtered_diagram(random.Random("x:1")),
                          "arrows", -1, "obj_map"),
     "arrow 9: shape: map tables do not match the domain"),
    ("colimit", edited(one_node_diagram(NOT_A_GROUPOID)),
     "node 0: carrier inverse: 1 then inv(1) is not the identity"),
    ("stalk", shortened(constant_presheaf_action(sierpinski_site(), BZ2_TRIVIAL),
                        "res", 0, 2, "mor_map"),
     "restriction (1,0): shape: map tables do not match the domain"),
    ("stalk", edited(constant_presheaf_action(sierpinski_site(), NOT_A_GROUPOID)),
     "section 0: inverse: 1 then inv(1) is not the identity"),
], ids=["h1-bar-out-of-range", "h1-bar-short", "h1-group-table", "h1-bar-negative",
        "twisted-theta", "twisted-b-elements", "twisted-group-table",
        "hfp-bar-not-a-functor", "hfp-bar-obj-out-of-range", "hfp-bar-mor-short",
        "hfp-carrier", "colimit-arrow-short", "colimit-carrier",
        "stalk-restriction-short", "stalk-carrier"])
def test_h1_and_twisted_validate_before_computing(tmp_path, capsys, command, doc, problem):
    f = write_json(tmp_path, "bad.json", doc)
    code, out = invoke(["validate", f])
    assert code == 1 and out.startswith(problem + "\n")
    code, out = invoke([command, f])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {f}: {problem}\n"


def group_doc(**fields):
    doc = json.loads(dumps(group_catalog()["S3"]))
    doc.update(fields)
    return doc


def short_index_tgt():
    doc = json.loads(dumps(random_filtered_diagram(random.Random(3))))
    doc["index"]["tgt"].pop()
    return doc


def overlong_point_open():
    doc = json.loads(dumps(random_site(random.Random(5))))
    doc["point_open"].append(99)
    return doc


# documents on which ``validate`` used to raise or pass instead of reporting
@pytest.mark.parametrize("doc, code, out, err", [
    (group_doc(table=[[0, 1], [1]]), 2, "", "group: row 1 has length 1, expected 2"),
    (group_doc(labels=["e"]), 1,
     "labels: labels has 1 entries, expected 6\ninvalid: 1 problem(s)\n", None),
    (edited(random_site(random.Random(5)), point_open=[]), 1,
     "shape: one least open per point expected\ninvalid: 1 problem(s)\n", None),
    (overlong_point_open(), 1,
     "shape: one least open per point expected\ninvalid: 1 problem(s)\n", None),
    (group_doc(labels=list("abcdefg")), 1,
     "labels: labels has 7 entries, expected 6\ninvalid: 1 problem(s)\n", None),
    (group_doc(kind=[]), 2, "", "unknown kind []"),
    (short_index_tgt(), 2, "", "diagram: index tgt is shorter than src"),
], ids=["group-short-row", "group-labels", "site-point-open", "site-point-open-long",
        "group-labels-long", "kind-not-a-string", "diagram-short-tgt"])
def test_validate_reports_malformed_documents_without_a_traceback(
        tmp_path, capsys, doc, code, out, err):
    f = write_json(tmp_path, "bad.json", doc)
    assert invoke(["validate", f]) == (code, out)
    assert capsys.readouterr().err == ("" if err is None else f"error: {err}\n")


# sha256 of each command's --json output, recorded before the CLI and the
# document writer shared one JSON text helper; stalk's was recorded later,
# while that helper still called json.dumps
JSON_OUTPUT_SHA256 = {
    "hfp": "a8f54db7f0efe96ec3177505c293098e3e70ff27b27eacbee3187e22be99b110",
    "h1": "0afd51c73c05ea49dbc9257440d87707b78bd63f98f6a2a83ef8cbc9eff5a629",
    "twisted": "7155a1b8460a0d394903af99bae57b03904e664a611980ac120cacd42e0aab31",
    "colimit": "09370b85d045d2dd444a30457dee01ac428db736dad555b74eef8e5142679148",
    "stalk": "5339ec5bd6f2178dcbe971bf9347c5b5a485778e7c10cc3116c7488185ca01f6",
}


@pytest.mark.parametrize("command", sorted(JSON_OUTPUT_SHA256))
def test_json_output_bytes_are_unchanged(tmp_path, command):
    s3 = group_catalog()["S3"]
    doc = {"hfp": eg_gamma_action(s3, conjugation_automorphism(s3, 1)),
           "h1": gamma_group_fixtures()[8],
           "twisted": involutive_fixtures()[3],
           "colimit": random_filtered_diagram(random.Random(3)),
           "stalk": random_presheaf_action(random.Random(3))}[command]
    code, out = invoke([command, write(tmp_path, "doc.json", doc), "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_OUTPUT_SHA256[command]


BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_compute_commands_match_the_recorded_document_hashes(tmp_path, monkeypatch):
    # the seed-0 presheaf and diagram documents of the benchmark, rebuilt in
    # tmp_path; bench/ is only read (no bytecode is written there)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("expect", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    workloads = importlib.import_module("workloads")
    reference = json.loads((BENCH / "reference" / "documents_seed0.json").read_text())
    grpd = importlib.import_module("grpd")
    for module in ("core", "corpus", "groups", "jsonio"):
        importlib.import_module(f"grpd.{module}")
    docs = workloads.Documents(grpd, 0, tmp_path, BENCH / "reference")
    checked = 0
    for kind, stem, obj in docs._objects():
        command = {"presheaf": "stalk", "diagram": "colimit"}.get(kind)
        if command is None:
            continue
        path = tmp_path / f"{stem}.json"
        path.write_text(dumps(obj))
        code, out = invoke([command, str(path)])
        assert [code, hashlib.sha256(out.encode()).hexdigest()] == reference[
            f"{command} {path.name}"], path.name
        checked += 1
    assert checked == 160
