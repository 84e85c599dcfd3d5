"""The mutation catalog: small faults in ``src/grpd`` that the tests must catch.

Each entry names a file under ``src/grpd``, an ``old`` snippet that occurs
exactly once in it, its ``new`` replacement, and the test node ids that must
fail once the snippet is replaced.  ``python tests/mutants.py`` copies
``src/`` into a temporary directory and, one mutant at a time, applies it
there and runs its node ids against the copy (``PYTHONPATH`` at the copy,
``-x -q -p no:cacheprovider``, one subprocess at a time), after checking
that they pass on the unmutated copy.  It prints each mutant as killed or
survived with its time, and exits 1 if any survived.
``tests/test_exports.py`` checks, without running any mutant, that every
snippet occurs once and every node id names a test.

A change that adds an optimised path adds its mutants here.  pytest does not
collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


COLIMIT = "tests/test_colimit.py::"
PRESHEAF = "tests/test_presheaf.py::"
SWEEP = "tests/test_sweep.py::"
ROWS = "tests/test_rows.py::"
REPR = "tests/test_representations.py::"

CATALOG = (
    # the fast deciders
    Mutant("is-fibration-skips-a-lift", "core.py",
           "issuperset(cod_out_of[f.obj_map[x]])", "issuperset(cod_out_of[f.obj_map[x]][1:])",
           (SWEEP + "test_hfp_map_preserves_fibrations_and_weak_equivalences",)),
    Mutant("is-weak-equivalence-skips-vertex-groups", "core.py",
           "if len({mor_map[k] for k in auts}) != len(auts) or", "if False and",
           ("tests/test_core.py::test_is_weak_equivalence_agrees_with_the_hom_pair_routine",)),
    # colimits by generators and terminal nodes
    Mutant("induced-map-reads-the-next-cocone", "colimit.py",
           "[c.obj_map for c in co.cocones], [f.obj_map for f in maps])",
           "[c.obj_map for c in co.cocones[1:] + co.cocones[:1]], [f.obj_map for f in maps])",
           ("tests/test_colimit.py::test_induced_involution_agrees_with_the_per_node_reference",)),
    Mutant("generators-not-pruned", "util.py",
           "        if g in seen:\n            gens.remove(g)\n"
           "        else:\n            others.append(g)",
           "        others.append(g)",
           ("tests/test_core.py::test_generators_of_a_poset_are_its_covering_relations",)),
    Mutant("generators-count-no-unit-as-reached", "util.py",
           "    for k in units:\n        reached[k] = 1", "",
           ("tests/test_core.py::test_generators_of_a_group_are_never_its_identity",)),
    Mutant("diagram-fast-path-skips-functoriality", "colimit.py",
           "    return not _functoriality_report(d)", "    return True",
           ("tests/test_colimit.py::test_validate_diagram_agrees_with_the_all_arrows_report",)),
    Mutant("presheaf-fast-path-skips-cover-functors", "presheaf.py",
           "if validate_functor(f) if covers else _map_shape_report(f):",
           "if _map_shape_report(f):",
           (PRESHEAF + "test_validate_presheaf_agrees_with_the_all_restrictions_report",)),
    Mutant("colimit-reads-node-0", "colimit.py",
           "    reps = _terminal_nodes(index)", "    reps = [0]",
           (COLIMIT + "test_colimit_groupoids_agrees_with_the_table_reading_reference",)),
    Mutant("colimit-skips-endomorphism-generators", "colimit.py",
           "        f = maps[u]\n        for x, y in enumerate(f.obj_map):",
           "        f = maps[u]\n        if i == j:\n            continue\n"
           "        for x, y in enumerate(f.obj_map):",
           ("tests/test_colimit.py::test_colimit_groupoids_agrees_with_the_all_arrows_routine",)),
    # sites, shared fixed points, supplied incidence and labels on demand
    Mutant("meet-check-takes-a-subset", "presheaf.py",
           "if not any(down[w] == lower for w in lower):",
           "if not any(down[w] <= lower for w in lower):",
           ("tests/test_presheaf.py::test_validate_site_agrees_with_the_pairwise_meet_check",)),
    Mutant("hfp-each-without-dedupe", "gamma.py",
           "        if id(a) not in fps:\n            fps[id(a)] = hfp(a)",
           "        fps[id(a)] = hfp(a)",
           ("tests/test_presheaf.py::test_presheaf_hfp_computes_a_repeated_involution_once",)),
    Mutant("hfp-map-without-reuse", "gamma.py",
           "cod_fp = dom_fp if e.cod_action is e.dom_action else hfp(e.cod_action)",
           "cod_fp = hfp(e.cod_action)",
           (PRESHEAF + "test_hfp_map_of_an_endomorphism_computes_the_fixed_points_once",)),
    Mutant("hfp-rows-reversed", "gamma.py",
           "out_of=map(range, starts, starts[1:]),",
           "out_of=[range(b - 1, a - 1, -1) for a, b in zip(starts, starts[1:])],",
           (REPR + "test_supplied_out_of_is_the_generic_index_on_the_ladder_rungs",)),
    Mutant("action-groupoid-last-row-short", "core.py",
           "out_of=[range(x, len(src), nx) for x in range(nx)],",
           "out_of=[range(x, len(src) - 1, nx) for x in range(nx)],",
           (REPR + "test_supplied_out_of_is_the_generic_index_on_corpus_carriers",)),
    Mutant("product-labels-swapped", "core.py",
           'return [f"({a},{b})" for a in g_objs() for b in hs]',
           'return [f"({b},{a})" for a in g_objs() for b in hs]',
           (REPR + "test_label_rules_read_tables_as_the_eager_readers_did",)),
    Mutant("union-labels-reversed", "core.py",
           "return [label for objs, _ in label_rules for label in objs()]",
           "return [label for objs, _ in label_rules[::-1] for label in objs()]",
           (REPR + "test_label_rules_give_the_eager_labels_on_every_random_gamma_pattern",)),
    Mutant("hfp-object-labels-read-the-base", "gamma.py",
           'f"({xs[o.base]},{ms[o.phi]})"', 'f"({xs[o.base]},{ms[o.base]})"',
           (REPR + "test_label_rules_give_the_eager_labels_on_every_random_gamma_pattern",)),
    Mutant("hfp-reads-labels-eagerly", "gamma.py",
           "            out_of=map(range, starts, starts[1:]),\n        )\n",
           "            out_of=map(range, starts, starts[1:]),\n        )\n"
           "        groupoid.obj_labels\n",
           (REPR + "test_label_rules_give_the_eager_labels_on_every_random_gamma_pattern",)),
    Mutant("hfp-scan-without-the-range-guard", "gamma.py",
           "                keys = [k if 0 <= c < n else -1 for k, c in zip(keys, composites)]",
           "                pass",
           ("tests/test_gamma.py::test_a_composite_out_of_range_lifts_no_arrow",)),
    # hfp's closure on generators and counts
    Mutant("hfp-closure-without-generator-rows", "gamma.py",
           "for k in chain(aut_generators(r, a0, h),", "for k in chain((),",
           (ROWS + "test_a_generator_whose_row_does_not_lift_raises",)),
    Mutant("hfp-closure-without-star-rows", "gamma.py",
           "                           sorted(k for x, k in star.items() if x != r)):",
           "                           ()):",
           (ROWS + "test_a_composite_moved_to_a_parallel_arrow_fails_the_closure_check",)),
    Mutant("hfp-closure-without-the-return-check", "gamma.py",
           "if any(tgt[inv[k]] != r for x, k in star.items() if x != r):", "if False:",
           (ROWS + "test_a_star_arrow_whose_inverse_does_not_return_raises",)),
    Mutant("hfp-closure-without-the-root-count", "gamma.py",
           "if a1 - a0 != h * len(star):", "if False:",
           (ROWS + "test_a_root_with_too_few_arrows_out_raises",)),
    Mutant("hfp-closure-without-the-out-degree-count", "gamma.py",
           "x = next((x for x in star if len(lifts[x]) != a1 - a0), None)", "x = None",
           (ROWS + "test_a_fixed_point_with_fewer_arrows_out_than_its_root_raises",)),
    Mutant("hfp-picker-without-the-range-check", "gamma.py",
           "if ps and not 0 <= min(ps) <= max(ps) < h:", "if False:",
           (ROWS + "test_hfp_agrees_with_the_pair_construction_on_bars_that_are_not_functors",)),
    Mutant("hfp-picker-without-the-unit", "gamma.py",
           "units = (unit,) if 0 <= unit < h else ()", "units = ()",
           (ROWS + "test_the_closure_reads_one_row_per_generator",)),
    Mutant("hfp-picker-shortcut-without-a-generator", "gamma.py",
           "return [a0 + p for p in range(h) if p not in units]", "return []",
           (ROWS + "test_a_generator_whose_row_does_not_lift_raises",)),
    Mutant("hfp-closure-reads-all-of-aut", "gamma.py",
           "return [a0 + p for p in _generators((0,) * h, (0,) * h, (range(h),), each_aut, units)]",
           "return list(range(a0, a0 + h))",
           (ROWS + "test_the_closure_of_bg_s6_reads_generators_not_every_arrow_out_of_a_root",)),
    Mutant("is-automorphism-on-the-first-generator", "groups.py",
           "for a in _generators(*_one_object(table), (g.identity,)))",
           "for a in _generators(*_one_object(table), (g.identity,))[:1])",
           ("tests/test_groups.py::"
            "test_is_automorphism_on_generators_agrees_with_the_all_rows_check",)),
    Mutant("product-inv-from-id-of", "core.py",
           "inv = [a * nm + b for a in g.inv for b in h.inv]",
           "inv = [a * nm + b for a in g.id_of for b in h.id_of]",
           (REPR + "test_products_and_eg_bars_give_the_entrywise_tables",)),
    Mutant("eg-bar-transposed", "corpus.py",
           "bar_mor = tuple([t * n + u for t in theta for u in theta])",
           "bar_mor = tuple([u * n + t for t in theta for u in theta])",
           (REPR + "test_products_and_eg_bars_give_the_entrywise_tables",)),
    # the definition of the fixed points and of the induced map
    Mutant("hfp-drops-bar-phi-is-inverse", "gamma.py",
           "if g_tgt[phi] == bar_x and bar_mor[phi] == g_inv[phi])",
           "if g_tgt[phi] == bar_x)",
           ("tests/test_gamma.py::test_hfp_agrees_with_a_brute_force_fixed_point_enumeration",)),
    Mutant("hfp-map-lifts-out-of-the-target", "gamma.py",
           "cod_fp.morphism_id(obj_map[dom_fp.groupoid.src[m]],",
           "cod_fp.morphism_id(obj_map[dom_fp.groupoid.tgt[m]],",
           (SWEEP + "test_hfp_map_preserves_fibrations_and_weak_equivalences",)),
    # input validation
    Mutant("enumerate-functors-caps-the-search", "suites.py",
           "        if not all(choices):\n            continue",
           "        if not all(choices) or math.prod(map(len, choices)) > 50000:\n"
           "            continue",
           ("tests/test_suites.py::test_enumerate_functors_finds_every_functor_of_the_catalog",)),
    Mutant("group-rows-checked-for-short-only", "groups.py",
           "if len(row) != n:\n            raise ValueError",
           "if len(row) < n:\n            raise ValueError",
           ("tests/test_cli.py::test_validate_reports_malformed_documents_without_a_traceback",)),
    Mutant("group-labels-checked-for-short-only", "groups.py",
           "if g.labels is not None and len(g.labels) != n:",
           "if g.labels is not None and len(g.labels) < n:",
           ("tests/test_cli.py::test_validate_reports_malformed_documents_without_a_traceback",)),
    Mutant("groupoid-labels-checked-for-short-only", "core.py",
           "if labels is not None and len(labels) != size]",
           "if labels is not None and len(labels) < size]",
           ("tests/test_core.py::test_validate_groupoid_reports_labels_of_the_wrong_length",)),
    Mutant("site-points-checked-for-short-only", "presheaf.py",
           "if len(s.point_open) != s.n_points:", "if len(s.point_open) < s.n_points:",
           ("tests/test_cli.py::test_validate_reports_malformed_documents_without_a_traceback",)),
    Mutant("diagram-index-tgt-unchecked", "jsonio.py",
           "if len(index.tgt) < index.n_morphisms:", "if False:",
           ("tests/test_cli.py::test_validate_reports_malformed_documents_without_a_traceback",)),
)


def _pytest(copy: Path, tests) -> int:
    """pytest's exit code for the node ids ``tests`` run against the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, capture_output=True).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        # the unmutated copy passes every listed test, so a mutant's tests
        # that fail or no longer collect have caught it
        if _pytest(copy, dict.fromkeys(t for m in CATALOG for t in m.tests)):
            print("the catalog's tests fail without any mutant")
            return 1
        survived = 0
        for m in CATALOG:
            path = copy / "grpd" / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new, 1))
            t0 = time.perf_counter()
            try:
                killed = _pytest(copy, m.tests) != 0
            finally:
                path.write_text(original)
            survived += not killed
            print(f"{'killed' if killed else 'survived':8} {time.perf_counter() - t0:5.1f} s"
                  f"  {m.name}", flush=True)
    print(f"{len(CATALOG) - survived} of {len(CATALOG)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
