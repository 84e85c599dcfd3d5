"""End-to-end acceptance checks.

Each test covers one advertised guarantee, asserts the stated bounds, and
prints one [PASS]/[FAIL] line (visible with ``pytest -s``).  The heavy suite
battery runs once per module at seed 0, full size.
"""

import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from grpd.core import groupoid_cardinality
from grpd.corpus import involutive_fixtures, swap_corpus
from grpd.gamma import swap_comparison
from grpd.suites import run_all
from grpd.twisted import parameter_fibration


REFERENCE_REPORT = (Path(__file__).resolve().parents[1]
                    / "bench" / "reference" / "check_seed0_full.txt")


@pytest.fixture(scope="module")
def battery():
    return {r.name: r for r in run_all(seed=0, size="full")}


def report(tag, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}")
    assert ok


def count(result, pattern):
    for line in result.lines:
        m = re.search(pattern, line)
        if m:
            return int(m.group(1))
    raise AssertionError(f"no line matches {pattern!r} in {result.lines}")


def test_criterion_1_iota_is_a_fibration(battery):
    r = battery["iota-fibration"]
    ok = (r.passed
          and count(r, r"forgetful maps checked: (\d+)") >= 200
          and count(r, r"fibration failures: (\d+)") == 0
          and r.elapsed < 60.0)
    report("criterion 1: forgetful map fibration, 200+ instances under 60s", ok)


def test_criterion_2_fixed_points_preserve_fibrations_and_weqs(battery):
    r = battery["hfp-preservation"]
    ok = (r.passed
          and count(r, r"fibrations checked: (\d+)") >= 200
          and count(r, r"equivalences checked: (\d+)") >= 200
          and any(line == "negative control stays negative: yes"
                  for line in r.lines))
    report("criterion 2: fixed points preserve fibrations and equivalences", ok)


def test_criterion_3_swap_involution_cardinality(battery):
    r = battery["swap-cardinality"]
    ok = r.passed and count(r, r"groupoids checked: (\d+)") >= len(swap_corpus())
    x = swap_corpus()[8]
    c = swap_comparison(x)
    ok = (ok and c.is_weak_equivalence
          and groupoid_cardinality(c.fixed_points.groupoid) == Fraction(4, 3))
    report("criterion 3: swap fixed points equivalent, cardinality exact", ok)


def test_criterion_4_one_object_decomposition(battery):
    r = battery["bg-decomposition"]
    ok = (r.passed
          and count(r, r"fixtures checked: (\d+)") >= 10
          and count(r, r"value mismatches: (\d+)") == 0)
    report("criterion 4: cocycle class decomposition on 10+ fixtures", ok)


def test_criterion_5_parameter_fibration(battery):
    r = battery["parameter-fibration"]
    pf = parameter_fibration(involutive_fixtures()[5])
    ok = (r.passed
          and count(r, r"fixtures checked: (\d+)") >= 10
          and pf.is_acyclic_fibration
          and len(pf.fixed_points.objects) == 8
          and len(pf.orbits) == 3
          and groupoid_cardinality(pf.target) == Fraction(2))
    report("criterion 5: twisted parameter map acyclic, pinned example exact", ok)


def test_criterion_6_filtered_colimits_commute(battery):
    r = battery["colimit-commutation"]
    ok = (r.passed
          and count(r, r"filtered diagrams checked: (\d+)") >= 100
          and any(line == "non-filtered control rejected and refuted: yes"
                  for line in r.lines))
    report("criterion 6: fixed points commute with 100+ filtered colimits", ok)


def test_criterion_7_stalkwise_commutation(battery):
    r = battery["stalk-commutation"]
    ok = (r.passed
          and count(r, r"presheaves checked: (\d+)") >= 50
          and any(line == "local-but-not-sectionwise fixtures behave: yes"
                  for line in r.lines))
    report("criterion 7: stalks commute with fixed points on 50+ presheaves", ok)


def test_criterion_8_oracle_agreement(battery):
    r = battery["oracle-agreement"]
    ok = (r.passed
          and count(r, r"functors enumerated: (\d+)") >= 500
          and count(r, r"fibration disagreements: (\d+)") == 0
          and count(r, r"equivalence disagreements: (\d+)") == 0)
    report("criterion 8: fast predicates match the oracle on 500+ functors", ok)


def test_criterion_9_reports_are_byte_identical():
    cmd = ["-m", "grpd.cli", "check", "--seed", "0", "--size", "full"]
    a = subprocess.run([sys.executable, *cmd], capture_output=True)
    # -O strips assert statements, so the invariant checks must not be asserts
    b = subprocess.run([sys.executable, "-O", *cmd], capture_output=True)
    saved = REFERENCE_REPORT.read_bytes()
    ok = (a.returncode == 0 and b.returncode == 0
          and a.stdout == b.stdout == saved)
    report("criterion 9: check reports are byte-identical per seed, "
           "under -O, and to the saved report", ok)
