import concurrent.futures
import io
import itertools
import multiprocessing
import subprocess
import sys

import pytest

import grpd.suites
from grpd import cli
from grpd.core import GroupoidMap, InvariantViolation, validate_functor
from grpd.corpus import small_groupoid_catalog
from grpd.suites import SUITE_NAMES, enumerate_functors, run_all, run_suite


def reference_enumerate_functors(a, b, cap=50000):
    """The generate-and-test enumeration: every morphism assignment inside
    the hom-sets, filtered by ``validate_functor``."""
    if a.n_objects == 0:
        yield GroupoidMap(a, b, (), ())
        return
    if b.n_objects == 0:
        return
    for combo in itertools.product(range(b.n_objects), repeat=a.n_objects):
        obj_map = tuple(combo)
        choices = [b.hom(obj_map[a.src[m]], obj_map[a.tgt[m]]) for m in a.morphisms()]
        size = 1
        for ch in choices:
            size *= len(ch)
            if size == 0 or size > cap:
                break
        if size == 0 or size > cap:
            continue
        for assignment in itertools.product(*choices):
            f = GroupoidMap(a, b, obj_map, tuple(assignment))
            if not validate_functor(f):
                yield f


@pytest.mark.parametrize("cap, count", [(50000, 792), (2000, 761), (64, 627), (8, 519), (1, 455)])
def test_enumerate_functors_agrees_with_generate_and_test(cap, count):
    catalog = small_groupoid_catalog()
    for a in catalog:
        for b in catalog:
            got = [(f.obj_map, f.mor_map) for f in enumerate_functors(a, b, cap=cap)]
            want = [(f.obj_map, f.mor_map) for f in reference_enumerate_functors(a, b, cap=cap)]
            assert got == want, (a, b, cap)
    assert sum(1 for a in catalog for b in catalog
               for _ in enumerate_functors(a, b, cap=cap)) == count


def test_oracle_validates_only_the_functors_it_yields(monkeypatch):
    # the search prunes on the functor laws, so the definitional check runs
    # once per functor found (the generate-and-test loop made 97 654 calls)
    calls = []

    def counting(f):
        calls.append(f)
        return validate_functor(f)

    monkeypatch.setattr(grpd.suites, "validate_functor", counting)
    result = run_suite("oracle-agreement", 0, "full")
    assert result.passed
    assert result.lines[0].startswith("functors enumerated: 792;")
    assert len(calls) == 792


def _outcomes(results):
    return [(r.name, r.passed, r.lines) for r in results]


@pytest.mark.parametrize("seed", [0, 3])
def test_run_all_equals_the_in_process_runs_and_leaves_no_worker(seed, monkeypatch):
    submitted = []
    submit = concurrent.futures.ProcessPoolExecutor.submit

    def recording(pool, fn, *args):
        submitted.append(args[0])
        return submit(pool, fn, *args)

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit", recording)
    got = run_all(seed, "small")
    assert multiprocessing.active_children() == []
    assert _outcomes(got) == _outcomes(run_suite(n, seed, "small") for n in SUITE_NAMES)
    assert sorted(submitted) == sorted(SUITE_NAMES)
    assert len(submitted) == len(SUITE_NAMES)
    assert submitted[0] == "stalk-commutation"


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="only forked workers inherit the patched suite")
def test_a_suite_that_raises_fails_the_check_and_leaves_no_worker(monkeypatch, capsys):
    def broken(seed, size):
        raise InvariantViolation("broken suite")

    monkeypatch.setitem(grpd.suites._SUITES, "swap-cardinality", broken)
    out = io.StringIO()
    assert cli.run(["check", "--size", "small"], stdout=out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err == "error: broken suite\n"
    assert multiprocessing.active_children() == []

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", no_pool)
    with pytest.raises(KeyError, match="unknown size 'huge'"):
        run_all(0, "huge")


def test_importing_the_cli_loads_no_process_machinery():
    # run_all imports them when it runs; at module top they would slow the
    # start of every grpd command
    code = ("import sys, grpd.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
