import itertools

import pytest

import grpd.suites
from grpd.core import GroupoidMap, validate_functor
from grpd.corpus import small_groupoid_catalog
from grpd.suites import enumerate_functors, run_suite


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
