"""Named check suites over the generated corpora.

Each suite draws its instances from a seed-determined generator, so its
report lines are reproducible byte for byte.  A suite returns whether it
passed and its lines; ``run_suite`` times it and records the elapsed time on
the result, kept out of the lines for that reason.

The frozen tables in this module were computed by direct enumeration over
the concrete groups, independently of the package code; the unit tests
recompute them a third way.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import corpus
from .cohomology import bg_hfp_decomposition, skeletonize
from .colimit import NotFilteredError, colimit, filtered_witness, hfp_colimit_comparison, validate_diagram
from .core import (
    FiniteGroupoid,
    GroupoidMap,
    groupoid_cardinality,
    is_fibration,
    is_weak_equivalence,
    validate_functor,
)
from .gamma import hfp, hfp_map, swap_comparison
from .presheaf import (
    is_local_fib,
    is_local_weq,
    is_sectionwise_fib,
    is_sectionwise_weq,
    presheaf_hfp,
    stalk,
    stalk_commutation_check,
    stalk_map,
    validate_presheaf_gamma_action,
)
from .twisted import parameter_fibration

__all__ = [
    "SuiteResult",
    "SUITE_NAMES",
    "EXPECTED_BG",
    "EXPECTED_TWISTED",
    "naive_is_fibration",
    "naive_is_weak_equivalence",
    "enumerate_functors",
    "run_suite",
    "run_all",
]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    lines: tuple[str, ...]
    elapsed: float


def _rng(seed: int, name: str) -> random.Random:
    # seeding with a string is stable across processes, unlike hashing
    return random.Random(f"{seed}:{name}")


_COUNTS = {
    "full": {"iota": 200, "preserve": 200, "swap": 20, "colimit": 100,
             "presheaf": 50, "sectionwise": 50, "cap": 50000},
    "small": {"iota": 30, "preserve": 30, "swap": 6, "colimit": 15,
              "presheaf": 8, "sectionwise": 8, "cap": 2000},
}


# ---------------------------------------------------------------------------
# reference implementations: direct quantifier loops, no indexing tricks


def naive_is_fibration(f: GroupoidMap) -> bool:
    g, h = f.dom, f.cod
    for x in g.objects():
        for m in h.morphisms():
            if h.src[m] != f.obj_map[x]:
                continue
            if not any(f.mor_map[k] == m and g.src[k] == x for k in g.morphisms()):
                return False
    return True


def naive_is_weak_equivalence(f: GroupoidMap) -> bool:
    g, h = f.dom, f.cod
    for x in g.objects():
        for y in g.objects():
            image = [f.mor_map[k] for k in g.morphisms()
                     if g.src[k] == x and g.tgt[k] == y]
            cod_hom = [m for m in h.morphisms()
                       if h.src[m] == f.obj_map[x] and h.tgt[m] == f.obj_map[y]]
            if len(set(image)) != len(image) or sorted(set(image)) != sorted(cod_hom):
                return False
    for z in h.objects():
        reachable = {z}
        changed = True
        while changed:
            changed = False
            for m in h.morphisms():
                if h.src[m] in reachable and h.tgt[m] not in reachable:
                    reachable.add(h.tgt[m])
                    changed = True
                elif h.tgt[m] in reachable and h.src[m] not in reachable:
                    reachable.add(h.src[m])
                    changed = True
        if not any(f.obj_map[x] in reachable for x in g.objects()):
            return False
    return True


def _functor_laws(a: FiniteGroupoid):
    """The functor laws on the domain, filed under the largest morphism each
    mentions: per morphism, the objects it is the identity of, the inverse
    pairs ``(k, inv[k])`` and the composition triples ``(m1, m2, m3)``."""
    identities = [[] for _ in a.morphisms()]
    inverses = [[] for _ in a.morphisms()]
    triples = [[] for _ in a.morphisms()]
    for x, k in enumerate(a.id_of):
        identities[k].append(x)
    for k, l in enumerate(a.inv):
        inverses[max(k, l)].append((k, l))
    for (m1, m2), m3 in a.compositions():
        triples[max(m1, m2, m3)].append((m1, m2, m3))
    return identities, inverses, triples


def enumerate_functors(a: FiniteGroupoid, b: FiniteGroupoid, cap: int = 50000):
    """All functors a -> b, in lexicographic order of (obj_map, mor_map).

    Object assignments whose morphism search space, the product of the
    hom-set sizes, is 0 or exceeds the cap are skipped.  Otherwise morphisms
    are assigned depth-first in order, and an image is accepted only if the
    laws whose largest morphism it is hold: identities go to identities,
    inverses to inverses, composites to composites.  Every complete
    assignment is still checked with ``validate_functor`` before it is
    yielded."""
    identities, inverses, triples = _functor_laws(a)
    b_id, b_inv, b_comp = b.id_of, b.inv, b.comp
    n = a.n_morphisms
    img = [0] * n

    def search(obj_map, choices, m):
        if m == n:
            yield tuple(img)
            return
        for c in choices[m]:
            img[m] = c
            if (all(c == b_id[obj_map[x]] for x in identities[m])
                    and all(img[l] == b_inv[img[k]] for k, l in inverses[m])
                    and all(b_comp.get((img[m1], img[m2])) == img[m3]
                            for m1, m2, m3 in triples[m])):
                yield from search(obj_map, choices, m + 1)

    for obj_map in itertools.product(range(b.n_objects), repeat=a.n_objects):
        choices = [b.hom(obj_map[x], obj_map[y]) for x, y in zip(a.src, a.tgt)]
        size = math.prod(map(len, choices))
        if size == 0 or size > cap:
            continue
        for mor_map in search(obj_map, choices, 0):
            f = GroupoidMap(a, b, obj_map, mor_map)
            if not validate_functor(f):
                yield f


# ---------------------------------------------------------------------------
# frozen expectations

# (|Z1|, |H1|, sorted stabilizer orders), one row per gamma_group_fixtures()
EXPECTED_BG = (
    (2, 2, (2, 2)),          # Z2, identity
    (3, 1, (1,)),            # Z3, negation
    (2, 2, (4, 4)),          # Z4, identity
    (4, 2, (2, 2)),          # Z4, negation
    (6, 2, (2, 2)),          # Z6, negation
    (4, 4, (4, 4, 4, 4)),    # V4, identity
    (2, 1, (2,)),            # V4, swap
    (4, 2, (2, 6)),          # S3, identity
    (4, 2, (2, 6)),          # S3, conjugation by a transposition
    (6, 4, (4, 4, 8, 8)),    # D4, identity
    (6, 4, (4, 4, 8, 8)),    # D4, conjugation by a reflection
    (4, 2, (2, 6)),          # GL2(F2), transpose-inverse
)

# (|Z|, sorted (orbit size, stabilizer order), |X|, |Y|, cardinality),
# one row per involutive_fixtures()
EXPECTED_TWISTED = (
    (2, ((1, 2), (1, 2)), 4, 4, Fraction(1)),                          # Z2, id, Z2
    (4, ((1, 2), (1, 2), (1, 2), (1, 2)), 8, 8, Fraction(2)),          # Z4, neg, {0,2}
    (4, ((2, 2), (2, 2)), 16, 16, Fraction(1)),                        # Z4, neg, Z4
    (6, ((1, 2),) * 6, 12, 12, Fraction(3)),                           # Z6, neg, {0,3}
    (2, ((1, 2), (1, 2)), 4, 4, Fraction(1)),                          # V4, swap, diagonal
    (4, ((1, 2), (1, 2), (2, 1)), 8, 8, Fraction(2)),                  # S3, id, reflection
    (4, ((1, 3), (3, 1)), 12, 12, Fraction(4, 3)),                     # S3, id, A3
    (4, ((1, 2), (1, 2), (2, 1)), 8, 8, Fraction(2)),                  # S3, conj, reflection
    (6, ((1, 2),) * 6, 12, 12, Fraction(3)),                           # D4, conj, center
    (4, ((1, 2), (1, 2), (2, 1)), 8, 8, Fraction(2)),                  # GL2(F2), tinv, flip
    (4, ((1, 2), (1, 2), (2, 1)), 8, 8, Fraction(2)),                  # GL2(F2), id, upper
)


# ---------------------------------------------------------------------------
# suites


def suite_iota_fibration(seed: int, size: str = "full") -> tuple[bool, list[str]]:
    n = _COUNTS[size]["iota"]
    rng = _rng(seed, "iota-fibration")
    failures = 0
    for _ in range(n):
        a = corpus.random_gamma_action(rng, 60)
        if not is_fibration(hfp(a).iota()):
            failures += 1
    lines = [f"forgetful maps checked: {n}; fibration failures: {failures}"]
    return failures == 0, lines


def suite_hfp_preservation(seed: int, size: str = "full") -> tuple[bool, list[str]]:
    n = _COUNTS[size]["preserve"]
    rng = _rng(seed, "hfp-preservation")
    bad = {"fib-input": 0, "fib-output": 0, "weq-input": 0, "weq-output": 0}
    for _ in range(n):
        e = corpus.random_equivariant_fibration(rng)
        if not is_fibration(e.map):
            bad["fib-input"] += 1
        if not is_fibration(hfp_map(e)):
            bad["fib-output"] += 1
    for _ in range(n):
        e = corpus.random_equivariant_weq(rng)
        if not is_weak_equivalence(e.map):
            bad["weq-input"] += 1
        if not is_weak_equivalence(hfp_map(e)):
            bad["weq-output"] += 1
    neg = corpus.negative_control_map()
    neg_fp = hfp_map(neg)
    control_ok = not (is_fibration(neg.map) or is_weak_equivalence(neg.map)
                      or is_fibration(neg_fp) or is_weak_equivalence(neg_fp))
    lines = [
        f"fibrations checked: {n}; input failures: {bad['fib-input']}; "
        f"fixed point failures: {bad['fib-output']}",
        f"equivalences checked: {n}; input failures: {bad['weq-input']}; "
        f"fixed point failures: {bad['weq-output']}",
        "negative control stays negative: " + ("yes" if control_ok else "no"),
    ]
    passed = control_ok and not any(bad.values())
    return passed, lines


def suite_swap_cardinality(seed: int, size: str = "full") -> tuple[bool, list[str]]:
    rng = _rng(seed, "swap-cardinality")
    gs = list(corpus.swap_corpus())
    gs.extend(corpus.random_groupoid(rng, 7) for _ in range(_COUNTS[size]["swap"]))
    bad_verdict = bad_card = 0
    for g in gs:
        c = swap_comparison(g)
        if not c.is_weak_equivalence:
            bad_verdict += 1
        if groupoid_cardinality(c.fixed_points.groupoid) != groupoid_cardinality(g):
            bad_card += 1
    lines = [
        f"groupoids checked: {len(gs)}; equivalence failures: {bad_verdict}; "
        f"cardinality mismatches: {bad_card}",
    ]
    return bad_verdict == 0 and bad_card == 0, lines


def suite_bg_decomposition(seed: int, size: str = "full") -> tuple[bool, list[str]]:
    fixtures = corpus.gamma_group_fixtures()
    mismatches = []
    not_weq = 0
    for i, (a, expected) in enumerate(zip(fixtures, EXPECTED_BG)):
        dec = bg_hfp_decomposition(a)
        classes = dec.classes  # the cocycle classes, which partition Z1
        got = (sum(len(c.members) for c in classes), len(classes),
               tuple(sorted(len(c.stabilizer) for c in classes)))
        if got != expected:
            mismatches.append(f"fixture {i} ({a.group.name}): {got} != {expected}")
        if not dec.is_weak_equivalence:
            not_weq += 1
        sk = skeletonize(dec.fixed_points.groupoid)
        if len(sk.parts) != expected[1] or not sk.is_weak_equivalence:
            mismatches.append(f"fixture {i} ({a.group.name}): skeleton disagrees")
    lines = [
        f"fixtures checked: {len(fixtures)}; value mismatches: {len(mismatches)}; "
        f"decomposition equivalence failures: {not_weq}",
    ] + mismatches
    return not mismatches and not_weq == 0, lines


def suite_parameter_fibration(seed: int, size: str = "full") -> tuple[bool, list[str]]:
    fixtures = corpus.involutive_fixtures()
    mismatches = []
    not_acyclic = 0
    for i, (d, expected) in enumerate(zip(fixtures, EXPECTED_TWISTED)):
        pf = parameter_fibration(d)
        if not (pf.is_fibration and pf.is_weak_equivalence):
            not_acyclic += 1
        corr = pf.correspondence
        got = (
            len(pf.cocycles.elements),
            tuple(sorted((len(o.members), len(o.stabilizer)) for o in pf.orbits)),
            len(corr.x_elements),
            len(corr.y_elements),
            groupoid_cardinality(pf.target),
        )
        if got != expected:
            mismatches.append(f"fixture {i} ({d.group.name}): {got} != {expected}")
        if len(pf.fixed_points.objects) != len(corr.x_elements):
            mismatches.append(f"fixture {i} ({d.group.name}): fixed points disagree with X")
    lines = [
        f"fixtures checked: {len(fixtures)}; value mismatches: {len(mismatches)}; "
        f"acyclic fibration failures: {not_acyclic}",
    ] + mismatches
    return not mismatches and not_acyclic == 0, lines


def suite_colimit_commutation(seed: int, size: str = "full") -> tuple[bool, list[str]]:
    n = _COUNTS[size]["colimit"]
    rng = _rng(seed, "colimit-commutation")
    bad_shape = bad_verdict = 0
    for _ in range(n):
        d = corpus.random_filtered_diagram(rng)
        if validate_diagram(d) or filtered_witness(d.index) is not None:
            bad_shape += 1
            continue
        if not hfp_colimit_comparison(d).is_isomorphism:
            bad_verdict += 1
    control = corpus.nonfiltered_control_diagram()
    control_ok = filtered_witness(control.index) is not None
    try:
        colimit(control)
        control_ok = False
    except NotFilteredError:
        pass
    control_verdict = hfp_colimit_comparison(control, require_filtered=False).is_isomorphism
    lines = [
        f"filtered diagrams checked: {n}; shape failures: {bad_shape}; "
        f"comparison failures: {bad_verdict}",
        "non-filtered control rejected and refuted: "
        + ("yes" if control_ok and not control_verdict else "no"),
    ]
    passed = bad_shape == 0 and bad_verdict == 0 and control_ok and not control_verdict
    return passed, lines


def suite_stalk_commutation(seed: int, size: str = "full") -> tuple[bool, list[str]]:
    rng = _rng(seed, "stalk-commutation")
    n = _COUNTS[size]["presheaf"]
    bad_shape = bad_verdict = bad_germ = 0
    points = 0
    for _ in range(n):
        a = corpus.random_presheaf_action(rng)
        if validate_presheaf_gamma_action(a):
            bad_shape += 1
            continue
        ph = presheaf_hfp(a)
        for t in a.presheaf.site.points():
            points += 1
            c = stalk_commutation_check(a, t, ph.fixed_points)
            if not c.is_isomorphism:
                bad_verdict += 1
            if stalk(ph.presheaf, t).groupoid != c.lhs:
                bad_germ += 1
    m = _COUNTS[size]["sectionwise"]
    sw_weq = sw_fib = broken = 0
    for _ in range(m):
        f = corpus.random_sectionwise_map(rng)
        weq, fib = is_sectionwise_weq(f), is_sectionwise_fib(f)
        # each stalk map is built once and decided both ways
        stalk_maps = [stalk_map(f, t) for t in f.dom.site.points()] if weq or fib else []
        if weq:
            sw_weq += 1
            if not all(map(is_weak_equivalence, stalk_maps)):
                broken += 1
        if fib:
            sw_fib += 1
            if not all(map(is_fibration, stalk_maps)):
                broken += 1
    lnw = corpus.local_not_sectionwise_weq()
    lnf = corpus.local_not_sectionwise_fib()
    fixtures_ok = (is_local_weq(lnw) and not is_sectionwise_weq(lnw)
                   and is_local_fib(lnf) and not is_sectionwise_fib(lnf))
    lines = [
        f"presheaves checked: {n} over {points} points; shape failures: {bad_shape}; "
        f"comparison failures: {bad_verdict}; stalk mismatches: {bad_germ}",
        f"sectionwise maps checked: {m} ({sw_weq} equivalences, {sw_fib} fibrations); "
        f"local failures: {broken}",
        "local-but-not-sectionwise fixtures behave: " + ("yes" if fixtures_ok else "no"),
    ]
    passed = (bad_shape == bad_verdict == bad_germ == broken == 0
              and sw_weq > 0 and sw_fib > 0 and fixtures_ok)
    return passed, lines


def suite_oracle_agreement(seed: int, size: str = "full") -> tuple[bool, list[str]]:
    cap = _COUNTS[size]["cap"]
    catalog = corpus.small_groupoid_catalog()
    checked = fib_dis = weq_dis = 0
    for a in catalog:
        for b in catalog:
            for f in enumerate_functors(a, b, cap=cap):
                checked += 1
                if is_fibration(f) != naive_is_fibration(f):
                    fib_dis += 1
                if is_weak_equivalence(f) != naive_is_weak_equivalence(f):
                    weq_dis += 1
    lines = [
        f"functors enumerated: {checked}; fibration disagreements: {fib_dis}; "
        f"equivalence disagreements: {weq_dis}",
    ]
    passed = checked >= 500 and fib_dis == 0 and weq_dis == 0
    return passed, lines


_SUITES = {
    "iota-fibration": suite_iota_fibration,
    "hfp-preservation": suite_hfp_preservation,
    "swap-cardinality": suite_swap_cardinality,
    "bg-decomposition": suite_bg_decomposition,
    "parameter-fibration": suite_parameter_fibration,
    "colimit-commutation": suite_colimit_commutation,
    "stalk-commutation": suite_stalk_commutation,
    "oracle-agreement": suite_oracle_agreement,
}
SUITE_NAMES = tuple(_SUITES)


# The order ``run_all`` hands the suites to its workers: longest first, so
# the longest suite starts at once and the short ones fill in beside it.
# Measured (seed 0, full, in process, median of 5): stalk-commutation 0.46 s,
# hfp-preservation 0.29 s, colimit-commutation 0.23 s, iota-fibration 0.08 s,
# oracle-agreement 0.05 s, the other three under 0.02 s each, 1.12 s in all.
# On two workers this order finishes in about 0.56 s; suite order, which
# starts stalk-commutation seventh, in about 0.74 s.
_LONGEST_FIRST = (
    "stalk-commutation",
    "hfp-preservation",
    "colimit-commutation",
    "iota-fibration",
    "oracle-agreement",
    "swap-cardinality",
    "bg-decomposition",
    "parameter-fibration",
)


def _check_size(size: str) -> None:
    if size not in _COUNTS:
        raise KeyError(f"unknown size {size!r}; known: full, small")


def run_suite(name: str, seed: int = 0, size: str = "full") -> SuiteResult:
    """Run one suite in the calling process."""
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    _check_size(size)
    t0 = time.perf_counter()
    passed, lines = _SUITES[name](seed, size)
    return SuiteResult(name=name, passed=passed, lines=tuple(lines),
                       elapsed=time.perf_counter() - t0)


def run_all(seed: int = 0, size: str = "full") -> list[SuiteResult]:
    """Run every suite, one worker process per usable CPU (at most one per
    suite), and return the results in ``SUITE_NAMES`` order.

    Each suite is a pure function of ``(seed, size)``, so the results equal
    the in-process ones.  The workers are joined before this returns, also
    when a suite raises; its exception reaches the caller as its own type.
    """
    # imported here: at module top they would slow every grpd command's start
    import multiprocessing
    import os
    from concurrent.futures import ProcessPoolExecutor

    _check_size(size)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    # forked workers inherit the imported package instead of importing it
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    with ProcessPoolExecutor(max_workers=min(len(SUITE_NAMES), cpus),
                             mp_context=multiprocessing.get_context(method)) as pool:
        futures = {name: pool.submit(run_suite, name, seed, size)
                   for name in _LONGEST_FIRST}
        return [futures[name].result() for name in SUITE_NAMES]
