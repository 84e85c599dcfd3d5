"""The arrows out of each object as builders supply them, and labels as
rules, against the generic index and the labels of the references.

``reference.out_of`` is the index ``FiniteCategory.out_of`` builds from
``src``.  The ``built`` fixture wraps ``build_action_groupoid``,
``disjoint_union`` and ``product`` wherever the package imports them and
records, for each groupoid they make, how to build its reference from the
same inputs.
"""

import importlib
import pkgutil
import random

import pytest

import grpd
from grpd import core, corpus
from grpd.cohomology import GroupGammaAction, bg_hfp_decomposition
from grpd.core import build_eg, relabel
from grpd.corpus import (
    eg_gamma_action,
    involutive_fixtures,
    random_filtered_diagram,
    random_gamma_action,
    random_presheaf_action,
    small_groupoid_catalog,
)
from grpd.gamma import gamma_relabel, hfp, swap_action
from grpd.groups import conjugation_automorphism, dihedral_group, symmetric_group
from test_gamma import small_actions
from test_rows import carriers
from test_sweep import involutions_by_carrier
import reference


def assert_out_of_is_generic(g):
    assert [tuple(row) for row in g.out_of] == reference.out_of(g)


def ladder_rungs():
    """The groupoids of the bench's size ladder: EG(S3..S5) with their fixed
    points under a transposition, BG(S5) decomposed and the swap on EG(D4)."""
    for n in (3, 4, 5):
        g = symmetric_group(n)
        a = eg_gamma_action(g, conjugation_automorphism(g, 1))
        yield a.carrier
        yield hfp(a).groupoid
    g = symmetric_group(5)
    dec = bg_hfp_decomposition(GroupGammaAction(g, conjugation_automorphism(g, 1)))
    yield from (dec.source, dec.fixed_points.action.carrier, dec.fixed_points.groupoid)
    swap = swap_action(build_eg(dihedral_group(4)))
    yield swap.carrier
    yield hfp(swap).groupoid


def test_supplied_out_of_is_the_generic_index_on_corpus_carriers():
    supplied = 0
    groupoids = [g for g, _ in carriers()] + list(small_groupoid_catalog())
    for a in small_actions():
        groupoids += [a.carrier, hfp(a).groupoid]
    rng = random.Random("out-of")
    for _ in range(60):
        a = random_gamma_action(rng)
        groupoids += [a.carrier, hfp(a).groupoid]
    for g in groupoids:
        supplied += g._out_of is not None
        assert_out_of_is_generic(g)
    assert supplied > 100


def test_supplied_out_of_is_the_generic_index_on_the_ladder_rungs():
    for g in ladder_rungs():
        assert_out_of_is_generic(g)


def test_supplied_out_of_is_the_generic_index_on_the_sweep_fixed_points():
    invs = [a for row in involutions_by_carrier() for a in row]
    assert len(invs) == 32
    for a in invs:
        assert_out_of_is_generic(hfp(a).groupoid)


# ---------------------------------------------------------------------------
# labels


def labels(g):
    return g.obj_labels, g.mor_labels


@pytest.fixture
def built(monkeypatch):
    """Each groupoid the three label-building builders make, in order, with a
    function of no arguments giving its reference."""
    made = []
    for name in ("build_action_groupoid", "disjoint_union", "product"):
        original = getattr(core, name)
        build = getattr(reference, name.removeprefix("build_"))

        def wrapper(*args, original=original, build=build):
            g = original(*args)
            made.append((g, lambda: build(*args)))
            return g

        patch_everywhere(monkeypatch, original, wrapper)
    return made


def patch_everywhere(monkeypatch, original, wrapper):
    """Put ``wrapper`` in place of the function ``original`` wherever the
    package imports it."""
    modules = [importlib.import_module(f"grpd.{m.name}")
               for m in pkgutil.iter_modules(grpd.__path__)] + [grpd]
    for module in modules:
        if getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, wrapper)


def assert_labels_match(made):
    # newest first, so that a rule is read before the rules it calls are
    for g, build in reversed(made):
        assert labels(g) == labels(build())


def test_label_rules_give_the_eager_labels_on_every_random_gamma_pattern(built, monkeypatch):
    patterns, drawn = corpus._GAMMA_BUILDERS, set()

    def counted(pattern):
        def draw(rng, budget):
            drawn.add(pattern.__name__)
            return pattern(rng, budget)
        return draw

    monkeypatch.setattr(corpus, "_GAMMA_BUILDERS", tuple(map(counted, patterns)))
    rng = random.Random("label-rules")
    fps = [hfp(random_gamma_action(rng)) for _ in range(150)]
    assert drawn == {pattern.__name__ for pattern in patterns}
    assert all(callable(fp.groupoid._obj_labels) for fp in fps)
    # the fixed points first: their rules call the carriers' rules
    for fp in fps:
        assert labels(fp.groupoid) == labels(reference.hfp(fp.action).groupoid)
    assert len(built) > 150
    assert_labels_match(built)


def test_label_rules_give_the_eager_labels_on_presheaves_and_diagrams(built):
    rng = random.Random("label-rules:nested")
    fps = []
    for seed in range(12):
        p = random_presheaf_action(rng)
        d = random_filtered_diagram(random.Random(seed))
        fps += [hfp(a) for a in (*p.at, *d.nodes)]
    for fp in fps:
        assert labels(fp.groupoid) == labels(reference.hfp(fp.action).groupoid)
    assert_labels_match(built)


def test_label_rules_read_tables_as_the_eager_readers_did():
    # a table longer than the ids is read up to them; a short one raises
    # when the labels are read, where the eager builders raised at once
    g = build_eg(symmetric_group(3))
    long = core.FiniteGroupoid(*g._tables()[:4], g.inv, g.compose_each,
                               obj_labels=[*g.obj_labels, "extra"],
                               mor_labels=[*g.mor_labels, "extra"])
    assert labels(core.product(long, long)) == labels(reference.product(g, g))
    short = core.FiniteGroupoid(*g._tables()[:4], g.inv, g.compose_each,
                                obj_labels=g.obj_labels[:-1])
    u = core.disjoint_union([short, g])
    with pytest.raises(IndexError):
        u.obj_labels
    assert u.mor_labels == tuple(f"m{k}" for k in range(36)) + g.mor_labels


def test_relabel_keeps_the_labels_of_a_rule():
    g = build_eg(symmetric_group(3))
    a = gamma_relabel(eg_gamma_action(symmetric_group(3)), range(6), [35 - m for m in range(36)])
    assert a.carrier.mor_labels == tuple(reversed(g.mor_labels))
    assert relabel(g, range(6), range(36)).obj_labels == g.obj_labels


# ---------------------------------------------------------------------------
# product and EG tables


def test_products_and_eg_bars_give_the_entrywise_tables(monkeypatch):
    products, original = [], core.product

    def recorded(g, h):
        p = original(g, h)
        products.append((p, g, h))
        return p

    patch_everywhere(monkeypatch, original, recorded)
    rng = random.Random("product tables")
    actions = [random_gamma_action(rng) for _ in range(150)]
    actions += [*small_actions(), swap_action(build_eg(dihedral_group(4)))]
    assert len(products) > 60
    for p, g, h in products:
        assert p._tables() == reference.product(g, h)._tables()
    egs = [(d.group, d.theta) for d in involutive_fixtures()]
    egs += [(g, conjugation_automorphism(g, 1)) for g in map(symmetric_group, (3, 4, 5))]
    for g, theta in egs:
        assert eg_gamma_action(g, theta).bar_mor == reference.eg_bar_mor(tuple(theta))
