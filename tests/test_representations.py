"""The arrows out of each object as builders supply them, and labels as
rules, against the generic index and the eager labels they replaced.

``generic_out_of`` is the index ``FiniteCategory.out_of`` builds from
``src``.  The ``eager_*_labels`` functions are copies of the label tables
that ``build_action_groupoid``, ``disjoint_union``, ``product`` and ``hfp``
built eagerly before they passed rules; the ``built`` fixture wraps the
three builders wherever the package imports them and records, for each
groupoid they make, how to compute those tables from the same inputs.
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


def generic_out_of(g):
    rows = [[] for _ in g.objects()]
    for k, x in enumerate(g.src):
        rows[x].append(k)
    return [tuple(row) for row in rows]


def assert_out_of_is_generic(g):
    assert [tuple(row) for row in g.out_of] == generic_out_of(g)


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


def eager_action_labels(a):
    grp, nx = a.group, a.n_points
    point_labels = [a.point_label(x) for x in range(nx)]
    mor_labels = [f"{g}.{p}" for g in map(grp.label, grp.elements()) for p in point_labels]
    return point_labels, mor_labels


def eager_union_labels(gs):
    obj_labels, mor_labels = [], []
    for g in gs:
        obj_labels.extend(g.obj_label(x) for x in g.objects())
        mor_labels.extend(g.mor_label(k) for k in g.morphisms())
    return obj_labels, mor_labels


def eager_product_labels(g, h):
    obj_labels = [f"({g.obj_label(x)},{h.obj_label(y)})"
                  for x in g.objects() for y in h.objects()]
    mor_labels = [f"({g.mor_label(m)},{h.mor_label(k)})"
                  for m in g.morphisms() for k in h.morphisms()]
    return obj_labels, mor_labels


def eager_hfp_labels(fp):
    g = fp.action.carrier
    return ([f"({g.obj_label(o.base)},{g.mor_label(o.phi)})" for o in fp.objects],
            [g.mor_label(k) for k in fp.underlying])


@pytest.fixture
def built(monkeypatch):
    """Each groupoid the three label-building builders make, in order, with a
    function of no arguments giving the eager labels for it."""
    made = []
    for name, reference in (("build_action_groupoid", eager_action_labels),
                            ("disjoint_union", eager_union_labels),
                            ("product", eager_product_labels)):
        original = getattr(core, name)

        def wrapper(*args, original=original, reference=reference):
            g = original(*args)
            made.append((g, lambda: reference(*args)))
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
    for g, reference in reversed(made):
        got = (g.obj_labels, g.mor_labels)
        assert got == tuple(map(tuple, reference()))


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
        assert (fp.groupoid.obj_labels, fp.groupoid.mor_labels) == tuple(
            map(tuple, eager_hfp_labels(fp)))
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
        assert (fp.groupoid.obj_labels, fp.groupoid.mor_labels) == tuple(
            map(tuple, eager_hfp_labels(fp)))
    assert_labels_match(built)


def test_label_rules_read_tables_as_the_eager_readers_did():
    # a table longer than the ids is read up to them; a short one raises
    # when the labels are read, where the eager builders raised at once
    g = build_eg(symmetric_group(3))
    long = core.FiniteGroupoid(*g._tables()[:4], g.inv, g.compose_each,
                               obj_labels=[*g.obj_labels, "extra"],
                               mor_labels=[*g.mor_labels, "extra"])
    p = core.product(long, long)
    assert p.obj_labels == tuple(eager_product_labels(g, g)[0])
    assert p.mor_labels == tuple(eager_product_labels(g, g)[1])
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


def entrywise_product_tables(g, h):
    """``src``, ``tgt``, ``id_of`` and ``inv`` of the product as ``product``
    built them before it read the factors' tables whole: one call per entry."""
    no, nm = h.n_objects, h.n_morphisms

    def obj(x, y):
        return x * no + y

    def mor(m, k):
        return m * nm + k

    return ([obj(g.src[m], h.src[k]) for m in g.morphisms() for k in h.morphisms()],
            [obj(g.tgt[m], h.tgt[k]) for m in g.morphisms() for k in h.morphisms()],
            [mor(g.id_of[x], h.id_of[y]) for x in g.objects() for y in h.objects()],
            [mor(g.inv[m], h.inv[k]) for m in g.morphisms() for k in h.morphisms()])


def entrywise_eg_bar_mor(theta):
    n = len(theta)
    return tuple(theta[m // n] * n + theta[m % n] for m in range(n * n))


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
        assert (p.src, p.tgt, p.id_of, p.inv) == tuple(map(tuple, entrywise_product_tables(g, h)))
    egs = [(d.group, d.theta) for d in involutive_fixtures()]
    egs += [(g, conjugation_automorphism(g, 1)) for g in map(symmetric_group, (3, 4, 5))]
    for g, theta in egs:
        assert eg_gamma_action(g, theta).bar_mor == entrywise_eg_bar_mor(tuple(theta))
