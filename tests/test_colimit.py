import importlib
import random
from dataclasses import replace

import pytest

from grpd.colimit import (
    FilteredDiagram,
    NotFilteredError,
    _induced_map,
    _poset_category,
    colimit,
    colimit_groupoids,
    filtered_witness,
    hfp_colimit_comparison,
    validate_diagram,
)
from grpd.core import (
    FiniteCategory,
    GroupoidMap,
    InvariantViolation,
    build_bg,
    discrete_groupoid,
    identity_map,
    validate_category,
    validate_functor,
)
from grpd.corpus import (_bar_power_diagram, _chain_diagram, _fold_diagram, _retract_diagram,
                         nonfiltered_control_diagram, random_filtered_diagram,
                         random_presheaf_action, random_site)
from grpd.gamma import (EquivariantMap, GammaAction, NotEquivariantError, hfp, hfp_map,
                        set_as_groupoid, trivial_action)
from grpd.groups import cyclic_group, inversion_automorphism
from grpd.presheaf import _diagram_at_point
import reference


def two_chain():
    # objects 0 <= 1; arrows id0, id1, u: 0 -> 1
    return FiniteCategory(
        n_objects=2,
        src=(0, 1, 0),
        tgt=(0, 1, 1),
        id_of=(0, 1),
        comp={(0, 0): 0, (1, 1): 1, (0, 2): 2, (2, 1): 2},
    )


def identity_arrow(a):
    return EquivariantMap(identity_map(a.carrier), a, a)


def test_poset_category_agrees_with_the_all_pairs_composition():
    # the same entries in the same insertion order, which fixes the line
    # order of the functoriality reports that walk ``comp``
    rng = random.Random("poset-comp")
    posets = [(n, lambda i, j: i <= j) for n in range(6)]
    posets.append((4, lambda i, j: i == j or (i, j) in {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}))
    for _ in range(200):
        site = random_site(rng)
        for t in site.points():
            opens = site.filter_opens(t)
            posets.append((len(opens), lambda i, j, s=site, o=opens: s.is_leq(o[j], o[i])))
    for n, leq in posets:
        cat, _ = _poset_category(n, leq)
        want = reference.poset_comp(n, leq)
        assert list(cat.comp.items()) == list(want.items())
        assert validate_category(cat) == []


def test_two_chain_is_a_filtered_category():
    c = two_chain()
    assert validate_category(c) == []
    assert filtered_witness(c) is None


def test_validate_category_catches_missing_composite():
    c = FiniteCategory(n_objects=2, src=(0, 1, 0), tgt=(0, 1, 1),
                       id_of=(0, 1), comp={(0, 0): 0, (1, 1): 1, (0, 2): 2})
    assert any("missing" in line for line in validate_category(c))


def test_validate_category_reports_every_non_associative_triple():
    # object 0 carries id 0, an idempotent x = 1 and y = 2 with x.y = x,
    # y.x = y and y.y = id: unital, not a groupoid (x has no inverse) and not
    # associative.  f = 3 runs from 0 to object 1, whose identity is 4.
    endo = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2,
            (1, 1): 1, (1, 2): 1, (2, 1): 2, (2, 2): 0}
    comp = dict(endo)
    comp.update({(e, 3): 3 for e in (0, 1, 2)})
    comp.update({(3, 4): 3, (4, 4): 4})
    c = FiniteCategory(n_objects=2, src=(0, 0, 0, 0, 1), tgt=(0, 0, 0, 1, 1),
                       id_of=(0, 4), comp=comp)
    naive = [f"associativity: ({a},{b},{d})"
             for a in c.morphisms() for b in c.morphisms() for d in c.morphisms()
             if c.tgt[a] == c.src[b] and c.tgt[b] == c.src[d]
             and comp[comp[a, b], d] != comp[a, comp[b, d]]]
    assert validate_category(c) == naive == ["associativity: (2,1,2)",
                                             "associativity: (2,2,1)"]


def test_filtered_witness_on_degenerate_shapes():
    empty = FiniteCategory(n_objects=0, src=(), tgt=(), id_of=(), comp={})
    assert filtered_witness(empty) is not None
    # two objects, no arrows between them: no cocone
    two = FiniteCategory(n_objects=2, src=(0, 1), tgt=(0, 1), id_of=(0, 1),
                         comp={(0, 0): 0, (1, 1): 1})
    assert "cocone" in filtered_witness(two)


def test_colimit_of_an_inclusion_chain():
    a = trivial_action(discrete_groupoid(1))
    b = trivial_action(discrete_groupoid(2))
    inc = EquivariantMap(GroupoidMap(a.carrier, b.carrier, (0,), (0,)), a, b)
    d = FilteredDiagram(index=two_chain(), nodes=(a, b),
                        arrows=(EquivariantMap(GroupoidMap(a.carrier, a.carrier,
                                                           (0,), (0,)), a, a),
                                EquivariantMap(GroupoidMap(b.carrier, b.carrier,
                                                           (0, 1), (0, 1)), b, b),
                                inc))
    assert validate_diagram(d) == []
    res = colimit(d)
    assert res.groupoid.n_objects == 2
    # cocone legs commute with the diagram arrows
    for u in d.index.morphisms():
        i, j = d.index.src[u], d.index.tgt[u]
        composed = d.arrows[u].map.then(res.cocones[j].map)
        assert composed.obj_map == res.cocones[i].map.obj_map
        assert composed.mor_map == res.cocones[i].map.mor_map


def test_colimit_identifies_along_the_diagram():
    # both points of the source are sent to the same point downstream
    a = trivial_action(discrete_groupoid(2))
    b = trivial_action(discrete_groupoid(1))
    fold = EquivariantMap(GroupoidMap(a.carrier, b.carrier, (0, 0), (0, 0)), a, b)
    d = FilteredDiagram(
        index=two_chain(), nodes=(a, b),
        arrows=(EquivariantMap(GroupoidMap(a.carrier, a.carrier, (0, 1),
                                           (0, 1)), a, a),
                EquivariantMap(GroupoidMap(b.carrier, b.carrier, (0,), (0,)),
                               b, b),
                fold))
    res = colimit(d)
    assert res.groupoid.n_objects == 1


def test_nonfiltered_control_raises_and_refutes():
    d = nonfiltered_control_diagram()
    assert validate_diagram(d) == []
    witness = filtered_witness(d.index)
    assert witness is not None and "parallel" in witness
    with pytest.raises(NotFilteredError) as exc:
        colimit(d)
    assert exc.value.witness is not None
    c = hfp_colimit_comparison(d, require_filtered=False)
    assert not c.is_isomorphism
    assert c.lhs.n_objects == 0
    assert c.rhs.groupoid.n_objects == 1


def test_comparison_is_isomorphism_on_random_filtered_diagrams():
    for seed in range(6):
        rng = random.Random(f"colimit-test:{seed}")
        d = random_filtered_diagram(rng)
        assert validate_diagram(d) == []
        assert filtered_witness(d.index) is None
        c = hfp_colimit_comparison(d)
        assert c.is_isomorphism
        assert c.map is not None
        assert validate_functor(c.map) == []


def test_validate_diagram_catches_non_functorial_assignment():
    a = set_as_groupoid((1, 0))
    d = FilteredDiagram(
        index=two_chain(), nodes=(a, a),
        arrows=(EquivariantMap(GroupoidMap(a.carrier, a.carrier, (0, 1),
                                           (0, 1)), a, a),
                EquivariantMap(GroupoidMap(a.carrier, a.carrier, (0, 1),
                                           (0, 1)), a, a),
                # swap is equivariant here, but the identity arrows force
                # the composite along u to stay the identity
                EquivariantMap(GroupoidMap(a.carrier, a.carrier, (1, 0),
                                           (1, 0)), a, a)))
    report = validate_diagram(d)
    assert report == []  # a two-chain has no composite constraints beyond units

    # break equivariance instead: bar differs between the two nodes
    b = set_as_groupoid((0, 1))
    bad = FilteredDiagram(
        index=two_chain(), nodes=(a, b),
        arrows=(EquivariantMap(GroupoidMap(a.carrier, a.carrier, (0, 1),
                                           (0, 1)), a, a),
                EquivariantMap(GroupoidMap(b.carrier, b.carrier, (0, 1),
                                           (0, 1)), b, b),
                EquivariantMap(GroupoidMap(a.carrier, b.carrier, (0, 1),
                                           (0, 1)), a, b)))
    assert validate_diagram(bad) != []


def test_validate_diagram_checks_its_index_first():
    # an index missing the composite (8, 8) passed validate_diagram unreported
    d = random_filtered_diagram(random.Random(3))
    c = d.index
    table = dict(c.comp)
    del table[(8, 8)]
    broken = FilteredDiagram(FiniteCategory(c.n_objects, c.src, c.tgt, c.id_of, table),
                             d.nodes, d.arrows)
    assert validate_diagram(broken) == validate_category(broken.index)
    assert "composition-domain: missing entry for (8,8)" in validate_diagram(broken)


def test_colimit_groupoids_over_a_point():
    g = discrete_groupoid(3)
    cat = FiniteCategory(n_objects=1, src=(0,), tgt=(0,), id_of=(0,),
                         comp={(0, 0): 0})
    res = colimit_groupoids(cat, [g], [GroupoidMap(g, g, (0, 1, 2), (0, 1, 2))])
    assert res.groupoid.n_objects == 3
    assert res.cocones[0].obj_map == (0, 1, 2)


def test_validate_diagram_skips_equivariance_on_a_malformed_arrow():
    # the arrow along u has an object table one entry short
    a = set_as_groupoid((1, 0))
    short = EquivariantMap(GroupoidMap(a.carrier, a.carrier, (0,), (0, 1)), a, a)
    d = FilteredDiagram(index=two_chain(), nodes=(a, a),
                        arrows=(identity_arrow(a), identity_arrow(a), short))
    report = validate_diagram(d)
    assert report
    assert all(line.startswith("arrow 2: shape") for line in report)


def test_colimit_rejects_a_non_equivariant_arrow():
    # the identity of the two-point set does not intertwine the swap with the
    # trivial involution, so no involution is induced on the colimit
    a, b = set_as_groupoid((1, 0)), set_as_groupoid((0, 1))
    d = FilteredDiagram(
        index=two_chain(), nodes=(a, b),
        arrows=(identity_arrow(a), identity_arrow(b),
                EquivariantMap(identity_map(a.carrier), a, b)))
    for compute in (colimit, hfp_colimit_comparison):
        with pytest.raises(InvariantViolation, match=r"^induced involution on objects "
                           r"is not well-defined on class 0: 1 != 0$"):
            compute(d)


# ---------------------------------------------------------------------------
# colimit_groupoids against the reference


def colimit_outcome(routine, index, gpds, maps):
    try:
        res = routine(index, gpds, maps)
    except NotFilteredError as exc:
        return ("not filtered", str(exc), exc.witness)
    return ("colimit", res.groupoid, sorted(res.groupoid.comp.items()),
            [(f.obj_map, f.mor_map) for f in res.cocones])


def carrier_and_fixed_point_inputs(d):
    """The colimit inputs of a diagram: its carriers, then its fixed points."""
    yield d.index, [a.carrier for a in d.nodes], [e.map for e in d.arrows]
    fps = [hfp(a) for a in d.nodes]
    yield (d.index, [fp.groupoid for fp in fps],
           [hfp_map(e, fps[d.index.src[u]], fps[d.index.tgt[u]])
            for u, e in enumerate(d.arrows)])


def clashing_diagram():
    # two parallel arrows BG(Z3) -> BG(Z3), the identity and inversion: the
    # classes are {0} and {1, 2}, and 1.1 = 2 but 1.2 = 0
    a = trivial_action(build_bg(cyclic_group(3)))
    g = a.carrier
    flip = GroupoidMap(g, g, (0,), inversion_automorphism(cyclic_group(3)))
    return FilteredDiagram(
        nonfiltered_control_diagram().index, (a, a),
        (identity_arrow(a), identity_arrow(a), identity_arrow(a),
         EquivariantMap(flip, a, a)))


def colimit_test_diagrams():
    for seed in range(8):
        yield random_filtered_diagram(random.Random(f"colimit-reference:{seed}"))
    for seed in range(4):
        a = random_presheaf_action(random.Random(f"colimit-reference-presheaf:{seed}"))
        for t in a.presheaf.site.points():
            yield _diagram_at_point(a, t)
    yield nonfiltered_control_diagram()
    yield clashing_diagram()


def test_colimit_groupoids_agrees_with_the_table_reading_reference():
    outcomes = set()
    for d in colimit_test_diagrams():
        for index, gpds, maps in carrier_and_fixed_point_inputs(d):
            # the routine under test runs first, before the reference
            # tabulates any node
            got = colimit_outcome(colimit_groupoids, index, gpds, maps)
            want = colimit_outcome(reference.colimit_groupoids, index, gpds, maps)
            assert got == want
            outcomes.add(got[0])
    assert outcomes == {"colimit", "not filtered"}


def test_colimit_of_fixed_points_builds_no_node_table():
    for seed in range(4):
        d = random_filtered_diagram(random.Random(f"colimit-reference:{seed}"))
        _, (index, gpds, maps) = carrier_and_fixed_point_inputs(d)
        assert all(g._comp is None for g in gpds)
        colimit_groupoids(index, gpds, maps)
        assert all(g._comp is None for g in gpds)


# ---------------------------------------------------------------------------
# maps out of a colimit, read through the cocones by ``_induced_map``


def test_induced_involution_agrees_with_the_per_node_reference():
    diagrams = [random_filtered_diagram(random.Random(seed)) for seed in range(50)]
    for d in diagrams + [nonfiltered_control_diagram()]:
        res = colimit(d, require_filtered=False)
        co = colimit_groupoids(d.index, [a.carrier for a in d.nodes],
                               [e.map for e in d.arrows])
        assert (res.action.bar_obj, res.action.bar_mor) == reference.induced_involution(d, co)


def test_induced_map_names_the_first_class_its_maps_send_apart():
    # a groupoid over the two-chain along its identity; a swap on node 1
    # sends class 0 apart, on morphisms in BG(Z2), on objects in two points
    for g, swap, where in ((build_bg(cyclic_group(2)), ((0,), (1, 0)), "morphisms"),
                           (discrete_groupoid(2), ((1, 0), (1, 0)), "objects")):
        ident = identity_map(g)
        co = colimit_groupoids(two_chain(), [g, g], [ident] * 3)
        assert _induced_map("m", co, g, [ident, ident]) == GroupoidMap(
            co.groupoid, g, ident.obj_map, ident.mor_map)
        with pytest.raises(InvariantViolation, match=f"^m on {where} is not "
                           "well-defined on class 0: 0 != 1$"):
            _induced_map("m", co, g, [ident, GroupoidMap(g, g, *swap)])


def test_a_class_whose_members_land_apart_leaves_no_comparison_map(monkeypatch):
    # the cocones of a diagram of functors send no class apart, so the map
    # read through node 1's cocone is swapped by hand; the InvariantViolation
    # of _induced_map propagates
    a, b = set_as_groupoid((0, 1)), set_as_groupoid((0, 1))
    d = FilteredDiagram(two_chain(), (a, b), (identity_arrow(a), identity_arrow(b),
                                              EquivariantMap(identity_map(a.carrier), a, b)))
    assert hfp_colimit_comparison(d).is_isomorphism
    module = importlib.import_module("grpd.colimit")  # the package exports colimit()
    real = module.hfp_map

    def swapped_on_node_1(e, dom_fp, cod_fp):
        f = real(e, dom_fp, cod_fp)
        if e.dom_action is b and e.cod_action is not b:
            return replace(f, obj_map=f.obj_map[::-1], mor_map=f.mor_map[::-1])
        return f

    monkeypatch.setattr(module, "hfp_map", swapped_on_node_1)
    with pytest.raises(InvariantViolation, match="^comparison on objects is not "
                       "well-defined on class 0: 0 != 1$"):
        hfp_colimit_comparison(d)


def with_arrow(d, u, obj_map, mor_map):
    e = d.arrows[u]
    return replace(d, arrows=d.arrows[:u] + (replace(e, map=replace(
        e.map, obj_map=obj_map, mor_map=mor_map)),) + d.arrows[u + 1:])


def invalid_diagrams():
    """Diagrams with one arrow that is not a functor or not equivariant, each
    with the outcome of ``colimit`` and of ``hfp_colimit_comparison``; one not
    equivariant on objects is in ``test_colimit_rejects_a_non_equivariant_arrow``.
    On a map that is not a functor the outcome is what ``colimit_groupoids``
    documents: classes joined along generator arrows, tables read off the
    terminal nodes."""
    control = nonfiltered_control_diagram()
    z3 = cyclic_group(3)
    bz3 = trivial_action(build_bg(z3))
    inverted = GammaAction(bz3.carrier, (0,), inversion_automorphism(z3))
    identity_error = ("InvariantViolation", "identity is not well-defined on class 0: 1 != 0")
    morphisms_error = ("InvariantViolation", "induced involution on morphisms is not "
                       "well-defined on class 1: 2 != 1")
    return {
        # equivariant, but sends each identity to the other one; read off
        # node 1, the terminal node, whose two objects land in one class and
        # their identities in two
        "control-not-a-functor": (with_arrow(control, 2, (0, 1), (1, 0)),
                                  identity_error, identity_error),
        # a constant map: the classes merge, so the involution descends
        "control-not-equivariant": (
            with_arrow(control, 3, (0, 0), (0, 0)), ((0,), (0,)),
            ("NotEquivariantError", "map fails equivariance at object 0")),
        "chain-not-a-functor": (
            FilteredDiagram(two_chain(), (bz3, bz3), (
                identity_arrow(bz3), identity_arrow(bz3),
                EquivariantMap(GroupoidMap(bz3.carrier, bz3.carrier, (0,), (0, 2, 2)),
                               bz3, bz3))),
            # read off node 1, whose classes are its three morphisms, the
            # result is BG(Z3) with the identity involution, and the
            # comparison of this diagram reads as an isomorphism
            ((0,), (0, 1, 2)), (True, (0,), (0, 1, 2))),
        "chain-not-equivariant-on-morphisms": (
            FilteredDiagram(two_chain(), (inverted, bz3), (
                identity_arrow(inverted), identity_arrow(bz3),
                EquivariantMap(identity_map(bz3.carrier), inverted, bz3))),
            morphisms_error, morphisms_error),
    }


def outcome(compute, d):
    try:
        return compute(d)
    except (InvariantViolation, NotFilteredError, NotEquivariantError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", sorted(invalid_diagrams()))
def test_invalid_arrows_give_the_recorded_outcome(name):
    d, want_colimit, want_comparison = invalid_diagrams()[name]
    assert validate_diagram(d) != []

    def involution(d):
        res = colimit(d, require_filtered=False)
        return res.action.bar_obj, res.action.bar_mor

    def comparison(d):
        c = hfp_colimit_comparison(d, require_filtered=False)
        return c.is_isomorphism, c.map.obj_map, c.map.mor_map

    assert outcome(involution, d) == want_colimit
    assert outcome(comparison, d) == want_comparison


# ---------------------------------------------------------------------------
# generator arrows and terminal nodes against the reference, which joins
# along every arrow and reads every node


def assert_same_colimit(index, gpds, maps):
    got = colimit_groupoids(index, gpds, maps)
    want = reference.colimit_groupoids(index, gpds, maps)
    assert got.groupoid == want.groupoid
    assert got.cocones == want.cocones


@pytest.mark.parametrize("shape", [_chain_diagram, _bar_power_diagram, _retract_diagram,
                                   _fold_diagram, random_filtered_diagram])
def test_colimit_groupoids_agrees_with_the_all_arrows_routine(shape):
    rng = random.Random(f"all-arrows:{shape.__name__}")
    for _ in range(12):
        d = shape(rng)
        assert validate_diagram(d) == []
        for index, gpds, maps in carrier_and_fixed_point_inputs(d):
            assert_same_colimit(index, gpds, maps)


def test_colimit_groupoids_agrees_with_the_all_arrows_routine_off_filtered_indices():
    # the control reads one terminal node; a diagram over a two-object
    # discrete index has two terminal nodes and nothing to join
    d = nonfiltered_control_diagram()
    for index, gpds, maps in carrier_and_fixed_point_inputs(d):
        assert_same_colimit(index, gpds, maps)
    two = FiniteCategory(n_objects=2, src=(0, 1), tgt=(0, 1), id_of=(0, 1),
                         comp={(0, 0): 0, (1, 1): 1})
    g, h = build_bg(cyclic_group(3)), discrete_groupoid(2)
    assert_same_colimit(two, [g, h], [identity_map(g), identity_map(h)])
    co = colimit_groupoids(two, [g, h], [identity_map(g), identity_map(h)])
    assert (co.groupoid.n_objects, co.groupoid.n_morphisms) == (3, 5)


# ---------------------------------------------------------------------------
# validate_diagram decides arrows on generators; on a fault it walks every
# arrow, so its report is the all-arrows report


def broken_arrows(d, rng):
    """Copies of d with one arrow's tables changed: reversed, one entry
    moved to another in-range value, cut short, or out of range."""
    for u, e in enumerate(d.arrows):
        f = e.map
        n, m = f.cod.n_objects, f.cod.n_morphisms
        yield with_arrow(d, u, f.obj_map[::-1], f.mor_map[::-1])
        k = rng.randrange(len(f.mor_map))
        yield with_arrow(d, u, f.obj_map,
                         f.mor_map[:k] + ((f.mor_map[k] + 1) % m,) + f.mor_map[k + 1:])
        x = rng.randrange(len(f.obj_map))
        yield with_arrow(d, u, f.obj_map[:x] + ((f.obj_map[x] + 1) % n,) + f.obj_map[x + 1:],
                         f.mor_map)
        yield with_arrow(d, u, f.obj_map, f.mor_map[:-1])
        yield with_arrow(d, u, f.obj_map, f.mor_map[:-1] + (m,))


def test_validate_diagram_agrees_with_the_all_arrows_report():
    rng = random.Random("validate-diagram-differential")
    diagrams = [shape(rng) for shape in (_chain_diagram, _bar_power_diagram,
                                         _retract_diagram, _fold_diagram) for _ in range(3)]
    diagrams += [nonfiltered_control_diagram(), clashing_diagram()]
    diagrams += [d for d, _, _ in invalid_diagrams().values()]
    faults = 0
    for d in diagrams:
        for case in [d, *broken_arrows(d, rng)]:
            want = reference.validate_diagram(case)
            assert validate_diagram(case) == want
            faults += bool(want)
    assert faults > 300
