import random

import pytest

from grpd.colimit import (
    FilteredDiagram,
    FiniteCategory,
    NotFilteredError,
    colimit,
    colimit_groupoids,
    filtered_witness,
    hfp_colimit_comparison,
    validate_category,
    validate_diagram,
)
from grpd.core import (
    GroupoidMap,
    InvariantViolation,
    discrete_groupoid,
    identity_map,
    validate_functor,
)
from grpd.corpus import nonfiltered_control_diagram, random_filtered_diagram
from grpd.gamma import EquivariantMap, set_as_groupoid, trivial_action


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


def test_two_chain_is_a_filtered_category():
    c = two_chain()
    assert validate_category(c) == []
    assert filtered_witness(c) is None


def test_validate_category_catches_missing_composite():
    c = FiniteCategory(n_objects=2, src=(0, 1, 0), tgt=(0, 1, 1),
                       id_of=(0, 1), comp={(0, 0): 0, (1, 1): 1, (0, 2): 2})
    assert any("missing" in line for line in validate_category(c))


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
    for u in d.index.arrows():
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
    with pytest.raises(InvariantViolation, match="induced involution"):
        colimit(d)
