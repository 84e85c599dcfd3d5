import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from grpd.core import build_action_groupoid, components, validate_groupoid
from grpd.corpus import S3_TRANSPOSITION, _transpose_inverse, _v4_swap, group_catalog
from grpd.groups import (
    FiniteGroup,
    GroupAction,
    _from_table,
    _perm_label,
    conjugation_automorphism,
    cyclic_group,
    dihedral_group,
    direct_product,
    gl2_f2,
    gl2_f2_upper_triangular,
    identity_automorphism,
    induced_subgroup,
    inversion_automorphism,
    is_automorphism,
    is_involutive_automorphism,
    is_subgroup,
    left_multiplication_action,
    symmetric_group,
    trivial_group,
    trivial_point_action,
    validate_group,
)


def test_catalog_groups_are_valid():
    cat = group_catalog()
    assert {k: v.order for k, v in cat.items()} == {
        "1": 1, "Z2": 2, "Z3": 3, "Z4": 4, "Z6": 6,
        "V4": 4, "S3": 6, "D4": 8, "GL2F2": 6,
    }
    for g in cat.values():
        assert validate_group(g) == []


def test_validate_group_catches_broken_associativity():
    g = cyclic_group(3)
    table = [list(row) for row in g.table]
    table[1][2] = 1
    broken = type(g)(table=tuple(tuple(r) for r in table),
                     identity=g.identity, inv_table=g.inv_table)
    assert validate_group(broken) != []


@pytest.mark.parametrize("table, inv_table, line", [
    (((0, 1), (1, 0)), (0, 5), "shape: inv entry out of range"),
    (((0, 1), (1, 0)), (0, -1), "shape: inv entry out of range"),
    (((0, 1), (1, 2)), (0, 1), "shape: entry (1,1) out of range"),
    (((0, 1), (-1, 0)), (0, 1), "shape: entry (1,0) out of range"),
    (((0, 1), (1,)), (0, 1), "shape: row 1 has length 1"),
])
def test_validate_group_reports_a_table_out_of_shape(table, inv_table, line):
    assert validate_group(FiniteGroup(table, 0, inv_table)) == [line]


def test_s3_transposition_is_where_the_corpus_says():
    s3 = symmetric_group(3)
    t = S3_TRANSPOSITION
    assert s3.mul(t, t) == s3.identity
    assert t != s3.identity
    # conjugating by it permutes the other transpositions
    conj = conjugation_automorphism(s3, t)
    assert is_involutive_automorphism(s3, conj)


def test_s3_inversion_is_not_a_homomorphism():
    s3 = symmetric_group(3)
    assert not is_automorphism(s3, inversion_automorphism(s3))
    assert is_automorphism(s3, identity_automorphism(s3))


def test_subgroup_closure_a3():
    s3 = symmetric_group(3)
    a3 = (0, 3, 4)
    assert is_subgroup(s3, a3)


def test_induced_subgroup_embedding_is_a_homomorphism():
    s3 = symmetric_group(3)
    sub, emb = induced_subgroup(s3, (0, S3_TRANSPOSITION))
    assert sub.order == 2
    for a in sub.elements():
        for b in sub.elements():
            assert emb[sub.mul(a, b)] == s3.mul(emb[a], emb[b])


def test_dihedral_center():
    d4 = dihedral_group(4)
    center = [x for x in d4.elements()
              if all(d4.mul(x, y) == d4.mul(y, x) for y in d4.elements())]
    assert center == [0, 4]


def test_v4_swap_is_an_involutive_automorphism():
    assert is_involutive_automorphism(direct_product(cyclic_group(2),
                                                     cyclic_group(2)),
                                      _v4_swap())


def test_gl2_f2():
    g = gl2_f2()
    assert g.order == 6
    assert not all(g.mul(a, b) == g.mul(b, a)
                   for a in g.elements() for b in g.elements())
    theta = _transpose_inverse(g)
    assert is_involutive_automorphism(g, theta)
    upper = gl2_f2_upper_triangular(g)
    assert len(upper) == 2
    assert is_subgroup(g, upper)
    # transpose-inverse does not preserve the upper triangular subgroup
    assert any(theta[u] not in set(upper) for u in upper)


def test_left_multiplication_action():
    s3 = symmetric_group(3)
    a = left_multiplication_action(s3)
    assert validate_groupoid(build_action_groupoid(a)) == []
    assert len(components(build_action_groupoid(a))) == 1


def test_trivial_point_action_orbits():
    a = trivial_point_action(cyclic_group(4))
    assert validate_groupoid(build_action_groupoid(a)) == []
    assert components(build_action_groupoid(a)) == [[0]]


def test_validate_action_catches_non_action():
    g = cyclic_group(2)
    bad = GroupAction(group=g, n_points=2, act_table=((0, 1), (0, 1)))
    # element 1 acts as the identity but 1*1=0 must then also act trivially;
    # here the table is fine as functions but the action law g.(h.x)=(gh).x
    # still holds, so corrupt it properly: send 1 to a non-permutation
    worse = GroupAction(group=g, n_points=2, act_table=((0, 1), (0, 0)))
    assert validate_groupoid(build_action_groupoid(worse)) != []
    assert validate_groupoid(build_action_groupoid(bad)) == []


@given(st.integers(min_value=1, max_value=12))
def test_cyclic_inversion_is_involutive(n):
    g = cyclic_group(n)
    assert validate_group(g) == []
    assert is_involutive_automorphism(g, inversion_automorphism(g))


@given(st.integers(min_value=1, max_value=10), st.data())
def test_conjugation_in_abelian_groups_is_trivial(n, data):
    g = cyclic_group(n)
    s = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert conjugation_automorphism(g, s) == tuple(g.elements())


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=5))
def test_direct_product_order_and_commutativity(n, m):
    g = direct_product(cyclic_group(n), cyclic_group(m))
    assert g.order == n * m
    assert validate_group(g) == []
    assert all(g.mul(a, b) == g.mul(b, a)
               for a in g.elements() for b in g.elements())


def test_trivial_group():
    g = trivial_group()
    assert g.order == 1 and g.identity == 0


def entrywise_symmetric_group(n):
    """The construction ``symmetric_group`` replaced: every entry of the
    table from a composed permutation, the identity and the inverses
    searched for by ``_from_table``."""
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms) for p in perms
    )
    return _from_table(table, f"S{n}", tuple(_perm_label(p) for p in perms))


@pytest.mark.parametrize("n", range(7))
def test_symmetric_group_rows_match_the_entrywise_table(n):
    got, want = symmetric_group(n), entrywise_symmetric_group(n)
    assert (got.table, got.identity, got.inv_table, got.name, got.labels) == (
        want.table, want.identity, want.inv_table, want.name, want.labels)
    assert validate_group(got) == []


def entrywise_is_automorphism(g, f):
    """The check ``is_automorphism`` replaced, one product at a time."""
    if sorted(f) != list(g.elements()):
        return False
    return all(f[g.mul(a, b)] == g.mul(f[a], f[b]) for a in g.elements() for b in g.elements())


def test_is_automorphism_agrees_with_the_entrywise_check():
    # every permutation of the groups of order at most 6, then conjugations,
    # inversion, random permutations and random maps of D4 and S4
    rng = random.Random("automorphisms")
    verdicts = []
    for g in [*group_catalog().values(), symmetric_group(4)]:
        n = g.order
        if n <= 6:
            maps = list(permutations(range(n)))
        else:
            maps = [conjugation_automorphism(g, s) for s in g.elements()]
            maps += [tuple(rng.sample(range(n), n)) for _ in range(200)]
        maps += [inversion_automorphism(g), tuple(range(n))[:-1],
                 *(tuple(rng.randrange(n) for _ in range(n)) for _ in range(20))]
        for f in maps:
            want = entrywise_is_automorphism(g, f)
            assert is_automorphism(g, f) == is_automorphism(g, list(f)) == want
            verdicts.append(want)
    assert set(verdicts) == {True, False}


def all_rows_is_automorphism(g, f):
    """The check ``is_automorphism`` made before it read generators: the
    homomorphism law on the row of every element."""
    if sorted(f) != list(g.elements()):
        return False
    table = g.table
    return all([f[ab] for ab in row] == [row_fa[fb] for fb in f]
               for row, row_fa in zip(table, [table[fa] for fa in f]))


def test_is_automorphism_on_generators_agrees_with_the_all_rows_check():
    # every catalog group and S4, S5: all conjugations, inversion, random
    # permutations, and each conjugation with two images exchanged, a
    # bijection that breaks the law on few rows
    rng = random.Random("automorphisms on generators")
    verdicts = []
    for g in [*group_catalog().values(), symmetric_group(4), symmetric_group(5)]:
        n = g.order
        maps = [conjugation_automorphism(g, s) for s in g.elements()]
        maps += [inversion_automorphism(g), *(tuple(rng.sample(range(n), n)) for _ in range(50))]
        for f in maps[:n]:
            if n > 2:
                f = list(f)
                i, j = rng.sample(range(n), 2)
                f[i], f[j] = f[j], f[i]
                maps.append(tuple(f))
        for f in maps:
            want = all_rows_is_automorphism(g, f)
            assert is_automorphism(g, f) == want
            verdicts.append(want)
    assert verdicts.count(True) > 150 and verdicts.count(False) > 500


def entrywise_induced_subgroup(g, elements):
    """The construction ``induced_subgroup`` replaced: ``is_subgroup`` first,
    then one product at a time through the index of the embedding."""
    emb = tuple(sorted(set(elements)))
    if not is_subgroup(g, emb):
        raise ValueError(f"{emb} is not a subgroup of {g.name}")
    index = {a: i for i, a in enumerate(emb)}
    sub = FiniteGroup(
        table=tuple(tuple(index[g.mul(a, b)] for b in emb) for a in emb),
        identity=index[g.identity],
        inv_table=tuple(index[g.inv(a)] for a in emb),
        name=f"{g.name}<{len(emb)}>",
        labels=tuple(g.label(a) for a in emb),
    )
    return sub, emb


def outcome(construct, g, subset):
    """The group and map ``construct`` gives, every field compared, or the
    message of the ``ValueError`` it raises."""
    try:
        h, m = construct(g, subset)
    except ValueError as e:
        return str(e)
    return h.table, h.identity, h.inv_table, h.name, h.labels, m


def test_subgroups_and_quotients_match_the_entrywise_constructions():
    # every subset of every catalog group, the empty one included
    counts = {"subgroups": 0}
    for g in group_catalog().values():
        for k in range(g.order + 1):
            for subset in combinations(g.elements(), k):
                want = outcome(entrywise_induced_subgroup, g, subset)
                assert outcome(induced_subgroup, g, subset[::-1]) == want
                counts["subgroups"] += not isinstance(want, str)
    assert counts == {"subgroups": 39}


def entrywise_direct_product(a, b):
    """The construction ``direct_product`` replaced, one pair of products
    per entry."""
    nb = b.order
    return FiniteGroup(
        table=tuple(tuple(a.mul(x1, x2) * nb + b.mul(y1, y2)
                          for x2 in a.elements() for y2 in b.elements())
                    for x1 in a.elements() for y1 in b.elements()),
        identity=a.identity * nb + b.identity,
        inv_table=tuple(a.inv(x) * nb + b.inv(y) for x in a.elements() for y in b.elements()),
        name=f"{a.name}x{b.name}",
        labels=tuple(f"({a.label(x)},{b.label(y)})" for x in a.elements() for y in b.elements()),
    )


def test_direct_product_rows_match_the_entrywise_table():
    cat = list(group_catalog().values())
    for a in cat:
        for b in cat:
            got, want = direct_product(a, b), entrywise_direct_product(a, b)
            assert (got.table, got.identity, got.inv_table, got.name, got.labels) == (
                want.table, want.identity, want.inv_table, want.name, want.labels)
