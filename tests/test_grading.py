import random
from fractions import Fraction

import pytest
from helpers import _dense_row, lie_types_up_to

from hodgeorbit.cayley import (
    boundary_census,
    codim_one_uniqueness_check,
    real_rank,
    validate_sos,
    weight_grading_dims,
    weyl_flip,
)
from hodgeorbit.chevalley import (
    cayley_standard_triple,
    rational_form,
    structure_constants,
    theta,
)
from hodgeorbit.errors import HodgeOrbitError, IndexOutOfRange
from hodgeorbit.grading import (
    adjoint_index_set,
    classify_root_compactness,
    evaluate,
    grading_element_for,
    is_fundamental_adjoint,
    parabolic,
    root_values,
    schubert_dim_from_grading,
)
from hodgeorbit.lines import (
    co_components,
    co_descriptor,
    co_membership_root_direction,
    cone_horizontal,
    lines_parabolic,
)
from hodgeorbit.reps import embedding_degree, weight_from_fund, weyl_dimension
from hodgeorbit.rootdata import coroot_pairing, root_system

SMALL_TYPES = [str(t) for t in lie_types_up_to(8)]

FUNDAMENTAL_ADJOINTS = [
    ("B3", 2), ("B4", 2), ("D4", 2), ("D5", 2),
    ("E6", 2), ("E7", 1), ("E8", 8), ("F4", 1), ("G2", 2),
]

# (1, a, b) of the codimension-one bigrading; a is also dim C_o
TABLE_A = {"E6": 9, "E7": 15, "E8": 27, "F4": 6, "G2": 1}


def test_parabolic_g2_adjoint():
    pd = parabolic(root_system("G2"), {2})
    assert {p: d for p, d in pd.eigen_dims.items()} == {-2: 1, -1: 4, 0: 4, 1: 4, 2: 1}
    assert pd.cartan_part == 2 and pd.zero_root_part == 2
    assert pd.flag_dim == 5


def test_parabolic_a1():
    pd = parabolic(root_system("A1"), {1})
    assert pd.eigen_dims == {-1: 1, 0: 1, 1: 1}


def test_parabolic_errors():
    with pytest.raises(IndexOutOfRange):
        parabolic(root_system("G2"), set())
    with pytest.raises(IndexOutOfRange):
        parabolic(root_system("G2"), {3})


def _dense_eigen_dims(rs, E):
    dims = {0: rs.rank}
    for alpha in rs.roots:
        p = evaluate(alpha, E)
        dims[p] = dims.get(p, 0) + 1
    return dims


def test_parabolic_symmetry_and_total():
    cases = [("E6", {2}), ("E7", {3, 5}), ("B4", {1, 4}), ("G2", {1})] + [
        (name, {i}) for name in SMALL_TYPES for i in range(1, root_system(name).rank + 1)
    ]
    for name, I in cases:
        rs = root_system(name)
        pd = parabolic(rs, I)
        # eigen_dims of root_values against a dense count over all roots
        dense = _dense_eigen_dims(rs, pd.grading_element)
        assert pd.eigen_dims == dense
        assert pd.zero_root_part == dense[0] - rs.rank
        assert sum(pd.eigen_dims.values()) == rs.dimension
        for p, d in pd.eigen_dims.items():
            assert pd.eigen_dims[-p] == d


def test_is_fundamental_adjoint():
    assert is_fundamental_adjoint(root_system("G2"), {2})
    assert not is_fundamental_adjoint(root_system("C3"), {1})  # 2 w_1
    assert not is_fundamental_adjoint(root_system("B3"), {1})
    assert not is_fundamental_adjoint(root_system("A3"), {1})
    assert not is_fundamental_adjoint(root_system("D4"), {1, 2})  # two nodes
    for name, i in FUNDAMENTAL_ADJOINTS:
        assert is_fundamental_adjoint(root_system(name), {i})


def test_adjoint_index_sets():
    assert adjoint_index_set(root_system("A4")) == {1, 4}
    assert adjoint_index_set(root_system("C3")) == {1}
    assert adjoint_index_set(root_system("B4")) == {2}
    assert adjoint_index_set(root_system("E8")) == {8}


@pytest.mark.parametrize("name", [str(t) for t in lie_types_up_to(12)] + ["B36", "D64"])
def test_adjoint_index_set_reads_the_highest_root_pairings(name):
    # theta + alpha_j is never a root, so theta - alpha_j is one exactly when
    # <theta, alpha_j^vee> > 0, unless theta = alpha_j (A1); with pairings
    # delta_{i.} that is j = i, which is why is_fundamental_adjoint reads the
    # pairings alone
    rs = root_system(name)
    theta = rs.highest_root
    positive = {j + 1 for j, p in enumerate(rs.pairings(theta))
                if p > 0 and theta != rs.simple_roots[j]}
    assert adjoint_index_set(rs) == positive
    for i in range(1, rs.rank + 1):
        if is_fundamental_adjoint(rs, {i}):
            assert positive == {i}


def test_fundamental_adjoint_grading_shape():
    # dim g^{+-2} = 1 and nothing beyond
    for name, i in FUNDAMENTAL_ADJOINTS:
        pd = parabolic(root_system(name), {i})
        assert pd.eigen_dims[2] == pd.eigen_dims[-2] == 1
        assert all(abs(p) <= 2 for p in pd.eigen_dims)


def test_flag_dim_is_2a_plus_3():
    for name, i in FUNDAMENTAL_ADJOINTS:
        rs = root_system(name)
        pd = parabolic(rs, {i})
        a = (pd.eigen_dims[1] - 2) // 2
        assert pd.flag_dim == 2 * a + 3
        if name in TABLE_A:
            assert a == TABLE_A[name]


def test_classify_root_compactness():
    g2 = root_system("G2")
    compact, noncompact = classify_root_compactness(g2, (0, 1))
    assert len(noncompact) == 8
    assert set(noncompact) == {
        (0, 1), (0, -1), (1, 1), (-1, -1), (2, 1), (-2, -1), (3, 1), (-3, -1),
    }
    # E = 0: everything compact
    compact, noncompact = classify_root_compactness(g2, (0, 0))
    assert noncompact == ()
    # B3 with E = S^2: six odd positive roots, so |Delta_n| = 12
    b3 = root_system("B3")
    compact, noncompact = classify_root_compactness(b3, (0, 1, 0))
    assert len(noncompact) == 12


def test_compactness_stable_under_negation():
    rs = root_system("F4")
    compact, noncompact = classify_root_compactness(rs, (1, 0, 0, 0))
    nset = set(noncompact)
    for b in noncompact:
        assert tuple(-c for c in b) in nset


def test_schubert_dim_trivial_functional():
    rs = root_system("F4")
    zero = (0, 0, 0, 0)
    expect = sum(1 for b in rs.roots if b[0] == 1)
    assert schubert_dim_from_grading(rs, 1, zero) == expect


def test_schubert_dims_table8():
    e7 = root_system("E7")
    specs7 = [
        {1: -1, 3: 1}, {1: -1, 5: 1}, {1: -2, 3: 1, 6: 1},
        {1: -3, 3: 1, 5: 1, 7: 1}, {1: -2, 4: 1, 7: 1}, {1: -1, 2: 1, 7: 1},
        {7: 1},
    ]
    for spec in specs7:
        tw = tuple(spec.get(j + 1, 0) for j in range(7))
        assert schubert_dim_from_grading(e7, 1, tw) == 16
    e8 = root_system("E8")
    specs8 = [
        {2: 1, 8: -1}, {5: 1, 8: -2}, {2: 1, 6: 1, 8: -3},
        {2: 1, 5: 1, 7: 1, 8: -5}, {4: 1, 7: 1, 8: -4}, {3: 1, 7: 1, 8: -3},
        {1: 1, 7: 1, 8: -2}, {7: 1, 8: -1},
    ]
    for spec in specs8:
        tw = tuple(spec.get(j + 1, 0) for j in range(8))
        assert schubert_dim_from_grading(e8, 8, tw) == 28


def test_schubert_and_compactness_match_dense_counts():
    rng = random.Random(20261018)
    for name in SMALL_TYPES:
        rs = root_system(name)
        for _ in range(4):
            T = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
            values = {alpha: evaluate(alpha, T) for alpha in rs.roots}
            compact, noncompact = classify_root_compactness(rs, T)
            assert set(noncompact) == {a for a, v in values.items() if v % 2}
            assert set(compact) == {a for a, v in values.items() if not v % 2}
            assert len(compact) + len(noncompact) == len(rs.roots)
            # each positive root is followed by its negative, in root order
            for part in (compact, noncompact):
                assert list(part[0::2]) == [b for b in rs.positive_roots if b in part]
                assert [tuple(-c for c in b) for b in part[0::2]] == list(part[1::2])
            for i in range(1, rs.rank + 1):
                expect = sum(1 for a, v in values.items() if a[i - 1] == 1 and v <= 0)
                assert schubert_dim_from_grading(rs, i, T) == expect


def test_grading_element_evaluation():
    rs = root_system("E6")
    E = grading_element_for(rs, {2, 4})
    assert E == (0, 1, 0, 1, 0, 0)
    assert evaluate(rs.highest_root, E) == 5


def _seeded_h(rng, rank):
    """Random entries in -2..3, with a negative entry, one > 1 and a zero
    placed at random positions, as far as the rank allows."""
    h = [rng.choice((-2, -1, 0, 0, 1, 3)) for _ in range(rank)]
    spots = rng.sample(range(rank), min(rank, 3))
    for spot, value in zip(spots, (rng.randint(-3, -1), rng.randint(2, 4), 0)):
        h[spot] = value
    return tuple(h)


@pytest.mark.parametrize("name", SMALL_TYPES + ["D48"])
def test_root_values_match_dense_evaluation(name):
    # h = 0, S^j (a column taken as it is), 3 S^j (one scaled column), and
    # seeded h with several nonzero entries (scaled columns summed)
    rng = random.Random(f"root_values {name}")
    rs = root_system(name)
    j = rng.randrange(rs.rank)
    unit = tuple(int(k == j) for k in range(rs.rank))
    hs = [(0,) * rs.rank, unit, tuple(3 * c for c in unit)]
    hs += [_seeded_h(rng, rs.rank) for _ in range(4)]
    for h in hs:
        dense = dict(zip(rs.roots, _dense_row(rs, h)))
        assert root_values(rs, h) == tuple(dense[b] for b in rs.positive_roots), h


# -- the one node rule: every public entry that takes Dynkin nodes ------------

#: entries that take a node set I, as f(rs, I)
NODE_SET_ENTRIES = {
    "parabolic": parabolic,
    "grading_element_for": grading_element_for,
    "is_fundamental_adjoint": is_fundamental_adjoint,
    "embedding_degree": embedding_degree,
    "lines_parabolic": lines_parabolic,
    "co_descriptor": co_descriptor,
    "co_components": co_components,
    "cone_horizontal": cone_horizontal,
    "co_membership_root_direction":
        lambda rs, I: co_membership_root_direction(rs, I, rs.highest_root),
}

#: entries that take one node i, as f(rs, i)
NODE_ENTRIES = {
    "schubert_dim_from_grading":
        lambda rs, i: schubert_dim_from_grading(rs, i, (0,) * rs.rank),
    "weyl_flip": weyl_flip,
    "weight_grading_dims": weight_grading_dims,
    "codim_one_uniqueness_check": codim_one_uniqueness_check,
    "boundary_census": boundary_census,
    "sc.h": lambda rs, i: structure_constants(rs).h(i),
}


@pytest.mark.parametrize(
    "name, arg",
    [(name, I) for name in NODE_SET_ENTRIES for I in ({0}, {-1}, {7}, {2, 7}, set())]
    + [(name, i) for name in NODE_ENTRIES for i in (0, -1, 7)],
    ids=str,
)
def test_node_outside_diagram_or_empty_set_is_index_out_of_range(name, arg):
    # E6: rank 6, so 7 is rank + 1, and {2, 7} must not be read as {2}
    entry = NODE_SET_ENTRIES.get(name) or NODE_ENTRIES[name]
    with pytest.raises(IndexOutOfRange, match=r"outside 1\.\.6|nonempty"):
        entry(root_system("E6"), arg)


@pytest.mark.parametrize(
    "call",
    [
        lambda rs: weyl_dimension(rs, weight_from_fund(rs, (1,))),
        lambda rs: schubert_dim_from_grading(rs, 1, (1,)),
        lambda rs: rational_form(structure_constants(rs), (0, 1, 0, 1)),
        lambda rs: validate_sos(rs, (0, 1), [(0, 1, 0)]),
        lambda rs: root_values(rs, (1, 0)),
        lambda rs: evaluate((1, 0, 0), (1, 0)),
        lambda rs: coroot_pairing(rs, (1, 0), (0, 1, 0)),
        lambda rs: rs.pairings((1, 0, 0, 5)),
        lambda rs: rs.bilinear((1, 0), (1, 0, 0)),
        lambda rs: rs.bilinear((1, 0, 0), (1, 0)),
        lambda rs: weight_from_fund(rs, (1,)),
        lambda rs: validate_sos(rs, (0, 1), []),
    ],
    ids=["weyl_dimension", "schubert_dim", "rational_form", "validate_sos",
         "root_values", "evaluate", "coroot_pairing", "pairings", "bilinear_x",
         "bilinear_y", "weight_from_fund", "validate_sos_empty"],
)
def test_vector_of_wrong_length_is_index_out_of_range(call):
    # B3 has rank 3; each call passes a vector of another length
    with pytest.raises(IndexOutOfRange, match="coordinates"):
        call(root_system("B3"))


@pytest.mark.parametrize(
    "call",
    [
        lambda rs, T: rational_form(structure_constants(rs), T),
        lambda rs, T: real_rank(rs, T),
        lambda rs, T: cayley_standard_triple(structure_constants(rs), (1, 0, 0), T),
        lambda rs, T: classify_root_compactness(rs, T),
        lambda rs, T: theta(structure_constants(rs), T, {3: 1}),
    ],
    ids=["rational_form", "real_rank", "cayley_standard_triple",
         "classify_root_compactness", "theta"],
)
def test_non_integer_grading_is_refused(call):
    # each reads the parity of beta(T), which a half-integer entry leaves undefined
    with pytest.raises(HodgeOrbitError, match="non-integer entry"):
        call(root_system("B3"), (Fraction(1, 2), 0, 0))
