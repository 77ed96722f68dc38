import random
from fractions import Fraction
from operator import mul

import pytest
from helpers import (
    apply_word_dense,
    bilinear_by_sym,
    coroot_pairing_by_form,
    coroot_s_coords_by_sym,
    dense_root_closure,
    inverse_cartan_by_gauss_jordan,
    lie_types_up_to,
    weight_from_fund_dense,
    weyl_orbit_by_every_node,
    weyl_orbit_with_signs,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeorbit.errors import (
    IndexOutOfRange,
    InvalidRank,
    NotACartanMatrix,
    NotARoot,
    NotStronglyOrthogonal,
)
from hodgeorbit.reps import fundamental_weights, rho
from hodgeorbit.rootdata import (
    LieType,
    POSITIVE_ROOT_COUNTS,
    RootSystem,
    _cartan_data,
    build_root_system,
    cartan_type,
    conjugate_root,
    coroot_pairing,
    reflect,
    root_system,
    strongly_orthogonal,
)

ALL_TYPES = ["A1", "A3", "B2", "B3", "C3", "D4", "E6", "E7", "E8", "F4", "G2"]

# Table of highest roots, one row per family (exact coordinates).
HIGHEST_ROOTS = {
    "A4": (1, 1, 1, 1),
    "B4": (1, 2, 2, 2),
    "C4": (2, 2, 2, 1),
    "D5": (1, 2, 2, 1, 1),
    "E6": (1, 2, 2, 3, 2, 1),
    "E7": (2, 2, 3, 4, 3, 2, 1),
    "E8": (2, 3, 4, 6, 5, 4, 3, 2),
    "F4": (2, 3, 4, 2),
    "G2": (3, 2),
}


def test_rank_bounds():
    for bad in ["A0", "B1", "C1", "D3", "E5", "E9", "F5", "G3"]:
        with pytest.raises(InvalidRank):
            root_system(bad)
    with pytest.raises(InvalidRank):
        LieType("H", 4)


def test_a1_single_root():
    rs = root_system("A1")
    assert rs.positive_roots == ((1,),)


def test_positive_root_counts():
    # brute-force reflection closure vs the classical count
    for name in ALL_TYPES:
        rs = root_system(name)
        fam, r = rs.lie_type.family, rs.rank
        assert len(rs.positive_roots) == POSITIVE_ROOT_COUNTS[fam](r)


def test_e8_dimension_cross_check():
    rs = root_system("E8")
    assert len(rs.positive_roots) == 120
    assert 2 * 120 + 8 == 248 == rs.dimension


def test_highest_roots_match_table():
    for name, coords in HIGHEST_ROOTS.items():
        assert root_system(name).highest_root == coords


def test_highest_root_plus_simple_never_root():
    for name in ALL_TYPES:
        rs = root_system(name)
        at = rs.highest_root
        for j in range(rs.rank):
            up = tuple(at[k] + (1 if k == j else 0) for k in range(rs.rank))
            assert not rs.is_root(up)


def test_cartan_invariants():
    for name in ALL_TYPES:
        rs = root_system(name)
        for i in range(rs.rank):
            assert rs.cartan[i][i] == 2
            for j in range(rs.rank):
                if i != j:
                    assert rs.cartan[i][j] in (0, -1, -2, -3)
                assert rs.lengths[j] * rs.cartan[i][j] == rs.lengths[i] * rs.cartan[j][i]


def test_all_roots_same_sign():
    for name in ALL_TYPES:
        rs = root_system(name)
        for beta in rs.roots:
            assert all(c >= 0 for c in beta) or all(c <= 0 for c in beta)


def test_positive_roots_sorted_by_height_then_lex():
    for name in ALL_TYPES:
        rs = root_system(name)
        keys = [(sum(b), b) for b in rs.positive_roots]
        assert keys == sorted(keys)


def test_coroot_pairing_normalization_and_examples():
    g2 = root_system("G2")
    for name in ALL_TYPES:
        rs = root_system(name)
        for alpha in rs.positive_roots:
            assert coroot_pairing(rs, alpha, alpha) == 2
    # read off the G2 grading element H^{alpha_2} = -S^1 + 2 S^2
    assert coroot_pairing(g2, (1, 0), (0, 1)) == -1
    # direct evaluation with (a1,a1) = 2/3 (a2,a2)
    assert coroot_pairing(g2, (2, 1), (0, 1)) == 0
    with pytest.raises(NotARoot):
        coroot_pairing(g2, (1, 0), (1, 2))


@pytest.mark.parametrize("lie_type", lie_types_up_to(6), ids=str)
def test_coroot_pairing_matches_form(lie_type):
    """Every ordered root pair, and every fundamental weight against every
    root, pairs as 2 (beta, alpha) / (alpha, alpha) on the dense form."""
    rs = build_root_system(lie_type)
    weights = [w.root_coords for w in fundamental_weights(rs)]
    for alpha in rs.roots:
        for beta in rs.roots:
            got = coroot_pairing(rs, beta, alpha)
            assert type(got) is int
            assert got == coroot_pairing_by_form(rs, beta, alpha)
        for w in weights:
            got, want = coroot_pairing(rs, w, alpha), coroot_pairing_by_form(rs, w, alpha)
            assert (got, type(got)) == (want, type(want))


def test_coroot_pairing_weights():
    g2 = root_system("G2")
    # rational weights are allowed in the first slot
    assert coroot_pairing(g2, (Fraction(1, 2), 0), (1, 0)) == 1


def test_reflection_examples():
    g2 = root_system("G2")
    assert reflect(g2, (1, 0), (1, 0)) == (-1, 0)
    assert reflect(g2, (1, 0), (0, 1)) == (3, 1)
    b3 = root_system("B3")
    at = b3.highest_root
    a2 = (0, 1, 0)
    assert coroot_pairing(b3, at, a2) == 1
    assert reflect(b3, a2, at) == tuple(x - y for x, y in zip(at, a2))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_reflection_closure_and_involution(data):
    rs = root_system(data.draw(st.sampled_from(ALL_TYPES)))
    roots = sorted(rs.roots)
    alpha = data.draw(st.sampled_from(roots))
    beta = data.draw(st.sampled_from(roots))
    image = reflect(rs, alpha, beta)
    assert rs.is_root(image)
    assert reflect(rs, alpha, image) == beta
    # pairings of roots are integers
    assert isinstance(coroot_pairing(rs, beta, alpha), int)


def test_conjugate_root_empty_and_fixed_points():
    for name in ["A3", "B3", "G2"]:
        rs = root_system(name)
        for alpha in rs.positive_roots:
            assert conjugate_root(rs, alpha, []) == tuple(-c for c in alpha)
    g2 = root_system("G2")
    assert conjugate_root(g2, (0, 1), [(0, 1)]) == (0, 1)


def test_conjugate_root_example_and_involution():
    g2 = root_system("G2")
    assert conjugate_root(g2, (3, 2), [(0, 1)]) == (-3, -1)
    B = [(0, 1), (2, 1)]
    for alpha in g2.roots:
        bar = conjugate_root(g2, alpha, B)
        assert conjugate_root(g2, bar, B) == alpha


def test_conjugate_root_equals_negated_reflection_word():
    # conj_B = -(r_{beta_s} o .. o r_{beta_1})
    cases = [("G2", [(0, 1), (2, 1)]), ("B3", [(0, 1, 0), (0, 1, 2)])]
    for name, B in cases:
        rs = root_system(name)
        for alpha in rs.roots:
            expected = alpha
            for b in B:
                expected = reflect(rs, b, expected)
            expected = tuple(-c for c in expected)
            assert conjugate_root(rs, alpha, B) == expected


def test_conjugate_root_rejects_non_orthogonal():
    g2 = root_system("G2")
    with pytest.raises(NotStronglyOrthogonal):
        conjugate_root(g2, (1, 0), [(0, 1), (1, 1)])


def test_strongly_orthogonal_pairs():
    g2 = root_system("G2")
    assert strongly_orthogonal(g2, (0, 1), (2, 1))
    assert not strongly_orthogonal(g2, (0, 1), (3, 1))


# -- the Weyl-action primitive ------------------------------------------------


@pytest.mark.parametrize(
    "lie_type",
    lie_types_up_to(12) + [LieType.parse(n) for n in ("A30", "B24", "D26")],
    ids=str,
)
def test_roots_match_dense_closure(lie_type):
    roots, positives = dense_root_closure(lie_type)
    rs = RootSystem(lie_type)
    assert rs.roots == roots
    assert rs.positive_roots == positives


@pytest.mark.parametrize(
    "lie_type",
    lie_types_up_to(8) + [LieType.parse(n) for n in ("A30", "B24", "D26")],
    ids=str,
)
def test_sparse_pairings_match_dense_sym_oracle(lie_type):
    rs = root_system(str(lie_type))
    r = rs.rank
    rng = random.Random(f"pairings-{lie_type}")
    for _ in range(20):
        x = [rng.randint(-3, 3) for _ in range(r)]
        y = [rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(r)]
        assert rs.bilinear(x, y) == bilinear_by_sym(rs, x, y)
        fx = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(r)]
        fy = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(r)]
        assert rs.bilinear(fx, fy) == bilinear_by_sym(rs, fx, fy)
        assert rs.bilinear(fx, y) == bilinear_by_sym(rs, fx, y)
    roots = sorted(rs.roots)
    if r > 8:
        roots = rng.sample(roots, 40)
    for alpha in roots:
        assert 2 * rs.root_length(alpha) == bilinear_by_sym(rs, alpha, alpha)
        s_coords = coroot_s_coords_by_sym(rs, alpha)
        assert rs.coroot_s_coords(alpha) == s_coords
        # H^alpha = sum_j h_j H^{alpha_j}, so alpha_k(H^alpha) = sum_j A[k][j] h_j
        h = rs.coroot(alpha)
        assert tuple(sum(rs.cartan[k][j] * h[j] for j in range(r)) for k in range(r)) == s_coords


def test_pairings_of_simple_roots_are_cartan_rows():
    for name in ALL_TYPES:
        rs = root_system(name)
        assert tuple(rs.pairings(a) for a in rs.simple_roots) == rs.cartan


def test_simple_reflection_against_general_reflection():
    for name in ALL_TYPES:
        rs = root_system(name)
        for beta in rs.roots:
            for j, pair in enumerate(rs.pairings(beta)):
                image = rs.simple_reflection(beta, j)
                if pair == 0:
                    assert image is beta
                else:
                    assert image == reflect(rs, rs.simple_roots[j], beta)
                    assert rs.simple_reflection(image, j) == beta


@pytest.mark.parametrize(
    "name, order",
    [("A3", 24), ("B3", 48), ("C3", 48), ("D4", 192), ("F4", 1152), ("G2", 12)],
)
def test_weyl_orbit_of_rho_is_the_weyl_group(name, order):
    # rho has Fraction coordinates in types B, C, D and F
    rs = root_system(name)
    start = rho(rs).root_coords
    orbit = rs.weyl_orbit([start])
    assert len(orbit) == order
    assert orbit.keys() == weyl_orbit_with_signs(rs, start).keys()
    assert list(orbit) == list(weyl_orbit_by_every_node(rs, [start]))
    assert set(orbit.values()) == {None}


def test_weyl_orbit_on_levi_nodes():
    # without node 2, alpha_2 moves through the roots with coefficient 1 there
    rs = root_system("A3")
    orbit = rs.weyl_orbit([rs.simple_roots[1]], [0, 2])
    assert set(orbit) == {b for b in rs.roots if b[1] == 1}
    assert set(rs.weyl_orbit(rs.simple_roots)) == rs.roots


def _orbit_cases(rs):
    """(starts, nodes) pairs: the simple roots, a negative simple root, the
    highest root and, where |W| is small, rho with Fraction coordinates, on
    every node and on the Levi nodes of the first, a middle and the last
    node."""
    r = rs.rank
    simple, theta = rs.simple_roots, rs.highest_root
    cases = [(simple, None), ([tuple(-c for c in simple[-1])], None), ([theta], None)]
    for i in sorted({0, r // 2, r - 1}):
        levi = [j for j in range(r) if j != i]
        cases += [([simple[i]], levi), ([tuple(-c for c in simple[i])], levi),
                  ([theta], levi)]
        if r <= 4:
            cases.append(([rho(rs).root_coords], levi))
    if r <= 4:
        cases.append(([rho(rs).root_coords], None))
    return cases


ORBIT_TYPES = lie_types_up_to(8) + [LieType.parse(n) for n in ("A30", "B24", "D26", "D48")]


@pytest.mark.parametrize("lie_type", ORBIT_TYPES, ids=str)
def test_weyl_orbit_tree_matches_every_node_oracle(lie_type):
    # the same vectors in the same breadth-first order as the oracle's tree
    rs = root_system(str(lie_type))
    for starts, nodes in _orbit_cases(rs):
        orbit = rs.weyl_orbit(starts, nodes)
        assert list(orbit) == list(weyl_orbit_by_every_node(rs, starts, nodes))


@pytest.mark.parametrize("lie_type", ORBIT_TYPES + [LieType.parse("D64")], ids=str)
def test_climb_matches_the_weyl_orbit_of_the_simple_roots(lie_type):
    # the climb takes only edges with a negative pairing; the full orbit walk
    # must find the same roots, and the oracle's tree hand each one the d of
    # its start
    rs = root_system(str(lie_type))
    tree = weyl_orbit_by_every_node(rs, rs.simple_roots)
    assert list(rs.weyl_orbit(rs.simple_roots)) == list(tree)
    assert rs.roots == set(tree)
    inherited = {}
    for beta, link in tree.items():  # a parent is inserted before its child
        inherited[beta] = rs.lengths[beta.index(1)] if link is None else inherited[link[0]]
    assert {beta: rs.root_length(beta) for beta in rs.roots} == inherited
    positive = [beta for beta in tree if sum(beta) > 0]
    assert rs.positive_roots == tuple(sorted(positive, key=lambda b: (sum(b), b)))


@pytest.mark.parametrize("lie_type", lie_types_up_to(4), ids=str)
def test_climb_reaches_the_dominant_element_of_the_orbit(lie_type):
    # the orbit and the pairings come from the dense Cartan matrix
    rs = root_system(str(lie_type))
    r = rs.rank
    columns = list(zip(*rs.cartan))
    rng = random.Random(f"climb-{lie_type}")
    for _ in range(8):
        fund = tuple(rng.randint(-3, 3) for _ in range(r))
        start = weight_from_fund_dense(rs, fund).root_coords
        (dominant,) = [mu for mu in weyl_orbit_with_signs(rs, start)
                       if all(sum(map(mul, mu, col)) >= 0 for col in columns)]
        top, word = rs.climb(fund)
        assert weight_from_fund_dense(rs, top).root_coords == dominant, fund
        assert apply_word_dense(rs, word, start) == dominant, fund
        assert rs.climb(top) == (top, ())
    for bad in ((0,) * (r + 1), (-1,) * (r - 1)):
        with pytest.raises(IndexOutOfRange):
            rs.climb(bad)


@pytest.mark.parametrize("lie_type", ORBIT_TYPES, ids=str)
def test_root_lengths_from_the_tree_match_the_form(lie_type):
    rs = root_system(str(lie_type))
    lengths = {alpha: rs.root_length(alpha) for alpha in rs.roots}
    if rs.rank > 8 and lie_type.family in "AD":
        # simply laced: one length, and the dense form is O(rank^2) a root
        assert set(lengths.values()) == {1}
        alphas = random.Random(f"lengths-{lie_type}").sample(sorted(rs.roots), 40)
    else:
        alphas = rs.roots
    for alpha in alphas:
        assert 2 * lengths[alpha] == bilinear_by_sym(rs, alpha, alpha)
    r = rs.rank
    for bad in ((0,) * r, tuple(2 * c for c in rs.highest_root),
                (1, -1) + (0,) * (r - 2), (1,) * (r + 1)):
        with pytest.raises(NotARoot):
            rs.root_length(bad)


@pytest.mark.parametrize("lie_type", lie_types_up_to(12), ids=str)
def test_root_queries_match_a_map_of_the_positives_and_their_negations(lie_type):
    # the library stores the positive roots only; every query must answer as
    # the full map would, lengths from the dense form
    rs = RootSystem(lie_type)
    lengths = {b: bilinear_by_sym(rs, b, b) // 2 for b in rs.positive_roots}
    lengths |= {tuple(-c for c in b): d for b, d in lengths.items()}
    assert rs.roots == lengths.keys()
    r = rs.rank
    near = {b[:j] + (b[j] + s,) + b[j + 1:] for b in lengths for j in range(r) for s in (1, -1)}
    bad = [(0,) * r, (1,) * (r + 1), (-1,) * (r + 1), (1,) * (r - 1), (-1,) * (r - 1)]
    if r > 1:
        bad += [(1, -1) + (0,) * (r - 2), (-1,) + (1,) * (r - 1)]
    for v in sorted(lengths.keys() | near) + bad:
        if v in lengths:
            assert rs.is_root(v) and rs.check_root(iter(v)) == v
            assert rs.root_length(v) == lengths[v], v
            continue
        assert not rs.is_root(v), v
        for query in (rs.check_root, rs.root_length):
            with pytest.raises(NotARoot):
                query(v)


# -- the Cartan data against Euclidean simple roots ---------------------------


def _unit(n, *signed):
    """sum of c e_k over the (c, k) in ``signed``, 1-based k, in R^n."""
    v = [0] * n
    for c, k in signed:
        v[k - 1] += c
    return v


def _euclidean_simple_roots(lie_type):
    """Bourbaki's simple roots (Plates I-IX) in doubled coordinates, so the
    halves of E8 and F4 stay integral."""
    fam, r = lie_type.family, lie_type.rank
    if fam == "A":
        return [_unit(r + 1, (2, i), (-2, i + 1)) for i in range(1, r + 1)]
    if fam in "BCD":
        last = {"B": ((2, r),), "C": ((4, r),), "D": ((2, r - 1), (2, r))}[fam]
        return [_unit(r, (2, i), (-2, i + 1)) for i in range(1, r)] + [_unit(r, *last)]
    if fam == "E":
        e8 = [[1, -1, -1, -1, -1, -1, -1, 1], _unit(8, (2, 1), (2, 2))]
        e8 += [_unit(8, (2, k), (-2, k - 1)) for k in range(2, 8)]
        return e8[:r]
    if fam == "F":
        return [_unit(4, (2, 2), (-2, 3)), _unit(4, (2, 3), (-2, 4)), _unit(4, (2, 4)),
                [1, -1, -1, -1]]
    return [_unit(3, (2, 1), (-2, 2)), _unit(3, (-4, 1), (2, 2), (2, 3))]  # G2


def _exact(num, den):
    q, r = divmod(num, den)
    assert not r
    return q


CARTAN_ORACLE_TYPES = lie_types_up_to(8) + [
    LieType(fam, r) for fam in "ABCD" for r in (16, 24, 64)
]


def test_cartan_data_matches_euclidean_realisation():
    """A[i][j] = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j) and d_j = (alpha_j,
    alpha_j) / (short, short), from the Euclidean simple roots, not from the
    edge rule."""
    for lie_type in CARTAN_ORACLE_TYPES:
        simple = _euclidean_simple_roots(lie_type)
        gram = [[sum(map(mul, a, b)) for b in simple] for a in simple]
        norms = [gram[j][j] for j in range(lie_type.rank)]
        cartan = tuple(
            tuple(_exact(2 * g, n) for g, n in zip(row, norms)) for row in gram
        )
        d = tuple(_exact(n, min(norms)) for n in norms)
        assert _cartan_data(lie_type) == (cartan, d), lie_type


# -- the Cartan classifier -----------------------------------------------------


def _relabel(matrix, perm):
    return [[matrix[a][b] for b in perm] for a in perm]


def _named(lie_type):
    # B2 and C2 share a Cartan matrix up to relabelling; B2 is reported
    return LieType("B", 2) if lie_type == LieType("C", 2) else lie_type


def test_cartan_type_recovers_every_type_under_relabelling():
    rng = random.Random(4507)
    for lie_type in lie_types_up_to(8):
        cartan, _ = _cartan_data(lie_type)
        for _ in range(4):
            perm = list(range(lie_type.rank))
            rng.shuffle(perm)
            assert cartan_type(_relabel(cartan, perm)) == (_named(lie_type),)


def test_cartan_type_splits_block_sums():
    rng = random.Random(1407)
    pool = lie_types_up_to(6)
    assert cartan_type([]) == ()
    for _ in range(40):
        parts = rng.sample(pool, rng.randint(2, 4))
        n = sum(t.rank for t in parts)
        matrix = [[0] * n for _ in range(n)]
        offset = 0
        for t in parts:
            for i, row in enumerate(_cartan_data(t)[0]):
                matrix[offset + i][offset:offset + t.rank] = row
            offset += t.rank
        perm = list(range(n))
        rng.shuffle(perm)
        expected = tuple(sorted(map(_named, parts), key=str))
        assert cartan_type(_relabel(matrix, perm)) == expected


@pytest.mark.parametrize("matrix", [
    [[3]],  # a diagonal entry other than 2
    [[2, 0], [0, 7]],  # the same, in a second component
    [[2, -3], [-3, 2]],  # an off-diagonal pair of no rank-2 type
    [[2, -1], [0, 2]],  # A[i][j] != 0 with A[j][i] = 0
    [[2, 0], [-1, 2]],  # the same, below the diagonal
], ids=["diagonal-3", "diagonal-7", "bond-3-3", "one-sided-above", "one-sided-below"])
def test_cartan_type_refuses_what_is_not_a_cartan_matrix(matrix):
    with pytest.raises(NotACartanMatrix, match="unclassifiable Cartan matrix"):
        cartan_type(matrix)


@pytest.mark.parametrize("matrix", [
    [[2, -1], [-1]],  # ragged
    [[2, -1, 0], [-1, 2, 0]],  # two rows of three
    [[2], [2]],  # two rows of one
], ids=["ragged", "wide", "tall"])
def test_cartan_type_refuses_a_matrix_that_is_not_square(matrix):
    with pytest.raises(NotACartanMatrix, match="not a square matrix"):
        cartan_type(matrix)


INVERSE_CARTAN_TYPES = lie_types_up_to(12) + [
    LieType("A", 30), LieType("B", 24), LieType("C", 20), LieType("D", 26)
]


@pytest.mark.parametrize("lie_type", INVERSE_CARTAN_TYPES, ids=str)
def test_inverse_cartan_matches_gauss_jordan(lie_type):
    rs = build_root_system(lie_type)
    inv, r = rs.inverse_cartan, rs.rank
    assert inv == inverse_cartan_by_gauss_jordan(rs)
    assert all(type(x) is Fraction for row in inv for x in row)
    product = [
        [sum(rs.cartan[i][k] * inv[k][j] for k in range(r)) for j in range(r)]
        for i in range(r)
    ]
    assert product == [[int(i == j) for j in range(r)] for i in range(r)]
