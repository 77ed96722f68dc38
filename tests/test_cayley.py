import itertools
import random

import pytest
from helpers import (
    apply_word_dense,
    bigrading_by_roots,
    census_by_sets,
    classical_real_rank,
    coroot_s_coords_by_sym,
    lie_types_up_to,
    real_rank_unbounded,
    sos_sets_by_three_tests,
    strongly_orthogonal_by_three_tests,
    word_images_dense,
)

from hodgeorbit.cayley import (
    _so_graph,
    bigrading,
    boundary_census,
    codim_one_uniqueness_check,
    enhanced_sl2_descriptor,
    gamma_subsystem,
    iter_sos,
    lmhs_type,
    orbit_invariants,
    real_rank,
    restriction_pairing,
    search_sos,
    sos_candidates,
    validate_sos,
    weight_grading_dims,
    weyl_flip,
)
from hodgeorbit.errors import IndexOutOfRange, InvalidSOS, LengthMismatch, NotFundamentalAdjoint
from hodgeorbit.grading import evaluate, grading_element_for, is_fundamental_adjoint
from hodgeorbit.reps import fundamental_weights, weight_from_root
from hodgeorbit.rootdata import (
    LieType,
    RootSystem,
    build_root_system,
    conjugate_root,
    root_system,
)
from hodgeorbit.tables import _ADJOINT_ALL

# Table rows: (c, mu) classes of the boundary census per type
CENSUS_EXPECTED = {
    ("G2", 2): {(1, 2), (3, 3), (5, 4)},
    ("F4", 1): {(1, 7), (5, 10), (8, 13), (15, 14)},
    ("E6", 2): {(1, 10), (6, 15), (11, 19), (21, 20)},
    ("E7", 1): {(1, 16), (8, 25), (17, 31), (33, 32)},
    ("E8", 8): {(1, 28), (12, 45), (29, 55), (57, 56)},
    ("B3", 2): {(1, 3), (3, 4), (4, 5), (7, 6)},
}

# Remark data: each B with its s and the real rank of the ambient form
REMARK_CASES = [
    ("E7", 5, ["0,0,0,0,1,0,0", "0,0,0,1,1,1,0", "0,1,1,2,1,0,0",
               "0,1,1,1,1,1,0", "0,1,0,1,1,1,1", "0,0,1,1,1,1,1"], 6, 7),
    ("E8", 2, ["0,1,0,0,0,0,0,0", "0,1,1,2,1,0,0,0", "1,1,1,2,1,1,0,0",
               "1,1,2,2,2,1,0,0", "1,1,2,2,1,1,1,0", "1,1,1,2,2,1,1,0",
               "0,1,1,2,2,2,1,0"], 7, 8),
    ("E8", 5, ["0,0,0,0,1,0,0,0", "0,0,0,1,1,1,0,0", "0,1,1,2,1,0,0,0",
               "0,1,1,1,1,1,0,0", "0,1,0,1,1,1,1,0", "0,0,1,1,1,1,1,0"], 6, 8),
    ("E8", 6, ["0,0,0,0,0,1,0,0", "0,0,0,0,1,1,1,0", "0,0,0,1,1,1,1,1",
               "0,1,1,2,2,1,0,0", "0,1,1,2,1,1,1,0", "0,1,1,1,1,1,1,1"], 6, 8),
    ("F4", 2, ["0,1,0,0", "1,1,1,0", "0,1,2,0"], 3, 4),
    ("G2", 1, ["1,0"], 1, 2),
]


def _coords(text):
    return tuple(int(x) for x in text.split(","))


def test_validate_sos():
    g2 = root_system("G2")
    E = grading_element_for(g2, {2})
    assert validate_sos(g2, E, [(0, 1)]) == []
    assert validate_sos(g2, E, [(0, 1), (2, 1)]) == []
    bad = validate_sos(g2, E, [(0, 1), (3, 1)])
    assert any("sum" in v for v in bad)
    assert any("E-value" in v for v in validate_sos(g2, E, [(3, 2)]))
    assert any("not a root" in v for v in validate_sos(g2, E, [(1, 2)]))


def test_validate_sos_over_the_rank_is_one_violation():
    rs = root_system("B3")
    E = grading_element_for(rs, {2})
    cycle = sos_candidates(rs, E)
    B = [cycle[k % len(cycle)] for k in range(2000)]
    assert validate_sos(rs, E, B) == ["2000 roots, more than the rank 3"]
    four = [(0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1)]
    assert validate_sos(rs, E, four) == ["4 roots, more than the rank 3"]
    # at the rank itself the pairs are checked
    assert validate_sos(rs, E, four[:3]) == [
        "difference (-1, 0, 0) of (0, 1, 0) and (1, 1, 0) is a root",
        "difference (0, 0, -1) of (0, 1, 0) and (0, 1, 1) is a root",
    ]


def test_orbit_sos_over_the_rank_exits_3_with_one_line():
    from click.testing import CliRunner

    from hodgeorbit.cli import main

    cycle = ("0,1,0", "1,1,0", "0,1,1", "1,1,1", "0,1,2", "1,1,2")
    sos = "|".join(cycle[k % 6] for k in range(2000))
    res = CliRunner().invoke(main, ["orbit", "--type", "B3", "--node", "2", "--sos", sos])
    assert res.exit_code == 3
    assert res.stderr == "invalid SOS: 2000 roots, more than the rank 3\n"


def test_search_sos_g2():
    g2 = root_system("G2")
    r = search_sos(g2, grading_element_for(g2, {2}))
    assert r.max_size == 2
    assert ((0, 1), (2, 1)) in r.sets
    r1 = search_sos(g2, grading_element_for(g2, {1}))
    assert r1.max_size == 1
    assert ((1, 0),) in r1.sets


def test_search_sos_f4_node2():
    from hodgeorbit.cayley import canonical_sos

    f4 = root_system("F4")
    r = search_sos(f4, grading_element_for(f4, {2}))
    assert r.max_size == 3
    remark_set = canonical_sos(f4, [(0, 1, 0, 0), (1, 1, 1, 0), (0, 1, 2, 0)])
    assert remark_set in r.sets


def test_iter_sos_counts_and_canonicity():
    g2 = root_system("G2")
    sets = list(iter_sos(g2, grading_element_for(g2, {2})))
    assert len(sets) == len(set(sets))
    assert sorted(len(B) for B in sets) == [1, 1, 1, 1, 2, 2]


def test_real_rank_values():
    cases = [("G2", 1, 2), ("F4", 2, 4), ("E7", 5, 7),
             ("E8", 2, 8), ("E8", 5, 8), ("E8", 6, 8)]
    for name, node, expected in cases:
        rs = root_system(name)
        assert real_rank(rs, grading_element_for(rs, {node})) == expected


def test_real_rank_matches_unbounded_search():
    for lie_type in lie_types_up_to(8):
        rs = build_root_system(lie_type)
        for node in range(1, rs.rank + 1):
            E = grading_element_for(rs, {node})
            assert real_rank(rs, E) == real_rank_unbounded(rs, E), (lie_type, node)


def test_real_rank_matches_unbounded_search_on_every_grading():
    # every E in {0,1}^r \ {0}; some real ranks must fall below the rank,
    # where the Cayley transforms stop before the Cartan subalgebra is split
    fallbacks = 0
    for lie_type in lie_types_up_to(6):
        rs = build_root_system(lie_type)
        for E in itertools.product((0, 1), repeat=rs.rank):
            if any(E):
                want = real_rank_unbounded(rs, E)
                assert real_rank(rs, E) == want, (lie_type, E)
                fallbacks += want < rs.rank
    assert fallbacks > 0


def test_real_rank_matches_classical_closed_forms():
    # every node of A/B/C/D_n for n <= 24, B15 at node 7 (so(14, 17)) among
    # them, and the ends, the middle and the spin nodes at n = 64
    cases = [(n, range(1, n + 1)) for n in (9, 15, 16, 24)]
    cases.append((64, (1, 2, 31, 32, 33, 62, 63, 64)))
    for n, nodes in cases:
        for family in "ABCD":
            rs = build_root_system(LieType(family, n))
            for node in nodes:
                E = grading_element_for(rs, {node})
                want = classical_real_rank(rs.lie_type, node)
                assert real_rank(rs, E) == want, (rs.lie_type, node)


def _three_test_graph(rs, roots):
    adj = [0] * len(roots)
    for k, j in itertools.combinations(range(len(roots)), 2):
        if strongly_orthogonal_by_three_tests(rs, roots[k], roots[j]):
            adj[k] |= 1 << j
            adj[j] |= 1 << k
    return adj


def _assert_so_graph_matches_three_tests(rs, node):
    E = grading_element_for(rs, {node})
    candidates = [b for b in rs.positive_roots if evaluate(b, E) == 1]
    odd = [b for b in rs.positive_roots if evaluate(b, E) % 2]
    for roots in (candidates, odd) if odd != candidates else (candidates,):
        assert _so_graph(rs, roots) == _three_test_graph(rs, roots), (rs.lie_type, node)


def test_so_graph_matches_three_test_oracle():
    # the candidates of iter_sos, and the odd roots as a second vertex set,
    # on every node
    for lie_type in lie_types_up_to(8):
        rs = build_root_system(lie_type)
        for node in range(1, rs.rank + 1):
            _assert_so_graph_matches_three_tests(rs, node)


def test_so_graph_matches_three_test_oracle_d48():
    _assert_so_graph_matches_three_tests(root_system("D48"), 2)


def test_remark_sets_validate():
    for name, node, b_strs, s, rank_r in REMARK_CASES:
        rs = root_system(name)
        E = grading_element_for(rs, {node})
        B = [_coords(b) for b in b_strs]
        assert validate_sos(rs, E, B) == []
        assert len(B) == s
        assert real_rank(rs, E) == rank_r


def test_bigrading_empty_is_antidiagonal():
    g2 = root_system("G2")
    E = grading_element_for(g2, {2})
    dia = bigrading(g2, E, [])
    assert dia == bigrading_by_roots(g2, E, [])
    assert all(q == -p for (p, q) in dia.support)
    from hodgeorbit.grading import parabolic

    dims = parabolic(g2, {2}).eigen_dims
    for (p, q), d in dia.entries:
        assert dims[p] == d


def test_bigrading_g2_figure3():
    g2 = root_system("G2")
    dia = bigrading(g2, grading_element_for(g2, {2}), [(0, 1)])
    expected = {
        (2, -1): 1, (1, 1): 1, (1, 0): 1, (1, -1): 1, (1, -2): 1,
        (0, 1): 1, (0, 0): 2, (0, -1): 1,
        (-1, 2): 1, (-1, 1): 1, (-1, 0): 1, (-1, -1): 1, (-2, 1): 1,
    }
    assert dia.as_dict() == expected


def test_bigrading_br_figure3_dims():
    for name, a, b in [("B3", 2, 3), ("B4", 4, 6), ("B5", 6, 13),
                       ("D4", 3, 4), ("D5", 5, 9),
                       ("E6", 9, 18), ("E7", 15, 37), ("E8", 27, 80),
                       ("F4", 6, 10), ("G2", 1, 2)]:
        rs = root_system(name)
        i = {"E7": 1, "E8": 8, "F4": 1}.get(name, 2)
        alpha_i = tuple(1 if k == i - 1 else 0 for k in range(rs.rank))
        dia = bigrading(rs, grading_element_for(rs, {i}), [alpha_i])
        assert dia.dim(2, -1) == 1
        assert dia.dim(0, 1) == a
        assert dia.dim(0, 0) == b
        assert lmhs_type(rs, dia) == "I"


def test_bigrading_rejects_invalid():
    g2 = root_system("G2")
    with pytest.raises(InvalidSOS):
        bigrading(g2, grading_element_for(g2, {2}), [(3, 2)])


def test_bigrading_checks_hodge_symmetry(monkeypatch):
    # subtract S^1 from H^{alpha_2} on a fresh G2: Y = sum_b H^b then puts a
    # root at (p, q) = (-2, 4), and no root at (4, -2)
    rs = RootSystem(LieType("G", 2))
    true_coords = rs.coroot_s_coords

    def shifted(alpha):
        coords = true_coords(alpha)
        return (coords[0] - 1,) + coords[1:]

    monkeypatch.setattr(rs, "coroot_s_coords", shifted)
    with pytest.raises(AssertionError, match="diamond symmetry violated"):
        bigrading(rs, grading_element_for(rs, {2}), [(0, 1)])


def test_conjugation_consistency_root_level():
    # (p, q) of the conjugate root is (q, p)
    from hodgeorbit.grading import evaluate

    for name, i, B in [("G2", 2, [(0, 1)]), ("B3", 2, [(0, 1, 0), (0, 1, 2)]),
                       ("F4", 1, [(1, 0, 0, 0)])]:
        rs = root_system(name)
        E = grading_element_for(rs, {i})
        hs = [rs.coroot_s_coords(b) for b in B]
        for beta in rs.roots:
            p = evaluate(beta, E)
            q = sum(evaluate(beta, h) for h in hs) - p
            bar = conjugate_root(rs, beta, B)
            pb = evaluate(bar, E)
            qb = sum(evaluate(bar, h) for h in hs) - pb
            assert (pb, qb) == (q, p)


def test_orbit_invariants_g2_and_example_4_14():
    g2 = root_system("G2")
    E = grading_element_for(g2, {2})
    inv = orbit_invariants(g2, E, [(0, 1)])
    assert (inv.codim, inv.mu, inv.lmhs_type) == (1, 2, "I")
    inv = orbit_invariants(g2, E, [(2, 1)])
    assert (inv.codim, inv.mu, inv.lmhs_type) == (3, 3, "III")
    # Delta(+,+) for B = {2a1+a2} is exactly {2a1+a2, 3a1+a2, 3a1+2a2}
    from hodgeorbit.grading import evaluate

    h = g2.coroot_s_coords((2, 1))
    plus_plus = {
        beta
        for beta in g2.roots
        if evaluate(beta, E) >= 1 and evaluate(beta, h) - evaluate(beta, E) >= 1
    }
    assert plus_plus == {(2, 1), (3, 1), (3, 2)}
    inv = orbit_invariants(g2, E, [(0, 1), (2, 1)])
    assert (inv.codim, inv.mu, inv.lmhs_type) == (5, 4, "IV")


def test_mu_identity_on_adjoint_diamonds():
    # on every census diamond of the adjoint tables, c + k - 2 is twice
    # h^{1,1} + h^{1,2} + h^{0,1} + h^{0,2}, so mu = (c + k) / 2 - 1 is an
    # integer with no check of its own
    for name, i in _ADJOINT_ALL:
        for entry in boundary_census(root_system(name), i):
            inv, dia = entry.invariants, entry.diamond
            half = dia.dim(1, 1) + dia.dim(1, 2) + dia.dim(0, 1) + dia.dim(0, 2)
            assert inv.codim + inv.k_dim - 2 == 2 * half, (name, entry.representative)
            assert inv.mu == (inv.codim + inv.k_dim) // 2 - 1


def test_codim_one_uniqueness_all_fundamental_adjoints():
    for name, i in [("B3", 2), ("D4", 2), ("E6", 2), ("E7", 1), ("E8", 8),
                    ("F4", 1), ("G2", 2)]:
        assert codim_one_uniqueness_check(root_system(name), i)


def test_weight_grading_dims():
    g2 = root_system("G2")
    dims = weight_grading_dims(g2, 2)
    assert dims == {-2: 1, -1: 4, 0: 4, 1: 4, 2: 1}
    for name, i in [("B4", 2), ("E6", 2), ("E7", 1), ("E8", 8), ("F4", 1)]:
        weight_grading_dims(root_system(name), i)  # raises on any mismatch
    with pytest.raises(NotFundamentalAdjoint):
        weight_grading_dims(root_system("C3"), 1)


def test_weight_grading_dims_checks_each_eigenspace(monkeypatch):
    # double H^{alpha_2} on a fresh G2: its eigenvalues double, so dim g_l no
    # longer matches the S^2-eigenspace of eigenvalue -l
    rs = RootSystem(LieType("G", 2))
    true_coords = rs.coroot_s_coords
    monkeypatch.setattr(rs, "coroot_s_coords", lambda a: tuple(2 * c for c in true_coords(a)))
    with pytest.raises(AssertionError, match=r"dim g_l != dim g\^\{-l\}"):
        weight_grading_dims(rs, 2)


def test_coroot_s_coordinates_table5():
    expected = {
        ("B4", 2): (-1, 2, -1, 0),
        ("D4", 2): (-1, 2, -1, -1),
        ("D5", 2): (-1, 2, -1, 0, 0),
        ("E6", 2): (0, 2, 0, -1, 0, 0),
        ("E7", 1): (2, 0, -1, 0, 0, 0, 0),
        ("E8", 8): (0, 0, 0, 0, 0, 0, -1, 2),
        ("F4", 1): (2, -1, 0, 0),
        ("G2", 2): (-1, 2),
    }
    for (name, i), coords in expected.items():
        rs = root_system(name)
        alpha_i = tuple(1 if k == i - 1 else 0 for k in range(rs.rank))
        assert rs.coroot_s_coords(alpha_i) == coords


def _flip_cases():
    """(root system, node) for every node of the length of the highest root,
    on every type up to rank 8, on B24 and on D64 (its 64 weyl_flip calls
    take about 0.3 s on 2 vCPU)."""
    for lie_type in lie_types_up_to(8) + [LieType("B", 24), LieType("D", 64)]:
        rs = build_root_system(lie_type)
        for i in range(1, rs.rank + 1):
            if rs.lengths[i - 1] == rs.root_length(rs.highest_root):
                yield rs, i


def test_weyl_flip():
    assert weyl_flip(root_system("A1"), 1) == (1,)
    for rs, i in _flip_cases():
        word = [j - 1 for j in weyl_flip(rs, i)]  # verifies itself
        alpha_i = rs.simple_roots[i - 1]
        start = tuple(-c for c in alpha_i)
        assert apply_word_dense(rs, word, start) == rs.highest_root, (rs.lie_type, i)
        if rs.lie_type.family in "ADE":  # each step adds one simple root
            assert len(word) == sum(rs.highest_root), (rs.lie_type, i)
        if rs.rank > 24:
            continue
        # the library checks the simple roots only: check every root here,
        # with coroots from the dense form, integral on roots
        h = coroot_s_coords_by_sym(rs, alpha_i)
        h_tilde = coroot_s_coords_by_sym(rs, rs.highest_root)
        assert all(c.denominator == 1 for c in h + h_tilde)
        h, h_tilde = [int(c) for c in h], [int(c) for c in h_tilde]
        for alpha, image in word_images_dense(rs, word).items():
            assert evaluate(image, h_tilde) == -evaluate(alpha, h), (rs.lie_type, i, alpha)


def test_weyl_flip_checks_every_simple_root(monkeypatch):
    # corrupt alpha_1(H^{alpha_2}) from 0 to 1 on a fresh E6: the check must read
    # that coordinate, not only the one at alpha_2 itself
    rs = RootSystem(LieType("E", 6))
    true_coords = rs.coroot_s_coords

    def corrupted(alpha):
        coords = true_coords(alpha)
        return (1,) + coords[1:] if alpha == rs.simple_roots[1] else coords

    monkeypatch.setattr(rs, "coroot_s_coords", corrupted)
    with pytest.raises(AssertionError, match="flip does not negate the grading"):
        weyl_flip(rs, 2)


def test_weyl_flip_checks_where_the_climb_ends():
    # on a fresh E6, a long root below the highest one stands in for it: the
    # climb from -alpha_2 still reaches the true highest root
    rs = RootSystem(LieType("E", 6))
    rs.highest_root = rs.positive_roots[-2]
    with pytest.raises(AssertionError, match="climb from -alpha_i ends below the highest"):
        weyl_flip(rs, 2)


@pytest.mark.parametrize("name, node", [("B3", 3), ("C3", 1), ("G2", 1)])
def test_weyl_flip_refuses_a_short_node(name, node):
    with pytest.raises(LengthMismatch, match=f"alpha_{node} and the highest root"):
        weyl_flip(root_system(name), node)


@pytest.mark.parametrize("node", [0, -1, 5])
def test_weyl_flip_rejects_node_outside_diagram(node):
    # 0 and -1 would wrap round to alpha_4 and alpha_3 of the simple roots
    with pytest.raises(IndexOutOfRange, match=f"index {node} outside 1..4"):
        weyl_flip(root_system("D4"), node)


def test_enhanced_sl2_table7():
    cases = {
        ("G2", 2): (("A1",), 2),
        ("F4", 1): (("C3",), 7),
        ("E6", 2): (("A5",), 10),
        ("E7", 1): (("D6",), 16),
        ("E8", 8): (("E7",), 28),
        ("B3", 2): (("A1", "A1"), 3),
        ("B4", 2): (("A1", "B2"), 5),
        ("D5", 2): (("A1", "A3"), 6),
    }
    for (name, i), (types, dim) in cases.items():
        rs = root_system(name)
        alpha_i = tuple(1 if k == i - 1 else 0 for k in range(rs.rank))
        d = enhanced_sl2_descriptor(rs, grading_element_for(rs, {i}), [alpha_i])
        assert tuple(str(t) for t in d.gamma_type) == types
        assert d.dim_x == dim
        assert d.horizontal


def test_gamma_subsystem_excludes_b():
    g2 = root_system("G2")
    gamma = gamma_subsystem(g2, [(0, 1)])
    assert set(gamma) == {(2, 1), (-2, -1)}


def test_restriction_pairing():
    g2 = root_system("G2")
    w1, w2 = fundamental_weights(g2)
    assert restriction_pairing(g2, w1, (2, 1)) == 2
    assert restriction_pairing(g2, w1, (1, 0)) == 1
    assert restriction_pairing(g2, w2, (0, 1)) == 1
    # the root a2 is strongly orthogonal to 2a1+a2, so it restricts to zero
    assert restriction_pairing(g2, weight_from_root(g2, (0, 1)), (2, 1)) == 0
    # the highest root has a beta-string of length three here
    assert restriction_pairing(g2, w2, (2, 1)) == 3


def test_boundary_census_expected_classes():
    for (name, i), expected in CENSUS_EXPECTED.items():
        census = boundary_census(root_system(name), i)
        got = {(e.invariants.codim, e.invariants.mu) for e in census}
        assert got == expected, name
        assert len(census) == len(expected)


def test_boundary_census_bd_series_formulas():
    for name in ["B4", "B5", "D5", "D6"]:
        rs = root_system(name)
        r = rs.rank
        n = 2 * r - 3 if name[0] == "B" else 2 * r - 4
        census = boundary_census(rs, 2)
        got = {(e.invariants.codim, e.invariants.mu) for e in census}
        expected = {(1, n), (4, 2 * n - 3), (n, n + 1), (n + 1, 2 * n - 1),
                    (2 * n + 1, 2 * n)}
        assert got == expected, name


def test_boundary_census_d4_triality():
    census = boundary_census(root_system("D4"), 2)
    klass = {(e.invariants.codim, e.invariants.mu): e.weyl_classes for e in census}
    assert klass == {(1, 4): 1, (4, 5): 3, (5, 7): 1, (9, 8): 1}
    # six boundary orbits in total, despite only four distinct diamonds
    assert sum(klass.values()) == 6


def test_boundary_census_figure2_counts():
    expected_nodes = {("G2", 2): 3, ("B3", 2): 4, ("F4", 1): 4, ("E6", 2): 4,
                      ("E7", 1): 4, ("E8", 8): 4, ("B4", 2): 5, ("D5", 2): 5}
    for (name, i), count in expected_nodes.items():
        assert len(boundary_census(root_system(name), i)) == count


# every fundamental adjoint (type, node) up to rank 8, then four larger ones;
# written out, so that a fault in root construction fails tests by id and
# not the collection of this module
CENSUS_ORACLE_SMALL = (
    [(f"B{r}", 2) for r in range(3, 9)] + [(f"D{r}", 2) for r in range(4, 9)]
    + [("E6", 2), ("E7", 1), ("E8", 8), ("F4", 1), ("G2", 2)]
)
CENSUS_ORACLE_CASES = CENSUS_ORACLE_SMALL + [("B10", 2), ("D12", 2), ("B14", 2), ("D16", 2)]


def test_census_oracle_cases_are_the_fundamental_adjoints():
    assert CENSUS_ORACLE_SMALL == [
        (str(t), i)
        for t in lie_types_up_to(8)
        for i in range(1, t.rank + 1)
        if is_fundamental_adjoint(root_system(str(t)), {i})
    ]
    for name, i in CENSUS_ORACLE_CASES[len(CENSUS_ORACLE_SMALL):]:
        assert is_fundamental_adjoint(root_system(name), {i})


@pytest.mark.parametrize("name, i", CENSUS_ORACLE_CASES)
def test_boundary_census_matches_per_set_oracle(name, i):
    # one diamond per Levi-Weyl class against one diamond per set
    rs = root_system(name)
    assert boundary_census(rs, i) == census_by_sets(rs, i)


@pytest.mark.parametrize("name, i", CENSUS_ORACLE_CASES)
def test_iter_sos_matches_three_test_recursion(name, i):
    # each set once, and the same sets as a recursion over the three-test oracle
    rs = root_system(name)
    E = grading_element_for(rs, {i})
    sets = [frozenset(B) for B in iter_sos(rs, E)]
    assert len(sets) == len(set(sets))
    assert set(sets) == sos_sets_by_three_tests(rs, E)


def test_boundary_census_rejects_non_adjoint():
    with pytest.raises(NotFundamentalAdjoint):
        boundary_census(root_system("A3"), 1)


def test_prefix_monotonicity():
    # codimension never decreases when B is extended
    for name, i in [("G2", 2), ("F4", 1), ("B4", 2)]:
        rs = root_system(name)
        E = grading_element_for(rs, {i})
        for B in iter_sos(rs, E):
            if len(B) < 2:
                continue
            c_full = orbit_invariants(rs, E, B).codim
            for k in range(1, len(B)):
                c_prefix = orbit_invariants(rs, E, B[:k]).codim
                assert c_prefix <= c_full


def test_type_iv_criterion_for_maximal_b():
    # maximal B in the adjoint cases yields a Hodge-Tate diamond: p = q
    for name, i in [("G2", 2), ("F4", 1), ("E6", 2), ("B4", 2)]:
        rs = root_system(name)
        E = grading_element_for(rs, {i})
        result = search_sos(rs, E)
        for B in result.sets:
            dia = bigrading(rs, E, B)
            assert all(p == q for (p, q) in dia.support)


def test_diamond_symmetries_random_sweep():
    """500 random valid B across many types: h^{pq} = h^{qp} = h^{-p,-q}."""
    rng = random.Random(20240810)
    pool = ["A3", "A4", "B3", "B4", "C3", "C4", "D4", "D5", "F4", "G2", "E6"]
    checked = 0
    while checked < 500:
        name = rng.choice(pool)
        rs = root_system(name)
        I = set(rng.sample(range(1, rs.rank + 1), rng.randrange(1, rs.rank + 1)))
        E = grading_element_for(rs, I)
        cand = list(sos_candidates(rs, E))
        rng.shuffle(cand)
        B = []
        from hodgeorbit.rootdata import strongly_orthogonal

        for b in cand:
            if all(strongly_orthogonal(rs, a, b) for a in B):
                B.append(b)
                if rng.random() < 0.4:
                    break
        if not B:
            continue
        dia = bigrading(rs, E, B)  # symmetry + total checked internally
        assert dia == bigrading_by_roots(rs, E, B)
        d = dia.as_dict()
        for (p, q), v in d.items():
            assert d.get((q, p)) == v and d.get((-p, -q)) == v
        checked += 1
    assert checked == 500
