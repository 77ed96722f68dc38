"""Acceptance suite: every numeric check is exact (tolerance zero).

One test per criterion; each prints a single PASS line on success (run with
``pytest -s tests/test_acceptance.py`` to see them).  Expected full-suite
runtime is well under a minute.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from hodgeorbit import cayley, chevalley, grading, lines, reps
from hodgeorbit.rootdata import conjugate_root, root_system, strongly_orthogonal

FUNDAMENTAL_ADJOINTS = (
    ("B3", 2), ("B4", 2), ("B5", 2), ("D4", 2), ("D5", 2), ("D6", 2),
    ("E6", 2), ("E7", 1), ("E8", 8), ("F4", 1), ("G2", 2),
)


def _report(number, label):
    print(f"criterion {number:02d} ({label}): PASS")


def _alpha(rs, i):
    return tuple(1 if k == i - 1 else 0 for k in range(rs.rank))


def test_criterion_01_highest_roots():
    expected = {
        "A5": ((1, 1, 1, 1, 1), (1, 0, 0, 0, 1)),
        "B4": ((1, 2, 2, 2), (0, 1, 0, 0)),
        "C4": ((2, 2, 2, 1), (2, 0, 0, 0)),
        "D5": ((1, 2, 2, 1, 1), (0, 1, 0, 0, 0)),
        "E6": ((1, 2, 2, 3, 2, 1), (0, 1, 0, 0, 0, 0)),
        "E7": ((2, 2, 3, 4, 3, 2, 1), (1, 0, 0, 0, 0, 0, 0)),
        "E8": ((2, 3, 4, 6, 5, 4, 3, 2), (0, 0, 0, 0, 0, 0, 0, 1)),
        "F4": ((2, 3, 4, 2), (1, 0, 0, 0)),
        "G2": ((3, 2), (0, 1)),
    }
    for name, (coords, fund) in expected.items():
        rs = root_system(name)
        assert rs.highest_root == coords
        got_fund = tuple(
            sum(coords[k] * rs.cartan[k][j] for k in range(rs.rank))
            for j in range(rs.rank)
        )
        assert got_fund == fund
    _report(1, "Table 1 highest roots, all 9 rows")


def test_criterion_02_embedding_degrees():
    t0 = time.time()
    expected = {
        ("E6", 2): (21, 151164, 77),
        ("E7", 1): (33, 141430680, 132),
        ("E8", 8): (57, 126937516885200, 247),
        ("F4", 1): (15, 4992, 51),
        ("G2", 2): (5, 18, 13),
    }
    for (name, node), triple in expected.items():
        # embedding_degree internally requires the product formula and the
        # Hilbert-polynomial fit to agree exactly
        assert reps.embedding_degree(root_system(name), {node}) == triple
    assert time.time() - t0 < 10.0
    _report(2, "Table 2 degrees, product = Hilbert fit")


def test_criterion_03_table5_coroots():
    expected = {
        ("B3", 2): (-1, 2, -1),
        ("B5", 2): (-1, 2, -1, 0, 0),
        ("D4", 2): (-1, 2, -1, -1),
        ("D6", 2): (-1, 2, -1, 0, 0, 0),
        ("E6", 2): (0, 2, 0, -1, 0, 0),
        ("E7", 1): (2, 0, -1, 0, 0, 0, 0),
        ("E8", 8): (0, 0, 0, 0, 0, 0, -1, 2),
        ("F4", 1): (2, -1, 0, 0),
        ("G2", 2): (-1, 2),
    }
    for (name, i), coords in expected.items():
        rs = root_system(name)
        assert rs.coroot_s_coords(_alpha(rs, i)) == coords
    _report(3, "Table 5 grading elements H")


FIG3_SUPPORT = frozenset(
    [(2, -1), (1, 1), (1, 0), (1, -1), (1, -2), (0, 1), (0, 0), (0, -1),
     (-1, 2), (-1, 1), (-1, 0), (-1, -1), (-2, 1)]
)


def test_criterion_04_figure3_table6():
    expected_ab = {
        "E6": (9, 18), "E7": (15, 37), "E8": (27, 80), "F4": (6, 10),
        "G2": (1, 2),
    }
    for name, i in FUNDAMENTAL_ADJOINTS:
        rs = root_system(name)
        r = rs.rank
        dia = cayley.bigrading(rs, grading.grading_element_for(rs, {i}), [_alpha(rs, i)])
        assert dia.support == FIG3_SUPPORT
        a, b = dia.dim(0, 1), dia.dim(0, 0)
        ones = [dia.dim(2, -1), dia.dim(1, -2), dia.dim(-2, 1), dia.dim(-1, 2),
                dia.dim(1, 1), dia.dim(-1, -1)]
        assert ones == [1] * 6
        for p, q in ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1)):
            assert dia.dim(p, q) == a
        if name in expected_ab:
            assert (a, b) == expected_ab[name]
        elif name[0] == "B":
            assert (a, b) == (2 * r - 4, 2 * r * r - 11 * r + 18)
        else:
            assert (a, b) == (2 * r - 5, 2 * r * r - 13 * r + 24)
        n = grading.parabolic(rs, {i}).flag_dim
        assert 2 * a + 3 == n
        assert 6 * a + b + 6 == rs.dimension
    _report(4, "Figure 3 pattern and Table 6 (1, a, b)")


def test_criterion_05_table9_census():
    t0 = time.time()
    expected = {
        ("G2", 2): {(1, 2), (3, 3), (5, 4)},
        ("F4", 1): {(1, 7), (5, 10), (8, 13), (15, 14)},
        ("E6", 2): {(1, 10), (6, 15), (11, 19), (21, 20)},
        ("E7", 1): {(1, 16), (8, 25), (17, 31), (33, 32)},
        ("E8", 8): {(1, 28), (12, 45), (29, 55), (57, 56)},
        ("B3", 2): {(1, 3), (3, 4), (4, 5), (7, 6)},
    }
    for (name, i), want in expected.items():
        census = cayley.boundary_census(root_system(name), i)
        assert {(e.invariants.codim, e.invariants.mu) for e in census} == want
    for name in ("B4", "B5", "D5", "D6", "B36", "D64"):
        rs = root_system(name)
        n = 2 * rs.rank - 3 if name[0] == "B" else 2 * rs.rank - 4
        census = cayley.boundary_census(rs, 2)
        got = {(e.invariants.codim, e.invariants.mu) for e in census}
        assert got == {(1, n), (4, 2 * n - 3), (n, n + 1), (n + 1, 2 * n - 1),
                       (2 * n + 1, 2 * n)}
    d4 = cayley.boundary_census(root_system("D4"), 2)
    by_cmu = {(e.invariants.codim, e.invariants.mu): e.weyl_classes for e in d4}
    assert by_cmu[(4, 5)] == 3
    # Figure 2 boundary-node counts, modulo the documented D4 coincidence
    node_counts = {("G2", 2): 3, ("B3", 2): 4, ("E6", 2): 4, ("E7", 1): 4,
                   ("E8", 8): 4, ("F4", 1): 4, ("B4", 2): 5, ("B5", 2): 5,
                   ("D5", 2): 5, ("D6", 2): 5}
    for (name, i), count in node_counts.items():
        assert len(cayley.boundary_census(root_system(name), i)) == count
    assert sum(e.weyl_classes for e in d4) == 6
    assert time.time() - t0 < 20.0
    _report(5, "Table 9 + Figure 2 boundary census")


def test_criterion_06_table10_type_ii():
    expected_exceptional = {
        "E6": (1, 8, 6, 18), "E7": (1, 16, 8, 33), "E8": (1, 32, 12, 68),
        "F4": (1, 4, 5, 12),
    }
    seen = {}
    for name, i in FUNDAMENTAL_ADJOINTS:
        rs = root_system(name)
        for e in cayley.boundary_census(rs, i):
            kind = e.invariants.lmhs_type
            if kind not in ("II", "IIa", "IIb"):
                continue
            d = e.diamond
            seen[(name, kind)] = (d.dim(2, 0), d.dim(1, 0), d.dim(1, 1), d.dim(0, 0))
    for name, vals in expected_exceptional.items():
        assert seen[(name, "II")] == vals
    for name in ("B4", "B5", "D5", "D6"):
        rs = root_system(name)
        n = 2 * rs.rank - 3 if name[0] == "B" else 2 * rs.rank - 4
        assert seen[(name, "IIa")] == (1, 0, n, n * (n - 1) // 2 + 2)
        assert seen[(name, "IIb")] == (
            1, 2 * n - 8, 4, (n * n - 9 * n) // 2 + 18,
        )
    _report(6, "Table 10 + Figure 4 type II dimensions")


def test_criterion_07_lemma_3_5_lists():
    cases = {
        ("A5", (1, 5)): {(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                         (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)},
        ("B4", (2,)): {(1, 0, 0, 0), (0, 0, 0, 1)},
        ("C4", (1,)): {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)},
        ("D5", (2,)): {(1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)},
        ("E6", (2,)): {(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)},
        ("E7", (1,)): {(0, 0, 0, 0, 0, 0, 1)},
        ("E8", (8,)): set(),
        ("F4", (1,)): {(0, 0, 0, 1)},
        ("G2", (2,)): {(1, 0)},
    }
    for (name, I), want in cases.items():
        rs = root_system(name)
        E = grading.grading_element_for(rs, set(I))
        got = {
            tuple(int(c) for c in w.fund_coords)
            for w in reps.weights_with_E_value_one(rs, E)
        }
        assert got == want, name
    _report(7, "Lemma lists (a)-(g), including empty E8")


def test_criterion_08_tables_3_4_7():
    adjacency = {("E6", 2): {4}, ("E7", 1): {3}, ("E8", 8): {7},
                 ("F4", 1): {2}, ("G2", 2): {1}, ("B4", 2): {1, 3},
                 ("D5", 2): {1, 3}}
    for (name, i), want in adjacency.items():
        assert lines.lines_parabolic(root_system(name), {i}) == want
    co_expect = {("G2", 2): (("A1",), 1), ("F4", 1): (("C3",), 6),
                 ("E6", 2): (("A5",), 9), ("E7", 1): (("D6",), 15),
                 ("E8", 8): (("E7",), 27)}
    for (name, i), (types, dim) in co_expect.items():
        rs = root_system(name)
        d = lines.co_descriptor(rs, {i})
        assert tuple(str(t) for t in d.subdiagram) == types
        assert d.dimension == dim
    gamma_expect = {
        ("G2", 2): (("A1",), 2), ("F4", 1): (("C3",), 7),
        ("E6", 2): (("A5",), 10), ("E7", 1): (("D6",), 16),
        ("E8", 8): (("E7",), 28),
        ("B4", 2): (("A1", "B2"), 5), ("D6", 2): (("A1", "D4"), 8),
    }
    for (name, i), (types, dim) in gamma_expect.items():
        rs = root_system(name)
        desc = cayley.enhanced_sl2_descriptor(
            rs, grading.grading_element_for(rs, {i}), [_alpha(rs, i)]
        )
        assert tuple(str(t) for t in desc.gamma_type) == types
        assert desc.dim_x == dim
        assert desc.horizontal
        # dim C_o = a for every fundamental adjoint
        assert lines.co_descriptor(rs, {i}).dimension == desc.dim_x - 1
    _report(8, "Tables 3/4/7 line and SL2-orbit data")


def test_criterion_09_table8_schubert_dims():
    from hodgeorbit.tables import TABLE8_E7, TABLE8_E8, _as_vector

    e7 = root_system("E7")
    for spec in TABLE8_E7:
        assert grading.schubert_dim_from_grading(e7, 1, _as_vector(7, spec)) == 16
    assert len(TABLE8_E7) == 7
    e8 = root_system("E8")
    for spec in TABLE8_E8:
        assert grading.schubert_dim_from_grading(e8, 8, _as_vector(8, spec)) == 28
    assert len(TABLE8_E8) == 8
    _report(9, "Table 8 horizontal Schubert dimensions")


def test_criterion_10_example_4_14_and_uniqueness():
    g2 = root_system("G2")
    E = grading.grading_element_for(g2, {2})
    inv = cayley.orbit_invariants(g2, E, [(2, 1)])
    assert inv.codim == 3
    h = g2.coroot_s_coords((2, 1))
    plus_plus = {
        beta for beta in g2.roots
        if grading.evaluate(beta, E) >= 1
        and grading.evaluate(beta, h) - grading.evaluate(beta, E) >= 1
    }
    assert plus_plus == {(2, 1), (3, 1), (3, 2)}
    for name, i in [("B3", 2), ("D4", 2), ("E6", 2), ("E7", 1), ("E8", 8),
                    ("F4", 1), ("G2", 2)]:
        assert cayley.codim_one_uniqueness_check(root_system(name), i)
    _report(10, "Example Delta(+,+) and codim-one uniqueness")


def test_criterion_11_strongly_orthogonal_data():
    from test_cayley import REMARK_CASES, _coords

    for name, node, b_strs, s, rank_r in REMARK_CASES:
        rs = root_system(name)
        E = grading.grading_element_for(rs, {node})
        B = [_coords(b) for b in b_strs]
        assert cayley.validate_sos(rs, E, B) == []
        assert len(B) == s
        assert cayley.real_rank(rs, E) == rank_r
    _report(11, "Remark B-sets, s and real ranks (6/7, 7/8, 6/8, 6/8, 3/4, 1/2)")


def test_criterion_12_restriction_doubling():
    g2 = root_system("G2")
    w1 = reps.fundamental_weights(g2)[0]
    assert cayley.restriction_pairing(g2, w1, (2, 1)) == 2
    _report(12, "restriction of w1 is 2 eta, [X(N)] = 2[X]")


def test_criterion_13_intro_hodge_numbers():
    g2 = root_system("G2")
    fw = reps.fundamental_weights(g2)
    assert reps.rep_hodge_numbers(g2, fw[0], (0, 1)) == {1: 2, 0: 3, -1: 2}
    assert grading.parabolic(g2, {2}).eigen_dims == {
        -2: 1, -1: 4, 0: 4, 1: 4, 2: 1,
    }
    f4 = root_system("F4")
    assert reps.rep_hodge_numbers(
        f4, reps.fundamental_weights(f4)[3], (1, 0, 0, 0)
    ) == {1: 6, 0: 14, -1: 6}
    e6 = root_system("E6")
    assert reps.rep_hodge_numbers(
        e6, reps.fundamental_weights(e6)[0], (0, 1, 0, 0, 0, 0)
    ) == {1: 6, 0: 15, -1: 6}
    e7 = root_system("E7")
    assert reps.rep_hodge_numbers(
        e7, reps.fundamental_weights(e7)[6], (1, 0, 0, 0, 0, 0, 0)
    ) == {1: 12, 0: 32, -1: 12}
    _report(13, "intro Hodge numbers (2,3,2) .. (12,32,12)")


def test_criterion_14_property_suites():
    rng = random.Random(14)
    # Jacobi: exhaustive for ranks <= 4, 1000 random triples for E6-E8
    for name in ("A4", "B4", "C4", "D4", "F4", "G2"):
        sc = chevalley.structure_constants(root_system(name))
        for i, j, k in itertools.combinations(range(sc.dim), 3):
            assert not chevalley.jacobi_residual(sc, i, j, k)
    for name in ("E6", "E7", "E8"):
        sc = chevalley.structure_constants(root_system(name))
        for _ in range(1000):
            i, j, k = (rng.randrange(sc.dim) for _ in range(3))
            assert not chevalley.jacobi_residual(sc, i, j, k)

    # diamond symmetries on 500 random valid B across all types
    pool = ["A3", "A4", "B3", "B4", "C3", "C4", "D4", "D5", "E6", "F4", "G2"]
    checked = 0
    while checked < 500:
        rs = root_system(rng.choice(pool))
        I = set(rng.sample(range(1, rs.rank + 1), rng.randrange(1, rs.rank + 1)))
        E = grading.grading_element_for(rs, I)
        cand = list(cayley.sos_candidates(rs, E))
        rng.shuffle(cand)
        B = []
        for b in cand:
            if all(strongly_orthogonal(rs, a, b) for a in B):
                B.append(b)
                if rng.random() < 0.5:
                    break
        if not B:
            continue
        dia = cayley.bigrading(rs, E, B)
        d = dia.as_dict()
        assert all(
            d.get((q, p)) == v and d.get((-p, -q)) == v for (p, q), v in d.items()
        )
        bar_ok = all(
            conjugate_root(rs, beta, B) in rs.roots for beta in rs.roots
        )
        assert bar_ok
        checked += 1

    # Freudenthal vs the Weyl-character oracle on all reps of dim <= 64
    from helpers import (
        KostantPartition,
        dominant_weights_with_dim_at_most,
        multiplicity_by_weyl_character,
        weyl_orbit_with_signs,
    )

    for name in ("A2", "B3", "C3", "D4", "G2", "F4"):
        rs = root_system(name)
        kostant = KostantPartition(rs)
        rho_c = reps.rho(rs).root_coords
        for lam in dominant_weights_with_dim_at_most(rs, 64):
            ms = reps.freudenthal_multiplicities(rs, lam)
            lam_rho = tuple(a + b for a, b in zip(lam.root_coords, rho_c))
            orbit = weyl_orbit_with_signs(rs, lam_rho)
            for mu, m in ms.entries.items():
                fund = [
                    sum(mu[t] * rs.cartan[t][j] for t in range(rs.rank))
                    for j in range(rs.rank)
                ]
                if any(c < 0 for c in fund):
                    continue
                assert multiplicity_by_weyl_character(rs, lam, mu, orbit, kostant) == m

    # Weyl-flip dimension identity for all six fundamental adjoint types
    for name, i in (("B4", 2), ("D5", 2), ("E6", 2), ("E7", 1), ("E8", 8),
                    ("F4", 1), ("G2", 2)):
        cayley.weight_grading_dims(root_system(name), i)

    # Yukawa / second-fundamental-form locus agreement: 100 random points
    # plus 20 cubic-cone points
    from helpers import a1_disc_coordinate_in_unit_disc, g2_xi

    g2 = chevalley.structure_constants(root_system("G2"))
    for _ in range(100):
        xi = g2_xi(g2, tuple(
            Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(4)
        ))
        yuk = chevalley.g2_yukawa_matrix(xi)
        sff = chevalley.second_fundamental_form(g2, 2, xi)
        assert (not any(x for row in yuk for x in row)) == (not sff)
    for _ in range(20):
        t = Fraction(rng.randrange(-30, 31), rng.randrange(1, 9))
        xi = chevalley.cone_point(g2, 2, [((-1, 0), t)])
        assert not any(x for row in chevalley.g2_yukawa_matrix(xi) for x in row)

    # the exact A1 unit-disc computation standing in for the analytic claims
    for t in (1, 2, 10):
        assert a1_disc_coordinate_in_unit_disc(t)
    _report(14, "property suites (Jacobi, diamonds, Freudenthal, flip, Yukawa)")
