import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    KostantPartition,
    dominant_weights_with_dim_at_most,
    freudenthal_by_walk_down,
    lie_types_up_to,
    multiplicity_by_weyl_character,
    weight_from_fund_dense,
    weyl_dimension_by_bilinear,
    weyl_orbit_with_signs,
)
from hodgeorbit.cayley import real_rank
from hodgeorbit.errors import DimensionCapExceeded, IndexOutOfRange, NotDominant
from hodgeorbit.grading import grading_element_for, parabolic
from hodgeorbit.reps import (
    dual_weight,
    embedding_degree,
    embedding_degree_for_weight,
    freudenthal_multiplicities,
    fundamental_weights,
    rep_hodge_numbers,
    rho,
    weight_from_fund,
    weight_from_root,
    weights_with_E_value_one,
    weyl_dimension,
)
from hodgeorbit.rootdata import build_root_system, root_system

# types for which the Weyl-character oracle is enumerable
ORACLE_TYPES = [
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "B4", "C2", "C3", "C4",
    "D4", "D5", "F4", "G2",
]


def test_fundamental_weight_pairings():
    for name in ["A1", "B3", "E7", "G2"]:
        rs = root_system(name)
        fw = fundamental_weights(rs)
        for i, w in enumerate(fw):
            for j in range(rs.rank):
                alpha_j = tuple(1 if k == j else 0 for k in range(rs.rank))
                from hodgeorbit.rootdata import coroot_pairing

                assert coroot_pairing(rs, w.root_coords, alpha_j) == (1 if i == j else 0)


@pytest.mark.parametrize("lie_type", lie_types_up_to(8), ids=str)
def test_weight_from_fund_matches_dense_product(lie_type):
    """Seeded integer, negative, Fraction and all-zero fundamental coordinates
    give the same coordinate tuples, element types included, as the dense
    product with the Gauss-Jordan inverse."""
    rs = build_root_system(lie_type)
    r = rs.rank
    rng = random.Random(f"{lie_type}")
    vectors = [(0,) * r, (Fraction(0),) * r]
    vectors += [tuple(int(i == j) for j in range(r)) for i in range(r)]
    vectors += [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(6)]
    vectors += [
        tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(r))
        for _ in range(4)
    ]
    for fund in vectors:
        got, want = weight_from_fund(rs, fund), weight_from_fund_dense(rs, fund)
        assert got == want
        for coords in ("fund_coords", "root_coords"):
            types = [type(x) for x in getattr(got, coords)]
            assert types == [type(x) for x in getattr(want, coords)]


def test_fundamental_weight_examples():
    a1 = root_system("A1")
    assert fundamental_weights(a1)[0].root_coords == (Fraction(1, 2),)
    g2 = root_system("G2")
    assert fundamental_weights(g2)[1].root_coords == (3, 2)
    b4 = root_system("B4")
    assert fundamental_weights(b4)[1].root_coords == (1, 2, 2, 2)


def test_weyl_dimension_values():
    g2 = root_system("G2")
    fw = fundamental_weights(g2)
    assert weyl_dimension(g2, fw[0]) == 7
    assert weyl_dimension(g2, fw[1]) == 14
    e7 = root_system("E7")
    assert weyl_dimension(e7, fundamental_weights(e7)[6]) == 56
    # adjoint highest weight gives dim g
    for name in ["A3", "B3", "F4", "E6"]:
        rs = root_system(name)
        adj = weight_from_root(rs, rs.highest_root)
        assert weyl_dimension(rs, adj) == rs.dimension


def test_weyl_dimension_against_bilinear_oracle():
    rng = random.Random(20140717)
    for name in ORACLE_TYPES + ["E6", "E7", "E8"]:
        rs = root_system(name)
        for _ in range(12):
            fund = tuple(rng.choice((0, 0, 1, 2, 5)) for _ in range(rs.rank))
            lam = weight_from_fund(rs, fund)
            expected = weyl_dimension_by_bilinear(rs, lam)
            assert weyl_dimension(rs, lam) == expected, (name, fund)


def test_weyl_dimension_rejects_non_dominant():
    g2 = root_system("G2")
    with pytest.raises(NotDominant):
        weyl_dimension(g2, weight_from_fund(g2, (-1, 0)))


def test_freudenthal_g2():
    g2 = root_system("G2")
    fw = fundamental_weights(g2)
    ms = freudenthal_multiplicities(g2, fw[0])
    assert ms.total == 7
    assert all(m == 1 for m in ms.entries.values())
    # the 7 weights are the six short roots and zero
    short = {b for b in g2.roots if g2.root_length(b) == 1}
    assert set(ms.entries) == {tuple(map(Fraction, b)) for b in short} | {(0, 0)}
    adj = freudenthal_multiplicities(g2, fw[1])
    assert adj.entries[(Fraction(0), Fraction(0))] == 2


def test_freudenthal_f4_26():
    f4 = root_system("F4")
    ms = freudenthal_multiplicities(f4, fundamental_weights(f4)[3])
    zero = tuple(Fraction(0) for _ in range(4))
    assert ms.total == 26
    assert ms.entries[zero] == 2
    assert sum(1 for w in ms.entries if w != zero) == 24


@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_freudenthal_exceptional_adjoint(name):
    rs = root_system(name)
    ms = freudenthal_multiplicities(rs, weight_from_root(rs, rs.highest_root))
    zero = (0,) * rs.rank
    assert ms.total == rs.dimension
    assert ms.entries[zero] == rs.rank
    assert {w for w in ms.entries if w != zero} == rs.roots
    assert all(m == 1 for w, m in ms.entries.items() if w != zero)


def test_freudenthal_e8_3875():
    # 2160 weights of multiplicity 1, the 240 roots at 7 and zero at 35
    e8 = root_system("E8")
    ms = freudenthal_multiplicities(e8, fundamental_weights(e8)[0])
    assert ms.total == 3875
    assert ms.entries[(0,) * 8] == 35
    assert {w for w, m in ms.entries.items() if m == 7} == e8.roots
    assert sum(1 for m in ms.entries.values() if m == 1) == 2160
    assert len(ms.entries) == 2160 + 240 + 1


def test_freudenthal_matches_walk_down_on_fundamental_reps():
    """Dominant-weight recursion against the walk-down over every weight."""
    checked = 0
    for lie_type in lie_types_up_to(8):
        rs = build_root_system(lie_type)
        for lam in fundamental_weights(rs):
            if weyl_dimension(rs, lam) > 300:
                continue
            expected = freudenthal_by_walk_down(rs, lam).entries
            assert freudenthal_multiplicities(rs, lam).entries == expected, (
                lie_type, lam.fund_coords,
            )
            checked += 1
    assert checked == 113


def test_freudenthal_dimension_cap(monkeypatch):
    e8 = root_system("E8")
    lam = weight_from_root(e8, e8.highest_root)
    monkeypatch.setenv("HODGEORBIT_DIM_CAP", "100")
    with pytest.raises(DimensionCapExceeded):
        freudenthal_multiplicities(e8, lam)


def test_multiplicities_constant_on_weyl_orbits():
    b3 = root_system("B3")
    lam = weight_from_fund(b3, (1, 0, 1))
    ms = freudenthal_multiplicities(b3, lam)
    for mu, m in ms.entries.items():
        for j in range(3):
            pair = sum(mu[t] * b3.cartan[t][j] for t in range(3))
            img = tuple(mu[k] - pair * (1 if k == j else 0) for k in range(3))
            assert ms.entries.get(img) == m


def test_freudenthal_against_weyl_character_oracle():
    """Two-implementation cross-check on every rep of dim <= 64."""
    checked = 0
    for name in ORACLE_TYPES:
        rs = root_system(name)
        kostant = KostantPartition(rs)
        rho_c = rho(rs).root_coords
        for lam in dominant_weights_with_dim_at_most(rs, 64):
            ms = freudenthal_multiplicities(rs, lam)
            lam_rho = tuple(a + b for a, b in zip(lam.root_coords, rho_c))
            orbit = weyl_orbit_with_signs(rs, lam_rho)
            for mu, m in ms.entries.items():
                # dominant representatives only; orbit-constancy is separate
                fund = [
                    sum(mu[t] * rs.cartan[t][j] for t in range(rs.rank))
                    for j in range(rs.rank)
                ]
                if any(c < 0 for c in fund):
                    continue
                oracle = multiplicity_by_weyl_character(rs, lam, mu, orbit, kostant)
                assert oracle == m, (name, lam.fund_coords, mu)
                checked += 1
    assert checked > 100


def test_minuscule_reps_by_orbit_oracle():
    # E6 and E7 have 27- and 56-dimensional minuscule reps; their weight set
    # is a single Weyl orbit with every multiplicity one
    for name, idx, dim in [("E6", 0, 27), ("E7", 6, 56)]:
        rs = root_system(name)
        lam = fundamental_weights(rs)[idx]
        ms = freudenthal_multiplicities(rs, lam)
        assert ms.total == dim
        assert all(m == 1 for m in ms.entries.values())
        orbit = weyl_orbit_with_signs(rs, lam.root_coords)
        assert set(orbit) == set(ms.entries)


def test_rep_hodge_numbers_intro_cases():
    g2 = root_system("G2")
    fw = fundamental_weights(g2)
    assert rep_hodge_numbers(g2, fw[0], (0, 1)) == {1: 2, 0: 3, -1: 2}
    f4 = root_system("F4")
    assert rep_hodge_numbers(f4, fundamental_weights(f4)[3], (1, 0, 0, 0)) == {
        1: 6, 0: 14, -1: 6,
    }
    e6 = root_system("E6")
    assert rep_hodge_numbers(e6, fundamental_weights(e6)[0], (0, 1, 0, 0, 0, 0)) == {
        1: 6, 0: 15, -1: 6,
    }
    e7 = root_system("E7")
    assert rep_hodge_numbers(e7, fundamental_weights(e7)[6], (1, 0, 0, 0, 0, 0, 0)) == {
        1: 12, 0: 32, -1: 12,
    }


def test_rep_hodge_spectrum_spacing_and_symmetry():
    for name, fund, E in [
        ("B3", (0, 0, 1), (0, 1, 0)),
        ("C3", (0, 1, 0), (1, 0, 0)),
        ("A3", (1, 0, 1), (1, 0, 1)),
    ]:
        rs = root_system(name)
        lam = weight_from_fund(rs, fund)
        hodge = rep_hodge_numbers(rs, lam, E)
        eigs = sorted(hodge)
        assert all(b - a == 1 for a, b in zip(eigs, eigs[1:]))
        if dual_weight(rs, lam).fund_coords == lam.fund_coords:
            assert hodge == {-q: d for q, d in hodge.items()}


def test_top_eigenspace_line_when_supported_on_I():
    e6 = root_system("E6")
    lam = weight_from_fund(e6, (0, 1, 0, 0, 0, 0))
    hodge = rep_hodge_numbers(e6, lam, (0, 1, 0, 0, 0, 0))
    assert hodge[max(hodge)] == 1


def test_weights_with_E_value_one_lemma_lists():
    cases = {
        ("A5", (1, 5)): [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                         (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)],
        ("B4", (2,)): [(1, 0, 0, 0), (0, 0, 0, 1)],
        ("C3", (1,)): [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        ("D5", (2,)): [(1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)],
        ("E6", (2,)): [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)],
        ("E7", (1,)): [(0, 0, 0, 0, 0, 0, 1)],
        ("E8", (8,)): [],
        ("F4", (1,)): [(0, 0, 0, 1)],
        ("G2", (2,)): [(1, 0)],
    }
    for (name, I), expected in cases.items():
        rs = root_system(name)
        E = grading_element_for(rs, set(I))
        got = sorted(tuple(int(c) for c in w.fund_coords) for w in weights_with_E_value_one(rs, E))
        assert got == sorted(expected), name


@pytest.mark.parametrize("E", [(0, 0, 0), (1, -1, 0)])
def test_weights_with_E_value_one_refuses_E_off_the_node_sums(E):
    # user input, so a HodgeOrbitError and not a bare AssertionError
    with pytest.raises(IndexOutOfRange, match="nonempty index set"):
        weights_with_E_value_one(root_system("B3"), E)


def test_embedding_degrees_table2():
    expected = {
        "E6": (21, 151164, 77),
        "E7": (33, 141430680, 132),
        "F4": (15, 4992, 51),
        "G2": (5, 18, 13),
    }
    nodes = {"E6": 2, "E7": 1, "F4": 1, "G2": 2}
    for name, triple in expected.items():
        assert embedding_degree(root_system(name), {nodes[name]}) == triple


def test_embedding_degree_e8_exact():
    assert embedding_degree(root_system("E8"), {8}) == (57, 126937516885200, 247)


def test_degree_self_checks():
    # projective space is linearly embedded
    for name in ["A1", "A2", "A3"]:
        rs = root_system(name)
        n, d, N = embedding_degree(rs, {1})
        assert d == 1 and n == rs.rank and N == rs.rank
    # the Veronese conic via the same formula
    a1 = root_system("A1")
    n, d = embedding_degree_for_weight(a1, weight_from_fund(a1, (2,)))
    assert (n, d) == (1, 2)


def _minus_w0(lie_type):
    """The diagram automorphism -w_0 on nodes 1..r."""
    f, r = lie_type.family, lie_type.rank
    if f == "A":
        return {i: r + 1 - i for i in range(1, r + 1)}
    perm = {i: i for i in range(1, r + 1)}
    if (f, r) == ("E", 6):
        perm.update({1: 6, 6: 1, 3: 5, 5: 3})
    if f == "D" and r % 2:
        perm.update({r - 1: r, r: r - 1})
    return perm


def test_dual_weight_is_minus_w0():
    rng = random.Random(94)
    for lie_type in lie_types_up_to(8):
        rs = root_system(str(lie_type))
        perm = _minus_w0(lie_type)
        for _ in range(3):
            fund = tuple(rng.randint(0, 2) for _ in range(rs.rank))
            dual = dual_weight(rs, weight_from_fund(rs, fund))
            # -w_0 sends c_i w_i to c_i w_{perm[i]}, and perm is an involution
            expected = tuple(fund[perm[j] - 1] for j in range(1, rs.rank + 1))
            assert dual.fund_coords == expected


def test_b2_and_c2_agree_with_nodes_swapped():
    """B2 and C2 are one Lie algebra, built from different Cartan data: node i
    of B2 is node 3 - i of C2, so the weight (a, b) of B2 is (b, a) of C2."""
    b2, c2 = root_system("B2"), root_system("C2")
    for i in (1, 2):
        assert parabolic(b2, {i}).eigen_dims == parabolic(c2, {3 - i}).eigen_dims
        assert embedding_degree(b2, {i}) == embedding_degree(c2, {3 - i})
        assert real_rank(b2, grading_element_for(b2, {i})) == real_rank(
            c2, grading_element_for(c2, {3 - i})
        )
    weights = 0
    for a in range(5):
        for b in range(5):
            if not a and not b:
                continue
            lam, mu = weight_from_fund(b2, (a, b)), weight_from_fund(c2, (b, a))
            assert weyl_dimension(b2, lam) == weyl_dimension(c2, mu)
            assert Counter(freudenthal_multiplicities(b2, lam).entries.values()) == Counter(
                freudenthal_multiplicities(c2, mu).entries.values()
            )
            for i in (1, 2):
                assert rep_hodge_numbers(b2, lam, grading_element_for(b2, {i})) == (
                    rep_hodge_numbers(c2, mu, grading_element_for(c2, {3 - i}))
                )
            weights += 1
    assert weights == 24
