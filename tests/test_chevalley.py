import copy
import dataclasses
import itertools
import random
import re
from fractions import Fraction

import pytest

from hodgeorbit import chevalley
from hodgeorbit.chevalley import (
    GaussianRational,
    adjoint_matrix,
    cayley_standard_triple,
    cone_point,
    g2_rep_matrix,
    g2_seven_dim_rep,
    g2_yukawa_matrix,
    jacobi_residual,
    rational_form,
    second_fundamental_form,
    structure_constants,
    theta,
)
from hodgeorbit.chevalley import (
    G2_V7_WEIGHTS,
    _check_block,
    _definite,
    _killing_gram,
    _members,
    _verify_rational_form,
)
from hodgeorbit.errors import (
    CompactRoot,
    IndexOutOfRange,
    NotDegreeOne,
    NotFundamentalAdjoint,
)
from hodgeorbit.grading import evaluate, is_fundamental_adjoint
from hodgeorbit.rootdata import RootSystem, root_system

from helpers import (
    a1_disc_coordinate_in_unit_disc,
    bracket_table_by_roots,
    definite_by_sylvester,
    extend_by_root_pairs,
    g2_seven_dim_rep_by_sign_search,
    g2_xi,
    jacobi_residual_by_dicts,
    lie_types_up_to,
    n_table_by_three_passes,
    n_table_of,
    real_of,
    sl2_matrix,
)

EXHAUSTIVE_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
                    "D4", "F4", "G2"]
RANDOM_TYPES = ["E6", "E7", "E8"]


def _sc(name):
    return structure_constants(root_system(name))


def test_bracket_of_opposite_roots_is_coroot():
    for name in ["A1", "B3", "G2", "F4"]:
        sc = _sc(name)
        rs = sc.rs
        for alpha in rs.positive_roots:
            got = sc.bracket(sc.x(alpha), sc.x(tuple(-c for c in alpha)))
            assert got == sc.coroot_element(alpha)
            # integer coordinates in both the coroot and the S basis
            assert all(int(c) == c for c in rs.coroot(alpha))
            assert all(int(c) == c for c in rs.coroot_s_coords(alpha))


def test_structure_constant_magnitudes_are_string_lengths():
    for name in ["B3", "G2", "F4"]:
        sc = _sc(name)
        rs = sc.rs
        for (a, b), n in n_table_of(sc).items():
            assert n != 0
            # |N_{a,b}| = (length of the a-string below b) + 1
            p = 0
            cur = b
            while True:
                cur = tuple(x - y for x, y in zip(cur, a))
                if not rs.is_root(cur):
                    break
                p += 1
            assert abs(n) == p + 1, (a, b)


def test_structure_constant_symmetries():
    n_table = n_table_of(_sc("G2"))
    for (a, b), n in n_table.items():
        na = tuple(-c for c in a)
        nb = tuple(-c for c in b)
        assert n_table[(b, a)] == -n
        assert n_table[(na, nb)] == -n
    assert abs(n_table[((1, 0), (0, 1))]) == 1
    assert abs(n_table[((1, 0), (1, 1))]) == 2


ORACLE_TYPES = [str(t) for t in lie_types_up_to(8)]


def assert_rows_hold(sc, table):
    """``sc.ad`` is dim rows of dim slots; slot (i, j) holds table[(i, j)],
    and exactly () where ``table`` has no entry."""
    assert len(sc.ad) == sc.dim
    for i, row in enumerate(sc.ad):
        assert len(row) == sc.dim
        for j, entry in enumerate(row):
            assert type(entry) is tuple and entry == table.get((i, j), ()), (i, j)
    assert all(i in range(sc.dim) and j in range(sc.dim) for i, j in table)


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_bracket_rows_match_tuple_keyed_table(name):
    sc = _sc(name)
    table = bracket_table_by_roots(sc, n_table_of(sc))
    assert_rows_hold(sc, table)
    assert all(sc.basis_bracket(i, j) == entry for (i, j), entry in table.items())


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_one_pass_table_matches_three_pass_build(name):
    sc = _sc(name)
    oracle = n_table_by_three_passes(sc.rs)
    assert n_table_of(sc) == oracle
    assert_rows_hold(sc, bracket_table_by_roots(sc, oracle))


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_n_table_matches_extension_over_root_pairs(name):
    sc = _sc(name)
    assert n_table_of(sc) == extend_by_root_pairs(sc)


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_extraspecial_pairs_are_least_decompositions(name):
    sc = _sc(name)
    rs = sc.rs
    order = sorted(rs.positive_roots, key=lambda b: (sum(b), b))
    positive = set(order)
    want = {}
    for gamma in order:
        for eps in order:
            eta = tuple(x - y for x, y in zip(gamma, eps))
            if eta in positive:
                want[gamma] = (eps, eta)
                break
    assert sc.extraspecial == want
    assert list(sc.extraspecial) == [g for g in rs.positive_roots if g in want]
    # positive sign on the extraspecial pairs
    n_table = n_table_of(sc)
    assert all(n_table[pair] > 0 for pair in want.values())


def test_basis_elements_and_brackets_carry_int_scalars():
    for name in ("A1", "G2", "B3", "E8"):
        sc = _sc(name)
        rs = sc.rs
        alpha, beta = rs.simple_roots[0], rs.highest_root
        elements = [sc.x(alpha), sc.x(sc._neg[beta]), sc.h(rs.rank),
                    sc.coroot_element(beta)]
        elements += [sc.bracket(u, v) for u in elements for v in elements]
        # past A1 the coroot of the highest root has several terms
        assert len(elements[3]) > 1 or name == "A1"
        for vec in elements:
            assert all(type(c) is int for c in vec.values()), (name, vec)


def test_jacobi_exhaustive_small_ranks():
    for name in EXHAUSTIVE_TYPES:
        sc = _sc(name)
        for i, j, k in itertools.combinations(range(sc.dim), 3):
            assert not jacobi_residual(sc, i, j, k), (name, i, j, k)


def test_jacobi_random_triples_large_ranks():
    rng = random.Random(1234)
    for name in RANDOM_TYPES:
        sc = _sc(name)
        for _ in range(1000):
            i, j, k = (rng.randrange(sc.dim) for _ in range(3))
            assert not jacobi_residual(sc, i, j, k)


def test_adjoint_matrix_cartan_diagonal():
    sc = _sc("G2")
    rs = sc.rs
    for j in (1, 2):
        mat = adjoint_matrix(sc, sc.h(j))
        for k in range(sc.dim):
            for m in range(sc.dim):
                if k != m:
                    assert mat[k][m] == 0
        for alpha, idx in sc.root_index.items():
            assert mat[idx][idx] == sum(
                alpha[t] * rs.cartan[t][j - 1] for t in range(rs.rank)
            )


def test_adjoint_highest_root_nilpotent_order_three():
    sc = _sc("G2")
    mat = adjoint_matrix(sc, sc.x((3, 2)))

    def matmul(a, b):
        n = len(a)
        return [
            [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    sq = matmul(mat, mat)
    cube = matmul(sq, mat)
    assert any(any(row) for row in sq)
    assert not any(any(row) for row in cube)


def test_killing_form_matches_trace_form():
    for name in ["A1", "A2", "G2", "B3", "C3"]:
        sc = _sc(name)
        basis = [{k: 1} for k in range(sc.dim)]
        mats = [adjoint_matrix(sc, v) for v in basis]
        for i in range(sc.dim):
            for j in range(sc.dim):
                trace = sum(
                    mats[i][a][b] * mats[j][b][a]
                    for a in range(sc.dim)
                    for b in range(sc.dim)
                )
                assert sc.killing(basis[i], basis[j]) == trace


def test_gaussian_rational_hashes_like_the_number_it_equals():
    assert GaussianRational.of(1) in {1}
    half = Fraction(1, 2)
    assert {half: "half"}[GaussianRational.of(half)] == "half"
    # a non-real value equals, and finds as a key, only itself
    i, j = (GaussianRational(Fraction(0), Fraction(1)) for _ in range(2))
    assert i == j and {j: "i"}[i] == "i"
    others = (0, 1, Fraction(1), GaussianRational.of(1), GaussianRational(Fraction(1), Fraction(1)))
    assert all(i != x for x in others)
    assert i not in set(others)


def test_rational_form_a1_matches_paper_matrices():
    sc = _sc("A1")
    rf = rational_form(sc, (1,))
    i = GaussianRational(Fraction(0), Fraction(1))
    assert sl2_matrix(rf.u[(1,)], sc) == ((0, i), (-i, 0))
    assert sl2_matrix(rf.h[0], sc) == ((i, 0), (0, -i))
    assert sl2_matrix(rf.v[(1,)], sc) == ((0, GaussianRational.of(1)), (GaussianRational.of(1), 0))
    # alpha is noncompact for T = S^1, so u, v sit in k-perp
    assert rf.parity[(1,)] == 1
    assert (rf.compact_dim, rf.noncompact_dim) == (1, 2)


def test_rational_form_g2_dimensions():
    sc = _sc("G2")
    rf = rational_form(sc, (0, 1))
    assert rf.compact_dim == 6
    assert rf.noncompact_dim == 8


def test_rational_form_full_verification_runs():
    # construction self-verifies closure, blocks, theta and signature
    for name, T in [("A2", (1, 0)), ("B2", (0, 1)), ("C3", (1, 0, 0)),
                    ("G2", (1, 0)), ("E6", (0, 1, 0, 0, 0, 0)),
                    ("E7", (1, 0, 0, 0, 0, 0, 0)), ("E8", (0, 0, 0, 0, 0, 0, 0, 1))]:
        rational_form(_sc(name), T)


def _output_cases():
    """E6, E7, E8, B5 and D5, each at S^1 and at two seeded gradings."""
    rng = random.Random(1729)
    for name in ("E6", "E7", "E8", "B5", "D5"):
        r = root_system(name).rank
        yield name, (1,) + (0,) * (r - 1)
        for _ in range(2):
            yield name, tuple(rng.randint(-3, 3) for _ in range(r))


def test_rational_form_members_are_one_or_i_times_integer_vectors():
    """Read from .re/.im alone: each member is i^e times a nonzero integer
    vector, with e = 1 for h^j, p for u^beta and 1 - p for v^beta."""
    for name, T in _output_cases():
        rf = rational_form(_sc(name), T)
        assert len(rf.h) == len(T) and len(rf.u) == len(rf.v) == len(rf.parity)
        members = [(1, h) for h in rf.h]
        for beta, p in rf.parity.items():
            assert p == evaluate(beta, T) % 2
            members += [(p, rf.u[beta]), (1 - p, rf.v[beta])]
        for e, vec in members:
            assert vec, (name, T)
            for c in vec.values():
                on, off = (c.im, c.re) if e else (c.re, c.im)
                assert type(on) is type(off) is Fraction, (name, T, vec)
                assert off == 0 and on != 0 and on.denominator == 1, (name, T, vec)


def test_phase_and_integers_reads_each_member_shape():
    """Each member is one (block, phase e, integer vector w): h^j = (0, 1, e_j),
    u^beta = (p, p, x^beta - x^-beta), v^beta = (p, 1 - p, x^beta + x^-beta),
    and the returned basis is i^e w of exactly those members."""
    sc = _sc("B3")
    rf = rational_form(sc, (0, 1, 0))
    members = _members(sc, rf.parity)
    r = sc.rs.rank
    assert members[:r] == [(0, 1, {j: 1}) for j in range(r)]
    for k, (beta, p) in enumerate(rf.parity.items()):
        ib, ineg = sc.root_index[beta], sc.root_index[sc._neg[beta]]
        assert members[r + 2 * k] == (p, p, {ib: 1, ineg: -1})
        assert members[r + 2 * k + 1] == (p, 1 - p, {ib: 1, ineg: 1})
    i = GaussianRational(Fraction(0), Fraction(1))
    assert rf.h[2] == {2: i}
    returned = list(rf.h) + [w for beta in rf.parity for w in (rf.u[beta], rf.v[beta])]
    assert returned == [{k: GaussianRational.of(c) * (i if e else 1) for k, c in w.items()}
                        for _, e, w in members]
    assert _members(sc, {}) == members[:r]


def _verifier_input(name, T):
    """(sc, parity, members) of the form at T, as ``rational_form`` checks them."""
    sc = _sc(name)
    parity = rational_form(sc, T).parity
    members = _members(sc, parity)
    _verify_rational_form(sc, T, parity, members)
    return sc, parity, members


def test_check_block_reads_cartan_entries_at_odd_phase_only():
    # h^k = i H^k: i H^k is in g_Z and in k, H^k is not in g_Z
    sc = _sc("G2")
    parity = rational_form(sc, (0, 1)).parity
    _check_block(sc, parity, 1, {0: 3, 1: -1}, 0)
    with pytest.raises(AssertionError, match="blocks violated"):
        _check_block(sc, parity, 1, {0: 3}, 1)
    with pytest.raises(AssertionError, match="not closed"):
        _check_block(sc, parity, 0, {0: 3}, 0)


def test_check_block_reads_the_sign_on_each_root_pair():
    # on +-beta the member of phase e is i^e (x^beta + s x^-beta), with
    # s = +1 exactly when e + parity(beta) is odd
    sc = _sc("G2")
    parity = rational_form(sc, (0, 1)).parity
    for beta, p in parity.items():
        ib, ineg = sc.root_index[beta], sc.root_index[sc._neg[beta]]
        for e in (0, 1):
            s = 1 if (e + p) % 2 else -1
            _check_block(sc, parity, e, {ib: 2, ineg: 2 * s}, p)
            with pytest.raises(AssertionError, match="blocks violated"):
                _check_block(sc, parity, e, {ib: 2, ineg: 2 * s}, 1 - p)
            for w in ({ib: 2, ineg: -2 * s}, {ineg: 1}):
                with pytest.raises(AssertionError, match="not closed"):
                    _check_block(sc, parity, e, w, p)


def test_verify_rejects_flipped_parity_label():
    # the lattice is read through the parity labels, so a flipped label breaks
    # closure before the block check is reached
    sc, parity, members = _verifier_input("B3", (0, 1, 0))
    parity[(0, 1, 0)] ^= 1
    with pytest.raises(AssertionError, match="not closed"):
        _verify_rational_form(sc, (0, 1, 0), parity, members)


def test_verify_rejects_noncompact_vector_in_compact_block():
    # v^beta for a noncompact beta lies in g_Z, so every bracket stays
    # integral; in place of h^1 it is labelled compact, which the blocks catch
    sc, parity, members = _verifier_input("G2", (0, 1))
    assert parity[(0, 1)] == 1
    _, e, w = members[sc.rs.rank + 2 * list(parity).index((0, 1)) + 1]
    assert w == {sc.root_index[(0, 1)]: 1, sc.root_index[(0, -1)]: 1}
    members[0] = (0, e, w)
    with pytest.raises(AssertionError, match="blocks violated"):
        _verify_rational_form(sc, (0, 1), parity, members)


def test_verify_rejects_theta_of_another_grading():
    # the members are built for T = S^2, theta is read at S^1; alpha_1 is
    # compact for one and noncompact for the other, so theta has the wrong
    # sign on its block while every bracket still closes
    sc, parity, members = _verifier_input("G2", (0, 1))
    with pytest.raises(AssertionError, match="wrong sign on a block"):
        _verify_rational_form(sc, (1, 0), parity, members)


@pytest.mark.parametrize("name, T", [("G2", (0, 1)), ("B3", (0, 1, 0)), ("E6", (0, 1, 0, 0, 0, 0))])
def test_verify_rejects_a_singular_cartan_gram(name, T):
    # h^2 replaced by a second h^1: every bracket still closes and theta keeps
    # its sign, but the Cartan gram has two equal rows, so it is not definite
    sc, parity, members = _verifier_input(name, T)
    members[1] = members[0]
    with pytest.raises(AssertionError, match="wrong signature"):
        _verify_rational_form(sc, T, parity, members)


@pytest.mark.parametrize("name, T", [("G2", (0, 1)), ("B3", (0, 1, 0))])
def test_verify_rejects_a_singular_root_pair_gram(name, T):
    # v^beta replaced by a second u^beta, for the last positive root beta:
    # the gram of that pair is singular, while closure and theta still hold
    sc, parity, members = _verifier_input(name, T)
    members[-1] = members[-2]
    with pytest.raises(AssertionError, match="wrong signature"):
        _verify_rational_form(sc, T, parity, members)


def test_definite_rejects_negated_compact_gram():
    sc = _sc("B3")
    rf = rational_form(sc, (0, 1, 0))
    compact = list(rf.h) + [
        w for beta, p in rf.parity.items() if p == 0 for w in (rf.u[beta], rf.v[beta])
    ]
    gram = [[real_of(sc.killing(a, b)) for b in compact] for a in compact]
    assert len(gram) == rf.compact_dim
    assert _definite(gram, -1)
    assert not _definite([[-x for x in row] for row in gram], -1)
    assert not _definite(gram, 1)


#: the types of the chevalley_forms benchmark workload, plus E6
KILLING_GRAM_TYPES = ("G2", "B3", "C3", "A4", "B4", "C4", "D4", "D5", "F4", "E6")


@pytest.mark.parametrize("name", KILLING_GRAM_TYPES)
def test_sparse_killing_gram_matches_dense(name):
    """``_killing_gram`` equals the gram of the handed-out Gaussian vectors.
    The verifier reads it only on the Cartan members and on each pair
    (u^beta, v^beta): the dense gram of each of k and k^perp is zero off
    those blocks, and definite of its sign as a whole."""
    rng = random.Random(f"gram-{name}")
    rank = root_system(name).rank
    T = tuple(rng.randint(0, 1) for _ in range(rank - 1)) + (1,)
    sc, parity, members = _verifier_input(name, T)
    rf = rational_form(sc, T)
    vecs = list(rf.h) + [w for beta in rf.parity for w in (rf.u[beta], rf.v[beta])]
    # vectors spread over several supports, and the Cartan part among roots:
    # sums of two members of one phase
    pairs = list(zip(members, vecs))
    for _ in range(6):
        e = rng.randint(0, 1)
        ((_, _, wa), a), ((_, _, wb), b) = rng.sample([m for m in pairs if m[0][1] == e], 2)
        w = {k: wa.get(k, 0) + wb.get(k, 0) for k in wa.keys() | wb.keys()}
        pairs.append(((None, e, w), {k: a.get(k, 0) + b.get(k, 0) for k in w}))
    rng.shuffle(pairs)
    dense = [[real_of(sc.killing(a, b)) for _, b in pairs] for _, a in pairs]
    assert _killing_gram(sc, [(e, w) for (_, e, w), _ in pairs]) == dense
    # the blocks the verifier reads: group g of member a
    group = [0] * rank + [1 + k // 2 for k in range(len(members) - rank)]
    for block, sign in ((0, -1), (1, 1)):
        inside = [a for a, (p, _, _) in enumerate(members) if p == block]
        gram = _killing_gram(sc, [members[a][1:] for a in inside])
        for x, a in enumerate(inside):
            for y, b in enumerate(inside):
                assert gram[x][y] == 0 or group[a] == group[b], (a, b)
        assert _definite(gram, sign)


def test_killing_gram_rejects_imaginary_value():
    # (1, 0) is compact for T = S^2 and noncompact for T = S^1, so its u is
    # x^a - x^-a in one form and i (x^a - x^-a) in the other:
    # B(x^a - x^-a, i (x^a - x^-a)) = -2 i B(x^a, x^-a)
    members = []
    for T in ((0, 1), (1, 0)):
        sc, parity, form = _verifier_input("G2", T)
        _, e, w = form[sc.rs.rank + 2 * list(parity).index((1, 0))]
        members.append((e, w))
    assert [e for e, _ in members] == [0, 1] and members[0][1] == members[1][1]
    with pytest.raises(AssertionError, match="should be real"):
        _killing_gram(sc, members)


def _symmetric_samples(rng):
    """Seeded symmetric integer matrices: (kind, matrix)."""
    for _ in range(40):
        n = rng.randrange(1, 8)
        k = n if rng.random() < 0.5 else rng.randrange(1, n + 1)
        # M M^T is positive semidefinite; definite when M has full rank n
        m = [[rng.randrange(-4, 5) for _ in range(k)] for _ in range(n)]
        gram = [[sum(a * b for a, b in zip(r, s)) for s in m] for r in m]
        yield ("definite" if k == n else "semidefinite"), gram
        if n > 1:
            perm = list(range(n))
            rng.shuffle(perm)
            sym = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
            yield "indefinite", [[sym[i][j] + sym[j][i] for j in range(n)]
                                 for i in range(n)]
        diag = [rng.randrange(1, 9) for _ in range(n)]
        yield "diagonal", [[diag[i] if i == j else 0 for j in range(n)]
                           for i in range(n)]


def test_definite_matches_sylvester_oracle():
    rng = random.Random(2718)
    verdicts = set()
    for kind, gram in _symmetric_samples(rng):
        for sign in (1, -1):
            got = _definite(gram, sign)
            assert got == definite_by_sylvester(gram, sign), (kind, sign, gram)
            verdicts.add((kind, sign, got))
    # every kind of input produced the verdict it should, at least once
    assert ("definite", 1, True) in verdicts
    assert ("semidefinite", 1, False) in verdicts
    assert ("indefinite", 1, False) in verdicts
    assert ("indefinite", -1, False) in verdicts
    assert ("diagonal", -1, False) in verdicts


def _block_diagonal_samples(rng):
    """Two or three seeded samples of size <= 4 as the blocks of one matrix,
    with interleaved indices and an integer scale, like a Killing gram."""
    small = [(kind, g) for kind, g in _symmetric_samples(rng) if len(g) <= 4]
    positive = [g for kind, g in small if kind in ("definite", "diagonal")]
    for _ in range(30):
        k = rng.randint(2, 3)
        parts = rng.sample(positive, k) if rng.random() < 0.5 else [
            g for _, g in rng.sample(small, k)]
        n = sum(len(g) for g in parts)
        perm = rng.sample(range(n), n)
        scale = rng.randint(1, 6)
        gram = [[0] * n for _ in range(n)]
        offset = 0
        for g in parts:
            for i, row in enumerate(g):
                for j, x in enumerate(row):
                    gram[perm[offset + i]][perm[offset + j]] = scale * x
            offset += len(g)
        yield gram


def test_definite_on_block_diagonal_matches_sylvester_oracle():
    rng = random.Random(3141)
    verdicts = set()
    for gram in _block_diagonal_samples(rng):
        for sign in (1, -1):
            got = _definite(gram, sign)
            assert got == definite_by_sylvester(gram, sign), (sign, gram)
            verdicts.add((sign, got))
    assert verdicts == {(1, True), (1, False), (-1, False)}


def test_jacobi_residual_matches_dict_oracle():
    for name in ("G2", "B3"):
        sc = _sc(name)
        for i, j, k in itertools.product(range(sc.dim), repeat=3):
            assert jacobi_residual(sc, i, j, k) == jacobi_residual_by_dicts(sc, i, j, k)
    sc = _sc("E8")
    rng = random.Random(4242)
    for _ in range(2000):
        i, j, k = (rng.randrange(sc.dim) for _ in range(3))
        assert jacobi_residual(sc, i, j, k) == jacobi_residual_by_dicts(sc, i, j, k)


def test_jacobi_residual_matches_dict_oracle_on_corrupted_table():
    sc = copy.copy(_sc("G2"))
    sc.ad = [list(row) for row in sc.ad]
    a, b = sc.root_index[(1, 0)], sc.root_index[(0, 1)]
    ((target, n),) = sc.ad[a][b]
    sc.ad[a][b] = ((target, n + 1),)
    nonzero = 0
    for i, j, k in itertools.product(range(sc.dim), repeat=3):
        got = jacobi_residual(sc, i, j, k)
        assert got == jacobi_residual_by_dicts(sc, i, j, k)
        nonzero += bool(got)
    assert nonzero
    # the corruption stayed in the copy
    assert not jacobi_residual(_sc("G2"), a, b, sc.root_index[(-1, 0)])


@pytest.mark.parametrize("name", ["G2", "B3"])
def test_jacobi_residual_matches_dict_oracle_on_corrupted_coroot_entry(name):
    """[x^beta, x^-beta] = H^beta doubled, on the highest root, whose coroot
    has several terms: the sweep must read every term of a multi-term entry
    the way ``sc.bracket`` does."""
    sc = chevalley.StructureConstants(root_system(name))  # the cached one stays intact
    beta = sc.rs.highest_root
    ib, ineg = sc.root_index[beta], sc.root_index[sc._neg[beta]]
    assert len(sc.ad[ib][ineg]) > 1
    sc.ad[ib][ineg] = tuple((k, 2 * c) for k, c in sc.ad[ib][ineg])
    nonzero = 0
    for i, j, k in itertools.product(range(sc.dim), repeat=3):
        got = jacobi_residual(sc, i, j, k)
        assert got == jacobi_residual_by_dicts(sc, i, j, k), (i, j, k)
        nonzero += bool(got)
    assert nonzero


@pytest.mark.parametrize("name", ["G2", "E8"])
def test_element_api_rejects_basis_index_out_of_range(name):
    """-1 would wrap to the last row or slot and dim would overrun it; both
    are IndexOutOfRange in either position of every element operation."""
    sc = _sc(name)
    good = sc.dim - 1
    for bad in (-1, sc.dim):
        for u, v in (({bad: 1}, {good: 1}), ({good: 1}, {bad: 1})):
            message = re.escape(f"{{{bad}}} outside 0..{good}")
            for op in (sc.bracket, sc.killing):
                with pytest.raises(IndexOutOfRange, match=message):
                    op(u, v)
            with pytest.raises(IndexOutOfRange):
                sc.basis_bracket(*u, *v)
        with pytest.raises(IndexOutOfRange):
            adjoint_matrix(sc, {bad: 1})
        with pytest.raises(IndexOutOfRange, match=message):
            theta(sc, (0,) * (sc.rs.rank - 1) + (1,), {bad: 1})
        if name == "G2":
            with pytest.raises(IndexOutOfRange, match=message):
                g2_rep_matrix({bad: 1})
    # the edges of the range are accepted: e_good is x^-a for the last root a
    npos = len(sc.rs.positive_roots)
    assert sc.basis_bracket(0, good) == sc.ad[0][good]
    assert sc.killing({good: 1}, {good - npos: 1}) > 0
    # a grading of another length
    for T in ((1,), (1,) * (sc.rs.rank + 1)):
        with pytest.raises(IndexOutOfRange, match=f"{len(T)} coordinates, rank"):
            theta(sc, T, {0: 1})
    # jacobi_residual checks no index, as its docstring says: -1 wraps to the
    # last basis vector, whose residual is zero, and dim overruns a row
    assert jacobi_residual(sc, -1, 0, good - npos) == {}
    with pytest.raises(IndexError):
        jacobi_residual(sc, sc.dim, 0, 1)


def test_build_table_checks_each_string_length(monkeypatch):
    """Each constant after the extraspecial one is solved from the Jacobi
    identity and checked against its string length; read one longer, the
    length must fail that check."""
    string_length = chevalley.StructureConstants._string_length

    def one_longer(self, a, b):
        # the extraspecial constants keep their true length, so the Jacobi
        # solve stays integral and only the check can tell
        gamma = tuple(x + y for x, y in zip(a, b))
        return string_length(self, a, b) + (self.extraspecial.get(gamma) != (a, b))

    monkeypatch.setattr(chevalley.StructureConstants, "_string_length", one_longer)
    with pytest.raises(AssertionError, match=r"\|N\| = 1 != string length 2"):
        chevalley.StructureConstants(root_system("B3"))


def test_rational_form_b3_is_so43():
    # T = S^2 gives so(4,3): k = so(4) + so(3), dim 9, and dim p = 12
    rf = rational_form(_sc("B3"), (0, 1, 0))
    assert (rf.compact_dim, rf.noncompact_dim) == (9, 12)


def test_theta_is_involution():
    sc = _sc("G2")
    T = (0, 1)
    for k in range(sc.dim):
        vec = {k: Fraction(3, 2)}
        assert theta(sc, T, theta(sc, T, vec)) == vec


def test_cayley_standard_triples():
    g2 = _sc("G2")
    for beta in [(0, 1), (1, 1), (2, 1), (3, 1)]:
        cayley_standard_triple(g2, beta, (0, 1))  # self-checks the brackets
    f4 = _sc("F4")
    cayley_standard_triple(f4, (1, 0, 0, 0), (1, 0, 0, 0))
    with pytest.raises(CompactRoot):
        cayley_standard_triple(g2, (1, 0), (0, 1))


def test_cayley_standard_triple_rejects_corrupted_coroot_row():
    for name, beta, T in (("G2", (0, 1), (0, 1)), ("F4", (1, 0, 0, 0), (1, 0, 0, 0))):
        # a fresh table, so the cached one stays intact
        sc = chevalley.StructureConstants(root_system(name))
        cayley_standard_triple(sc, beta, T)
        ib, ineg = sc.root_index[beta], sc.root_index[sc._neg[beta]]
        sc.ad[ib][ineg] = tuple((k, 2 * c) for k, c in sc.ad[ib][ineg])
        with pytest.raises(AssertionError):
            cayley_standard_triple(sc, beta, T)
        cayley_standard_triple(_sc(name), beta, T)


def test_cayley_standard_triple_a1_matches_example():
    sc = _sc("A1")
    y_plus, h_prime, y_minus = cayley_standard_triple(sc, (1,), (1,))
    half_i = GaussianRational(Fraction(0), Fraction(1, 2))
    assert sl2_matrix(y_plus, sc) == (
        (half_i, -half_i),
        (half_i, -half_i),
    )
    assert sl2_matrix(h_prime, sc) == (
        (GaussianRational.of(0), GaussianRational.of(1)),
        (GaussianRational.of(1), GaussianRational.of(0)),
    )
    assert sl2_matrix(y_minus, sc) == (
        (-half_i, -half_i),
        (half_i, half_i),
    )


def test_a1_disc_model():
    for t in (1, 2, 10):
        assert a1_disc_coordinate_in_unit_disc(t)
    # the check reduces to t > 0, so it can fail
    for t in (-3, Fraction(-1, 2), 0):
        assert not a1_disc_coordinate_in_unit_disc(t)


def test_g2_seven_dim_rep_brackets():
    mats = g2_seven_dim_rep()  # construction fails hard on inconsistency
    sc = _sc("G2")
    assert set(mats) == set(range(sc.dim))
    # E = S^2 eigenspace dimensions (2, 3, 2)
    h_e = g2_rep_matrix(sc.h(2))
    eigs = {}
    for k, w in enumerate(G2_V7_WEIGHTS):
        val = evaluate(w, (0, 1))
        eigs[val] = eigs.get(val, 0) + 1
        assert h_e[k][k] == sum(w[t] * sc.rs.cartan[t][1] for t in range(2))
    assert eigs == {1: 2, 0: 3, -1: 2}


def test_g2_seven_dim_rep_matches_sign_search():
    mats = g2_seven_dim_rep()
    oracle = g2_seven_dim_rep_by_sign_search(_sc("G2"), G2_V7_WEIGHTS)
    assert set(mats) == set(oracle)
    for k, m in oracle.items():
        assert mats[k] == m, k


@pytest.mark.parametrize("a, b", [
    (0, (1, 0)),  # [H^{alpha_1}, x^{alpha_1}]
    ((1, 0), (0, 1)),  # a simple pair
    ((-1, 0), (-1, -1)),  # the N dividing x^{-(2,1)}
], ids=["cartan", "simple", "divisor"])
def test_g2_seven_dim_rep_rejects_corrupted_table(monkeypatch, a, b):
    """A bracket table with one entry negated (its partner [e_b, e_a] kept)
    is no Lie algebra, and the build's bracket check must say so.  ``a`` is
    a Cartan index or a root."""
    sc = copy.copy(_sc("G2"))
    sc.ad = [list(row) for row in sc.ad]
    ia = a if isinstance(a, int) else sc.root_index[a]
    ib = sc.root_index[b]
    sc.ad[ia][ib] = tuple((k, -c) for k, c in sc.ad[ia][ib])
    monkeypatch.setattr(chevalley, "_g2", lambda: (sc.rs, sc))
    with pytest.raises(AssertionError, match="bracket"):
        g2_seven_dim_rep.__wrapped__()


def test_g2_lowering_squared_kills_top():
    # (x^{-a2})^2 annihilates V^{2,0}
    sc = _sc("G2")
    m = g2_rep_matrix(sc.x((0, -1)))
    sq = [
        [sum(m[i][k] * m[k][j] for k in range(7)) for j in range(7)]
        for i in range(7)
    ]
    for j in (0, 1):  # the two top-eigenvalue columns
        assert all(sq[i][j] == 0 for i in range(7))


def _yukawa(coeffs):
    return g2_yukawa_matrix(g2_xi(_sc("G2"), coeffs))


def test_g2_yukawa_examples():
    assert all(x == 0 for row in _yukawa((1, 0, 0, 0)) for x in row)
    assert any(x != 0 for row in _yukawa((0, 1, 0, 0)) for x in row)
    assert any(x != 0 for row in _yukawa((0, 0, 1, 0)) for x in row)


def _rank2(m):
    if all(x == 0 for row in m for x in row):
        return 0
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return 2 if det else 1


def test_g2_yukawa_rank_stratification():
    # entries are normalization-dependent but the rank strata are not:
    # rank 0 on the cubic, rank 1 on its tangent directions, rank 2 generic
    assert _rank2(_yukawa((1, 0, 0, 0))) == 0
    assert _rank2(_yukawa((0, 1, 0, 0))) == 1
    assert _rank2(_yukawa((0, 0, 1, 0))) == 1
    assert _rank2(_yukawa((1, 0, 0, 1))) == 2
    rng = random.Random(5)
    ranks = set()
    for _ in range(50):
        xi = tuple(Fraction(rng.randrange(-9, 10)) for _ in range(4))
        ranks.add(_rank2(_yukawa(xi)))
    assert 2 in ranks


def test_g2_yukawa_vanishes_on_cubic_cone():
    # the twisted cubic: exp(t ad x^{-a1}) x^{-a2}
    sc = _sc("G2")
    rng = random.Random(7)
    for _ in range(20):
        t = Fraction(rng.randrange(-40, 40), rng.randrange(1, 12))
        s = Fraction(rng.randrange(1, 8))
        xi = {k: s * c for k, c in cone_point(sc, 2, [((-1, 0), t)]).items()}
        assert all(x == 0 for row in g2_yukawa_matrix(xi) for x in row)
        sff = second_fundamental_form(sc, 2, xi)
        assert not sff


def test_g2_second_fundamental_form_examples():
    sc = _sc("G2")
    assert second_fundamental_form(sc, 2, g2_xi(sc, (1, 0, 0, 0))) == {}
    out = second_fundamental_form(sc, 2, g2_xi(sc, (0, 0, 1, 0)))
    idx_neg_a1 = sc.root_index[(-1, 0)]
    assert out.get(idx_neg_a1) == 2  # the 2 xi_2^2 term toward x^{-a1}


def test_g2_yukawa_and_sff_vanishing_loci_agree():
    sc = _sc("G2")
    rng = random.Random(20240810)
    for _ in range(100):
        xi = g2_xi(sc, tuple(
            Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(4)
        ))
        yuk_zero = all(x == 0 for row in g2_yukawa_matrix(xi) for x in row)
        sff_zero = not second_fundamental_form(sc, 2, xi)
        assert yuk_zero == sff_zero


def test_g2_levi_orbit_of_lowest_direction_in_kernel():
    # points of C_o sampled from the g^0-orbit of x^{-a2}
    sc = _sc("G2")
    rng = random.Random(99)
    raise_op = sc.x((1, 0))
    lower_op = sc.x((-1, 0))

    def exp_ad(op, vec, t):
        total = dict(vec)
        cur = dict(vec)
        fact = 1
        for k in range(1, 8):
            cur = sc.bracket(op, cur)
            if not cur:
                break
            fact *= k
            for idx, c in cur.items():
                total[idx] = total.get(idx, 0) + c * t**k / fact
        return {k: v for k, v in total.items() if v}

    for _ in range(25):
        vec, steps = sc.x((0, -1)), []
        for gamma, op in (((1, 0), raise_op), ((-1, 0), lower_op)):
            t = Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
            vec = exp_ad(op, vec, t)
            steps.append((gamma, t))
        assert cone_point(sc, 2, steps) == vec
        lam = Fraction(rng.randrange(1, 5))
        xi = {k: lam * c for k, c in vec.items()}
        assert all(x == 0 for row in g2_yukawa_matrix(xi) for x in row)


def test_highest_root_has_coefficient_two_at_each_fundamental_adjoint_node():
    """II(xi) lands in g^0 with no check of its own: xi has degree -1 for
    E = S^i and x^theta degree theta_i, which is 2 at every fundamental-adjoint
    node (theta = w_i) up to rank 64.  Every type is searched up to rank 12;
    above it only B_n and D_n, as A_n (theta = w_1 + w_n) and C_n
    (theta = 2 w_1) have no such node, and building them would add about 1 s."""
    cases = 0
    for t in lie_types_up_to(64):
        if t.rank > 12 and t.family not in "BD":
            continue
        rs = RootSystem(t)  # not cached: these systems would stay in memory
        for i in range(1, t.rank + 1):
            if is_fundamental_adjoint(rs, {i}):
                assert rs.highest_root[i - 1] == 2, (t, i)
                cases += 1
    assert cases == 62 + 61 + 5  # B3..B64 and D4..D64 at node 2, E6-E8, F4, G2


def test_second_fundamental_form_and_cone_point_reject_bad_input():
    sc = _sc("B3")
    xi = {sc.root_index[(0, -1, 0)]: 1}
    assert second_fundamental_form(sc, 2, xi) == {}
    # B3 at node 1 or 3 is no adjoint variety
    for i in (1, 3):
        with pytest.raises(NotFundamentalAdjoint):
            second_fundamental_form(sc, i, xi)
        with pytest.raises(NotFundamentalAdjoint):
            cone_point(sc, i, [])
    # a Cartan entry, a root of degree 0, +1 or -2, and no basis index at all
    for bad in (sc.h(2), sc.x((-1, 0, 0)), sc.x((0, 1, 0)), sc.x((-1, -2, -2)), {sc.dim: 1}):
        with pytest.raises(NotDegreeOne):
            second_fundamental_form(sc, 2, {**xi, **bad})
    # the Yukawa matrix shares the degree check
    g2 = _sc("G2")
    for bad in (g2.h(1), g2.x((-1, 0)), g2.x((0, 1)), g2.x((-3, -2)), {g2.dim: 1}):
        with pytest.raises(NotDegreeOne):
            g2_yukawa_matrix({**g2_xi(g2, (1, 0, 0, 0)), **bad})
    # a step must be a Levi root
    assert cone_point(sc, 2, [((1, 0, 0), 3), ((0, 0, -1), Fraction(1, 2))])
    for gamma in ((0, 1, 0), (-1, -1, 0), (0, 1, 2)):
        with pytest.raises(NotDegreeOne):
            cone_point(sc, 2, [((1, 0, 0), 1), (gamma, 1)])

