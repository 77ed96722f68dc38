import itertools
import random
from fractions import Fraction

import pytest

from helpers import co_dimension_by_support, g2_xi, lie_types_up_to
from hodgeorbit.chevalley import (
    cone_point,
    g2_yukawa_matrix,
    second_fundamental_form,
    structure_constants,
)
from hodgeorbit.errors import IndexOutOfRange, NotDegreeOne, NotMaximalParabolic
from hodgeorbit.grading import evaluate, grading_element_for, is_fundamental_adjoint, parabolic
from hodgeorbit.lines import (
    co_components,
    co_descriptor,
    co_membership_root_direction,
    cone_horizontal,
    lines_parabolic,
)
from hodgeorbit.reps import weight_from_fund
from hodgeorbit.rootdata import build_root_system, coroot_pairing, root_system

# Table rows: adjoint variety -> variety of lines G/Q (node adjacency)
ADJACENCY = {
    ("G2", 2): {1},
    ("F4", 1): {2},
    ("E6", 2): {4},
    ("E7", 1): {3},
    ("E8", 8): {7},
    ("B4", 2): {1, 3},
    ("D5", 2): {1, 3},
}

# every fundamental adjoint (type, node) up to rank 8
EVERY_ADJOINT = (
    [(f"B{n}", 2) for n in range(3, 9)] + [(f"D{n}", 2) for n in range(4, 9)]
    + [("E6", 2), ("E7", 1), ("E8", 8), ("F4", 1), ("G2", 2)]
)

# C_o data: (subdiagram types, dimension)
CO_TABLE = {
    ("G2", 2): (("A1",), 1),
    ("F4", 1): (("C3",), 6),
    ("E6", 2): (("A5",), 9),
    ("E7", 1): (("D6",), 15),
    ("E8", 8): (("E7",), 27),
}


def test_lines_parabolic_adjacency():
    for (name, i), expected in ADJACENCY.items():
        assert lines_parabolic(root_system(name), {i}) == expected


def test_lines_parabolic_requires_maximal():
    # two nodes inside the diagram: the one case left to NotMaximalParabolic
    for entry in (lines_parabolic, co_descriptor, cone_horizontal):
        with pytest.raises(NotMaximalParabolic):
            entry(root_system("E6"), {1, 2})


def test_co_descriptor_table3():
    for (name, i), (types, dim) in CO_TABLE.items():
        d = co_descriptor(root_system(name), {i})
        assert tuple(str(t) for t in d.subdiagram) == types
        assert d.dimension == dim
        assert d.marked_nodes == lines_parabolic(root_system(name), {i})


def test_co_descriptor_bd_series():
    # C_o = P^1 x Q^(n-6) for OG(2, n): dimension a = 1 + (n - 6)
    for name, a in [("B3", 2), ("B4", 4), ("B5", 6), ("D4", 3), ("D5", 5)]:
        d = co_descriptor(root_system(name), {2})
        assert d.dimension == a
        assert d.classical_name == "P1 x Q^(n-6)"


def test_co_dimension_matches_figure3_a():
    # dim C_o = a and dim g^{-1} = 2a + 2 for every fundamental adjoint
    for name, i in [("G2", 2), ("F4", 1), ("E6", 2), ("E7", 1), ("E8", 8),
                    ("B4", 2), ("D5", 2)]:
        rs = root_system(name)
        a = co_descriptor(rs, {i}).dimension
        assert parabolic(rs, {i}).eigen_dims[-1] == 2 * a + 2


def test_co_components_general_index_set():
    # adjoint variety of sl4 = Flag(1, 3, C^4): two P^1 families of lines
    comps = co_components(root_system("A3"), {1, 3})
    assert len(comps) == 2
    for d in comps:
        assert d.dimension == 1
    # and for E6 with I = {1, 2}
    comps = co_components(root_system("E6"), {1, 2})
    assert len(comps) == 2


@pytest.mark.parametrize("node", [0, -1, 5])
def test_co_components_rejects_node_outside_diagram(node):
    # 0 and -1 would wrap round to the Cartan rows of nodes 4 and 3
    rs = root_system("D4")
    for I in ([node], [2, node]):
        with pytest.raises(IndexOutOfRange, match=f"index {node} outside 1..4"):
            co_components(rs, I)
    with pytest.raises(IndexOutOfRange, match="nonempty"):
        co_components(rs, [])


def test_co_dimensions_match_root_support_oracle():
    # every node, and every pair of nodes, of every type of rank <= 8
    for lie_type in lie_types_up_to(8):
        rs = build_root_system(lie_type)
        nodes = range(1, rs.rank + 1)
        for i in nodes:
            assert co_descriptor(rs, {i}).dimension == co_dimension_by_support(rs, i, {i})
        for I in itertools.combinations(nodes, 2):
            dims = [d.dimension for d in co_components(rs, I)]
            assert dims == [co_dimension_by_support(rs, i, set(I)) for i in I], (lie_type, I)


def test_cone_horizontal():
    g2 = root_system("G2")
    assert cone_horizontal(g2, {2})
    assert not cone_horizontal(g2, {1})
    for i in (1, 2, 3):
        assert cone_horizontal(root_system("A3"), {i})
    # every fundamental adjoint node is non-short
    for name, i in [("B4", 2), ("D5", 2), ("E6", 2), ("E7", 1), ("E8", 8),
                    ("F4", 1), ("G2", 2)]:
        assert cone_horizontal(root_system(name), {i})
    assert not cone_horizontal(root_system("F4"), {4})
    assert not cone_horizontal(root_system("B4"), {4})


def test_membership_simple_roots():
    for name, I in [("G2", {2}), ("F4", {1}), ("B4", {2}), ("A3", {1, 3})]:
        rs = root_system(name)
        for i in I:
            alpha_i = tuple(1 if k == i - 1 else 0 for k in range(rs.rank))
            assert co_membership_root_direction(rs, I, alpha_i)


def test_membership_g2_cubic_directions():
    g2 = root_system("G2")
    # the twisted cubic contains exactly the two extreme coordinate
    # directions x^{-a2} and x^{-(3a1+a2)}
    assert co_membership_root_direction(g2, {2}, (0, 1))
    assert co_membership_root_direction(g2, {2}, (3, 1))
    assert not co_membership_root_direction(g2, {2}, (1, 1))
    assert not co_membership_root_direction(g2, {2}, (2, 1))


def test_membership_requires_degree_one():
    g2 = root_system("G2")
    with pytest.raises(NotDegreeOne):
        co_membership_root_direction(g2, {2}, (3, 2))


def test_membership_agrees_with_yukawa_kernel_g2():
    # cross-validation of the string-length criterion against the matrix
    # computation: x^{-beta} is in C_o iff its Yukawa square vanishes
    g2 = root_system("G2")
    directions = {(0, 1): 0, (1, 1): 1, (2, 1): 2, (3, 1): 3}
    for beta, slot in directions.items():
        xi = [0, 0, 0, 0]
        xi[slot] = 1
        vanishes = all(
            x == 0 for row in g2_yukawa_matrix(g2_xi(structure_constants(g2), xi)) for x in row
        )
        assert vanishes == co_membership_root_direction(g2, {2}, beta)


def test_membership_agrees_with_matrix_strings_b3():
    # B3 adjoint: mu = w_2; x^{-beta} is a line direction iff the beta-string
    # through the highest weight has length <= 1, checked via root strings
    b3 = root_system("B3")
    mu = b3.highest_root  # = w_2
    for beta in b3.positive_roots:
        if beta[1] != 1:
            continue
        # walk the literal string mu - k beta through the root system;
        # mu + beta is never a root, so the string length below mu is k
        k = 0
        cur = mu
        while True:
            cur = tuple(x - y for x, y in zip(cur, beta))
            if not b3.is_root(cur):
                break
            k += 1
        expected = k <= 1
        assert co_membership_root_direction(b3, {2}, beta) == expected


def test_membership_matches_weight_pairing():
    """The coordinate sum of H^beta over I equals mu(H^beta) for the weight
    mu = sum_{i in I} w_i built through the inverse Cartan matrix: every type
    of rank <= 8, every I with |I| <= 2, every beta with beta(E) = 1."""
    cases = 0
    for lie_type in lie_types_up_to(8):
        rs = build_root_system(lie_type)
        for I in itertools.chain.from_iterable(
            itertools.combinations(range(1, rs.rank + 1), k) for k in (1, 2)
        ):
            E = grading_element_for(rs, I)
            mu = weight_from_fund(rs, tuple(int(j + 1 in I) for j in range(rs.rank)))
            for beta in rs.positive_roots:
                if evaluate(beta, E) == 1:
                    expected = coroot_pairing(rs, mu.root_coords, beta) <= 1
                    assert co_membership_root_direction(rs, I, beta) == expected
                    cases += 1
    assert cases == 8467


def test_second_fundamental_form_base_locus_on_every_adjoint_variety():
    """C_o is the base locus of II(xi) = (ad xi)^2 x^theta on g^{-1}: on each
    root direction II vanishes exactly where the string-length criterion
    holds, it vanishes on cone points exp(ad x^gamma_m) .. x^{-alpha_i} built
    from Levi roots gamma, and it does not vanish on generic xi."""
    assert set(EVERY_ADJOINT) == {
        (str(t), i) for t in lie_types_up_to(8) for i in range(1, t.rank + 1)
        if is_fundamental_adjoint(build_root_system(t), {i})
    }
    directions = 0
    for name, i in EVERY_ADJOINT:
        rs = root_system(name)
        sc = structure_constants(rs)
        degree_one = [b for b in rs.positive_roots if b[i - 1] == 1]
        for beta in degree_one:
            xi = sc.x(tuple(-c for c in beta))
            in_co = co_membership_root_direction(rs, {i}, beta)
            assert (not second_fundamental_form(sc, i, xi)) == in_co, (name, beta)
        directions += len(degree_one)
        levi = [g for g in rs.roots if g[i - 1] == 0]
        rng = random.Random(name)
        for _ in range(20):
            steps = [
                (rng.choice(levi), Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
                for _ in range(3)
            ]
            point = cone_point(sc, i, steps)
            assert point and not second_fundamental_form(sc, i, point), (name, steps)
        for _ in range(20):
            xi = {sc.root_index[tuple(-c for c in b)]: rng.choice((-3, -2, -1, 1, 2, 3))
                  for b in degree_one}
            assert second_fundamental_form(sc, i, xi), (name, xi)
    assert directions == 302


def test_co_dimension_as_levi_orbit_of_lowest_direction():
    """dim C_o is the dimension of the G^0-orbit of [x^{-alpha_i}]:
    #{gamma in Delta(g^0) : gamma - alpha_i in Delta}."""
    for name, i in EVERY_ADJOINT + [("B36", 2), ("D64", 2)]:
        rs = root_system(name)
        levi = [g for g in rs.roots if g[i - 1] == 0]
        orbit_dim = sum(
            rs.is_root(tuple(c - int(j == i - 1) for j, c in enumerate(g))) for g in levi
        )
        assert orbit_dim == co_descriptor(rs, {i}).dimension, name
