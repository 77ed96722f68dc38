"""Diagram automorphisms as cross-family oracles.

A permutation sigma of the Dynkin nodes that keeps the Cartan matrix and the
root lengths extends to an automorphism of g with alpha_i -> alpha_sigma(i)
(Humphreys, *Introduction to Lie Algebras and Representation Theory* 14.1).
It sends the grading E = sum_{i in I} S^i to sigma E = sum_{i in I}
S^sigma(i), so every invariant of a grading agrees at E and at sigma E, and
one attached to node i at E agrees with the one at node sigma(i) at sigma E.
The code under test reads node indices, never the automorphism, so an
asymmetry in it shows as a mismatch.
"""

from functools import cache
from itertools import combinations, permutations

import pytest

from hodgeorbit.cayley import real_rank
from hodgeorbit.chevalley import rational_form, structure_constants
from hodgeorbit.grading import grading_element_for, parabolic, schubert_dim_from_grading
from hodgeorbit.lines import co_components
from hodgeorbit.rootdata import root_system


def _flip(n):
    return tuple(range(n, 0, -1))


def _swap_last_two(n):
    return (*range(1, n - 1), n, n - 1)


#: (type, sigma) with sigma[i - 1] the image of node i
AUTOMORPHISMS = (
    [(f"A{n}", _flip(n)) for n in (*range(1, 9), 16)]
    + [(f"D{n}", _swap_last_two(n)) for n in (*range(5, 9), 16)]
    + [("D4", (a, 2, b, c)) for a, b, c in permutations((1, 3, 4))]  # the D4 swap among them
    + [("E6", (6, 2, 5, 4, 3, 1))]
)
AUTOMORPHISM_IDS = [f"{name}-{'.'.join(map(str, sigma))}" for name, sigma in AUTOMORPHISMS]


def _index_sets(rank):
    """Every nonempty node set up to rank 6, single nodes above."""
    sizes = range(1, rank + 1) if rank <= 6 else (1,)
    return [frozenset(I) for k in sizes for I in combinations(range(1, rank + 1), k)]


def _builds_rational_form(rank, I):
    """``rational_form`` verifies all (dim g)^2 basis brackets, so above rank 8
    it is built at the end nodes 1, 2, r - 1 and r only: both nodes of the D16
    swap and two pairs of the A16 flip.  Every sigma here maps these to each
    other."""
    return rank <= 8 or I <= {1, 2, rank - 1, rank}


@cache
def _grading_invariants(name, I):
    rs = root_system(name)
    E = grading_element_for(rs, I)
    compact_dim = (
        rational_form(structure_constants(rs), E).compact_dim
        if _builds_rational_form(rs.rank, I) else None
    )
    return real_rank(rs, E), parabolic(rs, I).eigen_dims, compact_dim


@cache
def _node_invariants(name, I):
    """Per node i: the C_o component at i (when i is in I) and the Schubert
    dimension at S^i against E."""
    rs = root_system(name)
    E = grading_element_for(rs, I)
    components = dict(zip(sorted(I), co_components(rs, I)))
    return {
        i: (components.get(i), schubert_dim_from_grading(rs, i, E))
        for i in range(1, rs.rank + 1)
    }


@pytest.mark.parametrize("name, sigma", AUTOMORPHISMS, ids=AUTOMORPHISM_IDS)
def test_diagram_automorphism_preserves_grading_invariants(name, sigma):
    rs = root_system(name)
    r = rs.rank
    s = [x - 1 for x in sigma]
    assert sorted(sigma) == list(range(1, r + 1))
    assert all(rs.cartan[s[i]][s[j]] == rs.cartan[i][j] for i in range(r) for j in range(r))
    assert all(rs.lengths[s[j]] == rs.lengths[j] for j in range(r))
    for I in _index_sets(r):
        J = frozenset(sigma[i - 1] for i in I)
        if J != I:
            assert _grading_invariants(name, I) == _grading_invariants(name, J), (I, J)
        at_I, at_J = _node_invariants(name, I), _node_invariants(name, J)
        for i in range(1, r + 1):
            (comp, schubert), (image, schubert_image) = at_I[i], at_J[sigma[i - 1]]
            assert schubert == schubert_image, (I, i)
            if comp is None:
                assert image is None
                continue
            assert (comp.dimension, comp.subdiagram) == (image.dimension, image.subdiagram)
            assert {sigma[j - 1] for j in comp.marked_nodes} == image.marked_nodes, (I, i)
