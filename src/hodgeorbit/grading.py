"""Grading-element decompositions, parabolic data and root compactness.

``root_values`` is the one place a grading element h meets the roots: it gives
alpha(h) for every positive root as a sum of scaled coordinate columns, one
per nonzero h_j, and -alpha takes the negated value.  Every pairing with all
positive roots goes through it: a weight lam in fundamental coordinates as
h_j = d_j lam_j, a coroot H^b as its S-coordinates, and the boundary diamond
as (alpha(E), alpha(Y)) with Y = sum_b H^b.  ``eigen_dims`` counts those
values as the eigenspace dimensions of g.  ``evaluate`` is for weights and
single vectors.  Both refuse a vector of the wrong length.  The one rule for
the Dynkin nodes I of a G/P_I is ``_check_index_set``, and for a fundamental
adjoint node ``_require_fundamental_adjoint``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from .errors import HodgeOrbitError, IndexOutOfRange, NotFundamentalAdjoint
from .rootdata import RootSystem

GradingElement = tuple[int, ...]


def grading_element_for(rs: RootSystem, I) -> GradingElement:
    """E = sum_{i in I} S^i as an integer vector in the S-basis."""
    I = _check_index_set(rs, I)
    return tuple(1 if j + 1 in I else 0 for j in range(rs.rank))


def evaluate(coords, element) -> object:
    """Value of the grading element on a vector in simple-root coordinates."""
    if len(coords) != len(element):
        raise IndexOutOfRange(f"{len(coords)} coordinates against {len(element)}")
    return sum(map(mul, coords, element))


def _check_integral_grading(T) -> None:
    """HodgeOrbitError unless every entry of T is an integer, as beta(T) mod 2 is read."""
    if any(int(t) != t for t in T):
        raise HodgeOrbitError(f"grading {tuple(T)} has a non-integer entry")


def root_values(rs: RootSystem, h) -> tuple:
    """alpha(h) for each alpha in ``rs.positive_roots``: sum of h_j ``positive_columns[j]``."""
    rs.check_length(h)
    terms = [col if c == 1 else tuple([c * x for x in col])
             for c, col in zip(h, rs.positive_columns) if c]
    if len(terms) > 1:
        return tuple(map(sum, zip(*terms)))
    return terms[0] if terms else (0,) * len(rs.positive_roots)


def eigen_dims(rs: RootSystem, values) -> dict:
    """dim g^v from ``root_values``: each value counts at v and -v, the rank at 0."""
    dims: dict = {}
    for v in values:
        dims[v] = dims.get(v, 0) + 1
        dims[-v] = dims.get(-v, 0) + 1
    dims[0] = dims.get(0, 0) + rs.rank
    return dims


def _check_index_set(rs: RootSystem, I) -> frozenset:
    """I as a frozenset; IndexOutOfRange if it is empty or has a node outside 1..rank."""
    I = frozenset(I)
    if not I:
        raise IndexOutOfRange("index set must be nonempty")
    for i in I:
        if not 1 <= i <= rs.rank:
            raise IndexOutOfRange(f"index {i} outside 1..{rs.rank}")
    return I


@dataclass(frozen=True)
class ParabolicData:
    """Eigenspace dimensions of the grading E = sum_{i in I} S^i."""

    index_set: frozenset
    grading_element: GradingElement
    eigen_dims: dict = field(compare=False)
    cartan_part: int
    zero_root_part: int
    flag_dim: int


def parabolic(rs: RootSystem, I) -> ParabolicData:
    """Dimensions of the g^p and of the flag variety G/P_I."""
    I = _check_index_set(rs, I)
    E = grading_element_for(rs, I)
    dims = eigen_dims(rs, root_values(rs, E))
    zero_root_part = dims[0] - rs.rank
    flag_dim = sum(v for p, v in dims.items() if p > 0)
    return ParabolicData(I, E, dims, rs.rank, zero_root_part, flag_dim)


def adjoint_index_set(rs: RootSystem) -> frozenset:
    """I(p) for the adjoint variety: the i with highest_root - alpha_i a root."""
    at = rs.highest_root
    out = set()
    for i in range(rs.rank):
        cand = tuple(at[k] - (1 if k == i else 0) for k in range(rs.rank))
        if rs.is_root(cand):
            out.add(i + 1)
    return frozenset(out)


def is_fundamental_adjoint(rs: RootSystem, I) -> bool:
    """True when I = {i} and the highest root equals the fundamental weight w_i."""
    I = _check_index_set(rs, I)
    if len(I) != 1:
        return False
    (i,) = I
    # highest_root = w_i means its simple-coroot pairings are delta_{i.}
    delta_i = tuple(int(j == i - 1) for j in range(rs.rank))
    if rs.pairings(rs.highest_root) != delta_i:
        return False
    # the defining property: highest_root - alpha_j is a root iff j = i
    if adjoint_index_set(rs) != I:
        raise AssertionError("fundamental adjoint property violated")
    return True


def _require_fundamental_adjoint(rs: RootSystem, i: int):
    if not is_fundamental_adjoint(rs, {i}):
        raise NotFundamentalAdjoint(f"({rs.lie_type}, {{{i}}}) is not fundamental adjoint")


def classify_root_compactness(rs: RootSystem, E: GradingElement):
    """Split the roots by parity of alpha(E): (compact, noncompact)."""
    _check_integral_grading(E)
    compact, noncompact = [], []
    for beta, v in zip(rs.positive_roots, root_values(rs, E)):
        (noncompact if v % 2 else compact).extend((beta, tuple(-c for c in beta)))
    return tuple(compact), tuple(noncompact)


def schubert_dim_from_grading(rs: RootSystem, i: int, T_w) -> int:
    """#{alpha in Delta : alpha(S^i) = 1 and alpha(T_w) <= 0}."""
    _check_index_set(rs, {i})
    # alpha(S^i) is the i-th simple-root coordinate, so it is 1 only on
    # positive roots
    return sum(
        1
        for beta, v in zip(rs.positive_roots, root_values(rs, T_w))
        if beta[i - 1] == 1 and v <= 0
    )
