"""The variety of lines through a point of a minimally embedded G/P.

The homogeneous description of C_o (subdiagram plus marked nodes) follows the
adjacency rule for maximal parabolics; membership of a root direction x^{-beta}
is decided by the string-length criterion

    mu(H^beta) <= 1,

which is equivalent to xi^2(v) = 0 for xi = x^{-beta} and v a highest weight
vector: v spans an sl2^beta-string of length mu(H^beta) + 1 (mu + beta is
never a weight), so x^{-beta} applied twice kills v exactly when that string
has at most two steps.  The tests check the criterion on every fundamental
adjoint variety up to rank 8 against ``chevalley.second_fundamental_form``,
II(xi) = (ad xi)^2 x^theta, whose base locus is C_o: II(x^{-beta}) vanishes
exactly on the directions the criterion admits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotDegreeOne, NotMaximalParabolic
from .grading import _check_index_set, evaluate, grading_element_for, root_values
from .rootdata import RootSystem, cartan_type

#: classical names for the C_o of the fundamental adjoint varieties
CO_CLASSICAL_NAMES = {
    ("B", 2): "P1 x Q^(n-6)",
    ("D", 2): "P1 x Q^(n-6)",
    ("E6", 2): "Gr(3,C6)",
    ("E7", 1): "S6",
    ("E8", 8): "E7/P7",
    ("F4", 1): "LG(3,C6)",
    ("G2", 2): "v3(P1)",
}


@dataclass(frozen=True)
class FlagDescriptor:
    """Homogeneous data of one component of C_o."""

    subdiagram: tuple  # LieType components of the diagram minus deleted nodes
    marked_nodes: frozenset  # indices in the original diagram
    dimension: int
    classical_name: str | None = None


def _check_single(rs: RootSystem, I) -> int:
    i, *rest = sorted(_check_index_set(rs, I))
    if rest:
        raise NotMaximalParabolic(f"index set {[i, *rest]} is not a single node")
    return i


def lines_parabolic(rs: RootSystem, I) -> frozenset:
    """I(q): the nodes adjacent to alpha_i in the Dynkin diagram."""
    i = _check_single(rs, I)
    return frozenset(
        j + 1 for j in range(rs.rank) if j + 1 != i and rs.cartan[i - 1][j] != 0
    )


def _descriptor_for(rs: RootSystem, i: int, deleted) -> FlagDescriptor:
    keep = [j for j in range(1, rs.rank + 1) if j not in deleted]
    marked = frozenset(
        j for j in keep if rs.cartan[i - 1][j - 1] != 0 and j != i
    )
    types = cartan_type([[rs.cartan[a - 1][b - 1] for b in keep] for a in keep])
    # dimension: positive roots of the sub-system (0 on the deleted nodes)
    # that are nonzero on the marked ones; indicator vectors, as marked may
    # be empty
    on_deleted, on_marked = (
        root_values(rs, [int(j in nodes) for j in range(1, rs.rank + 1)])
        for nodes in (deleted, marked)
    )
    dim = sum(1 for x, y in zip(on_deleted, on_marked) if not x and y)
    name = None
    fam = rs.lie_type.family
    if fam in "BD":
        name = CO_CLASSICAL_NAMES.get((fam, i))
    else:
        name = CO_CLASSICAL_NAMES.get((str(rs.lie_type), i))
    return FlagDescriptor(types, marked, dim, name)


def co_descriptor(rs: RootSystem, I) -> FlagDescriptor:
    """C_o = G^0/(G^0 cap Q) for a maximal parabolic: diagram minus node i."""
    i = _check_single(rs, I)
    return _descriptor_for(rs, i, {i})


def co_components(rs: RootSystem, I) -> list[FlagDescriptor]:
    """General I: C_o is the disjoint union of one component per i in I."""
    I = _check_index_set(rs, I)
    return [_descriptor_for(rs, i, I) for i in sorted(I)]


def cone_horizontal(rs: RootSystem, I) -> bool:
    """The swept cone X is horizontal iff alpha_i is not short."""
    i = _check_single(rs, I)
    return rs.root_length(rs.simple_roots[i - 1]) == max(rs.lengths)


def co_membership_root_direction(rs: RootSystem, I, beta) -> bool:
    """Whether x^{-beta} is tangent to a line of C_o, for beta(E) = 1."""
    beta = rs.check_root(beta)
    E = grading_element_for(rs, I)
    if evaluate(beta, E) != 1:
        raise NotDegreeOne(f"{beta} has E-value {evaluate(beta, E)}, need 1")
    # mu = sum_{i in I} omega_i and omega_i(H^{alpha_j}) = delta_ij, so mu(H^beta)
    # sums the coordinates of H^beta over I, which is E evaluated on them
    return evaluate(rs.coroot(beta), E) <= 1
