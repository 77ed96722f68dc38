"""Strongly orthogonal root sets, Hodge-Deligne bigradings and boundary orbits.

A set B = (beta_1, .., beta_s) of pairwise strongly orthogonal roots with
beta_j(E) = 1 determines a bigrading of g by

    p(alpha) = alpha(E),      p(alpha) + q(alpha) = alpha(Y),
    Y = H^{beta_1} + ... + H^{beta_s},

with the Cartan subalgebra sitting at (0, 0).  Summed in the S-basis, Y is one
grading element, so p and p + q are two ``grading.root_values`` rows.  The
codimension, K-orbit dimension and LMHS type of the associated boundary orbit
are read off the bigraded dimensions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from operator import add

from .errors import (
    InvalidSOS,
    LengthMismatch,
    NotFundamentalAdjoint,
)
from .grading import (
    _check_index_set,
    eigen_dims,
    evaluate,
    grading_element_for,
    is_fundamental_adjoint,
    parabolic,
    root_values,
)
from .reps import Weight
from .rootdata import RootSystem, cartan_type, coroot_pairing, strongly_orthogonal

# -- strongly orthogonal sets ---------------------------------------------


def sos_candidates(rs: RootSystem, E) -> list:
    """The roots with beta(E) = 1 (necessarily positive and noncompact)."""
    return [b for b, v in zip(rs.positive_roots, root_values(rs, E)) if v == 1]


def canonical_sos(rs: RootSystem, B) -> tuple:
    """Order-free representative: roots sorted by height then coords."""
    return tuple(sorted((rs.check_root(b) for b in B), key=lambda b: (sum(b), b)))


def validate_sos(rs: RootSystem, E, B) -> list[str]:
    """Every violated condition of the strongly-orthogonal-set definition.

    Pairwise orthogonal roots are linearly independent, so a set with more than
    ``rs.rank`` members fails on that alone; it is the one violation reported,
    before any pair is checked.
    """
    rs.check_length(E)
    if len(B) > rs.rank:
        return [f"{len(B)} roots, more than the rank {rs.rank}"]
    violations = []
    roots = []
    for b in B:
        if not rs.is_root(b):
            violations.append(f"{tuple(b)} is not a root")
        else:
            roots.append(rs.check_root(b))
    if len(set(roots)) != len(roots):
        violations.append("repeated root")
    for b in roots:
        v = evaluate(b, E)
        if v != 1:
            violations.append(f"{b} has E-value {v}, need 1")
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            a, b = roots[i], roots[j]
            if a == b:
                continue  # reported once as a repeated root
            s = tuple(x + y for x, y in zip(a, b))
            d = tuple(x - y for x, y in zip(a, b))
            if rs.is_root(s):
                violations.append(f"sum {s} of {a} and {b} is a root")
            if rs.is_root(d):
                violations.append(f"difference {d} of {a} and {b} is a root")
            if not rs.is_root(s) and not rs.is_root(d) and rs.bilinear(a, b) != 0:
                violations.append(f"{a} and {b} are not orthogonal")
    return violations


def _require_valid(rs: RootSystem, E, B) -> tuple:
    violations = validate_sos(rs, E, B)
    if violations:
        raise InvalidSOS(violations)
    return canonical_sos(rs, B)


def _so_graph(rs: RootSystem, roots) -> list[int]:
    """Bitmask k of the result: the j with roots[j] strongly orthogonal to roots[k].

    For positive roots that is roots[j](H^{roots[k]}) = 0, read off the
    ``root_values`` of that coroot, and roots[j] + roots[k] not a root."""
    rows = [root_values(rs, rs.coroot_s_coords(b)) for b in roots]
    at = list(map({b: k for k, b in enumerate(rs.positive_roots)}.get, roots))
    n = len(roots)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if not rows[i][at[j]] and not rs.is_root(map(add, roots[i], roots[j])):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def iter_sos(rs: RootSystem, E):
    """All nonempty strongly orthogonal subsets of {beta : beta(E) = 1}.

    Canonical (sorted) tuples, each subset exactly once.
    """
    cand = sos_candidates(rs, E)
    compat = _so_graph(rs, cand)

    def extend(pool, current):
        k_pool = pool
        while k_pool:
            k = (k_pool & -k_pool).bit_length() - 1
            k_pool &= k_pool - 1
            nxt = current + (cand[k],)
            yield nxt
            # only indices above k, compatible with everything chosen
            yield from extend(k_pool & compat[k], nxt)

    yield from extend((1 << len(cand)) - 1, ())


@dataclass(frozen=True)
class SosSearchResult:
    max_size: int
    sets: tuple  # all sets of maximal size, canonical order


def search_sos(rs: RootSystem, E) -> SosSearchResult:
    """All maximum-size strongly orthogonal sets with beta(E) = 1."""
    best = 0
    sets = []
    for B in iter_sos(rs, E):
        if len(B) > best:
            best = len(B)
            sets = [B]
        elif len(B) == best:
            sets.append(B)
    return SosSearchResult(best, tuple(sets))


# -- real rank -------------------------------------------------------------


def real_rank(rs: RootSystem, E) -> int:
    """Maximum size of a pairwise strongly orthogonal subset of Delta_n.

    Restricting to positive noncompact roots is harmless (a sign flip keeps
    strong orthogonality); orthogonal sets have at most ``rs.rank`` members.
    """
    verts = [b for b, v in zip(rs.positive_roots, root_values(rs, E)) if v % 2]
    n = len(verts)
    adj = _so_graph(rs, verts)
    # order by descending degree for better pruning
    order = sorted(range(n), key=lambda i: -bin(adj[i]).count("1"))
    radj = [sum(1 << j for j, v in enumerate(order) if adj[u] >> v & 1) for u in order]
    best = 0

    def expand(size, pool):
        nonlocal best
        if pool == 0:
            best = max(best, size)
            return
        while pool and best < rs.rank:
            if size + bin(pool).count("1") <= best:
                return
            v = (pool & -pool).bit_length() - 1
            pool &= ~(1 << v)
            expand(size + 1, pool & radj[v])

    expand(0, (1 << n) - 1)
    return best


# -- bigradings and diamonds ------------------------------------------------


@dataclass(frozen=True)
class HodgeDeligneDiamond:
    """Map (p, q) -> dimension, with the Cartan folded into (0, 0)."""

    entries: tuple  # sorted tuple of ((p, q), dim)

    def as_dict(self) -> dict:
        return dict(self.entries)

    @property
    def total(self) -> int:
        return sum(d for _, d in self.entries)

    @property
    def support(self) -> frozenset:
        return frozenset(pq for pq, _ in self.entries)

    def dim(self, p, q) -> int:
        return self.as_dict().get((p, q), 0)


def bigrading(rs: RootSystem, E, B) -> HodgeDeligneDiamond:
    """h^{p,q} = #{alpha : alpha(E) = p, alpha(Y) = p + q} plus rank at (0,0)."""
    B = _require_valid(rs, E, B)
    dia = _fast_diamond(rs, E, B)
    _check_diamond(rs, dia)
    return dia


def _check_diamond(rs: RootSystem, dia: HodgeDeligneDiamond):
    d = dia.as_dict()
    for (p, q), v in d.items():
        if d.get((q, p), 0) != v or d.get((-p, -q), 0) != v:
            raise AssertionError("diamond symmetry violated")
    if dia.total != rs.dimension:
        raise AssertionError("diamond does not sum to dim g")


# -- LMHS templates ----------------------------------------------------------

_FIG_I = frozenset(
    [(2, -1), (1, 1), (1, 0), (1, -1), (1, -2), (0, 1), (0, 0), (0, -1),
     (-1, 2), (-1, 1), (-1, 0), (-1, -1), (-2, 1)]
)
_FIG_III = frozenset((q, -p) for (p, q) in _FIG_I)
_FIG_II_FULL = frozenset(
    [(2, 0), (-2, 0), (0, 2), (0, -2), (1, 0), (-1, 0), (0, 1), (0, -1),
     (1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)]
)
_FIG_II_CORE = frozenset(
    [(2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)]
)


def lmhs_type(rs: RootSystem, dia: HodgeDeligneDiamond) -> str:
    """Template label: I, II (IIa/IIb in types B/D), III, IV, or other."""
    support = dia.support
    if support == _FIG_I:
        return "I"
    if support == _FIG_III:
        return "III"
    if all(p == q for (p, q) in support):
        return "IV"
    if _FIG_II_CORE <= support <= _FIG_II_FULL:
        if rs.lie_type.family in "BD":
            return "IIa" if dia.dim(1, 0) == 0 else "IIb"
        return "II"
    return "other"


@dataclass(frozen=True)
class OrbitInvariants:
    codim: int
    k_dim: int | None
    mu: int | None
    lmhs_type: str


def orbit_invariants(rs: RootSystem, E, B) -> OrbitInvariants:
    """c_B always; k_B and mu_B when the diamond fits the adjoint shape.

    c_B counts the roots with p, q >= 1.  The k/mu formulas are derived for
    diamonds supported in |p|, |q| <= 2 (adjoint shape) and are left absent
    otherwise.
    """
    dia = bigrading(rs, E, B)
    return _invariants_from_diamond(rs, dia)


def _invariants_from_diamond(rs: RootSystem, dia: HodgeDeligneDiamond) -> OrbitInvariants:
    d = dia.as_dict()
    c = sum(v for (p, q), v in d.items() if p >= 1 and q >= 1)
    # the k/mu formulas are derived for the adjoint diamond shape: support in
    # |p|, |q| <= 2 with one-dimensional top E-eigenspace (recovered here from
    # the column sums of the diamond); outside it the fields stay absent
    in_window = all(abs(p) <= 2 and abs(q) <= 2 for (p, q) in dia.support)
    dim_g2 = sum(v for (p, _), v in d.items() if p == 2)
    if in_window and dim_g2 == 1:
        k = (
            2 * dia.dim(0, 1)
            + 2 * dia.dim(0, 2)
            + dia.dim(1, 1)
            - dia.dim(2, 2)
            + 2
        )
        mu2 = c + k - 2
        if mu2 % 2:
            raise AssertionError("mu is not an integer")
        mu = mu2 // 2
    else:
        k = mu = None
    return OrbitInvariants(c, k, mu, lmhs_type(rs, dia))


# -- codimension-one uniqueness ----------------------------------------------


def codim_one_uniqueness_check(rs: RootSystem, i: int) -> bool:
    """Exactly one Levi-Weyl class of singletons B = {beta} has c = 1,
    namely the class of alpha_i."""
    E = grading_element_for(rs, {i})
    levi = [j for j in range(rs.rank) if j != i - 1]
    orbit = rs.weyl_orbit([rs.simple_roots[i - 1]], levi)
    codim_one = {
        b for b in sos_candidates(rs, E) if orbit_invariants(rs, E, (b,)).codim == 1
    }
    return codim_one == {b for b in orbit if evaluate(b, E) == 1}


# -- adjoint weight grading and the Weyl flip ---------------------------------


def _require_fundamental_adjoint(rs: RootSystem, i: int):
    if not is_fundamental_adjoint(rs, {i}):
        raise NotFundamentalAdjoint(f"({rs.lie_type}, {{{i}}}) is not fundamental adjoint")


def weight_grading_dims(rs: RootSystem, i: int) -> dict:
    """Eigenspace dimensions of H^{alpha_i}; checks dim g_l = dim g^{-l}
    and the S-coordinate expression H^{alpha_i} = sum_j A_{ji} S^j."""
    _require_fundamental_adjoint(rs, i)
    h = rs.coroot_s_coords(rs.simple_roots[i - 1])
    expected = tuple(rs.cartan[j][i - 1] for j in range(rs.rank))
    if h != expected:
        raise AssertionError("coroot S-coordinates disagree with the Cartan column")
    dims = eigen_dims(rs, root_values(rs, h))
    e_dims = parabolic(rs, {i}).eigen_dims
    for ell, v in dims.items():
        if e_dims.get(-ell, 0) != v:
            raise AssertionError("dim g_l != dim g^{-l}")
    return dims


def weyl_flip(rs: RootSystem, i: int) -> tuple:
    """A word (j_1, .., j_m) of simple reflections with w(-alpha_i) = highest root.

    Applying r_{j_1} first.  The induced action maps the H^{alpha_i}-eigenvalue
    l root set onto the S^i-eigenvalue -l root set, which is verified.
    """
    _check_index_set(rs, {i})
    alpha_i = rs.simple_roots[i - 1]
    if rs.root_length(alpha_i) != rs.root_length(rs.highest_root):
        raise LengthMismatch(f"alpha_{i} and the highest root have different lengths")
    start = tuple(-c for c in alpha_i)
    target = rs.highest_root
    parent = rs.weyl_orbit([start])
    if target not in parent:
        raise LengthMismatch("no Weyl word found")  # unreachable for equal lengths
    word = []  # 0-based nodes, last reflection first
    node = target
    while parent[node] is not None:
        node, j = parent[node]
        word.append(j)
    word.reverse()

    def apply_word(alpha):
        for j in word:
            alpha = rs.simple_reflection(alpha, j)
        return alpha

    if apply_word(start) != target:
        raise AssertionError("Weyl word does not map -alpha_i to the highest root")
    # w(H^{alpha_i}) = H^{-highest} = -H^{highest}, so the H^{alpha_i}-grading
    # flips to the negated H^{highest}-grading; for fundamental adjoints
    # H^{highest} = S^i, turning this into the S^i-eigenvalue statement
    h = rs.coroot_s_coords(alpha_i)
    h_tilde = rs.coroot_s_coords(rs.highest_root)
    for beta, ell in zip(rs.positive_roots, root_values(rs, h)):
        for alpha, val in ((beta, ell), (tuple(-c for c in beta), -ell)):
            if evaluate(apply_word(alpha), h_tilde) != -val:
                raise AssertionError("flip does not negate the grading")
    return tuple(j + 1 for j in word)


# -- enhanced SL2 orbits ------------------------------------------------------


@dataclass(frozen=True)
class Sl2Descriptor:
    gamma_type: tuple  # LieType components of the centralizer subsystem
    dim_x: int
    horizontal: bool


def gamma_subsystem(rs: RootSystem, B) -> list:
    """Roots strongly orthogonal to every member of B."""
    B = [rs.check_root(b) for b in B]
    out = []
    # -beta is strongly orthogonal to b exactly when beta is
    for beta in rs.positive_roots:
        if all(strongly_orthogonal(rs, beta, b) for b in B):
            out += [beta, tuple(-c for c in beta)]
    return out


def _subsystem_types(rs: RootSystem, roots) -> tuple:
    """Lie types of the components of a closed subsystem, via its simple roots."""
    positives = [a for a in roots if sum(a) > 0]
    pos_set = set(positives)
    simple = []
    for a in positives:
        decomposable = any(
            tuple(x - y for x, y in zip(a, b)) in pos_set for b in positives if b != a
        )
        if not decomposable:
            simple.append(a)
    return cartan_type([[coroot_pairing(rs, a, b) for b in simple] for a in simple])


def enhanced_sl2_descriptor(rs: RootSystem, E, B) -> Sl2Descriptor:
    """Type of Gamma_B, dim X(sigma) = s + #{alpha in Gamma_B+ : alpha(E) != 0},
    and horizontality: -1 <= alpha(E) <= 1 on Gamma_B."""
    B = _require_valid(rs, E, B)
    gamma = gamma_subsystem(rs, B)
    types = _subsystem_types(rs, gamma)
    dim_x = len(B) + sum(
        1 for a in gamma if sum(a) > 0 and evaluate(a, E) != 0
    )
    horizontal = all(-1 <= evaluate(a, E) <= 1 for a in gamma)
    return Sl2Descriptor(types, dim_x, horizontal)


def restriction_pairing(rs: RootSystem, lam: Weight, beta):
    """lam(H^beta), exactly."""
    return coroot_pairing(rs, lam.root_coords, beta)


# -- boundary census ----------------------------------------------------------


@dataclass(frozen=True)
class CensusEntry:
    representative: tuple  # canonical B
    sizes: tuple  # distinct s realizing the diamond
    invariants: OrbitInvariants
    diamond: HodgeDeligneDiamond
    weyl_classes: int  # number of Levi-Weyl classes of realizing B


@cache
def boundary_census(rs: RootSystem, i: int) -> tuple[CensusEntry, ...]:
    """All boundary diamonds of the fundamental adjoint (rs, {i}).

    Enumerates every strongly orthogonal B in {beta : beta(S^i) = 1},
    labels each B with its Levi-Weyl class, computes the diamond of each
    class once, and returns one entry per diamond sorted by codimension.
    This is exact: a Levi reflection s_j (j != i) fixes E, and alpha ->
    s_j(alpha) keeps alpha(E) and alpha(H^b) = s_j(alpha)(H^{s_j b}), so it
    maps the roots counted in h^{p,q} of B onto those of s_j(B).
    """
    _require_fundamental_adjoint(rs, i)
    E = grading_element_for(rs, {i})
    sets = list(iter_sos(rs, E))
    labels = _levi_weyl_classes(rs, i, sets)
    by_diamond: dict = {}  # diamond -> first set of each class, in iter_sos order
    for k, B in enumerate(sets):
        if labels[k] == k:
            dia = _fast_diamond(rs, E, B)
            by_diamond.setdefault(dia, []).append(B)
    entries = []
    for dia, firsts in by_diamond.items():
        _check_diamond(rs, dia)
        inv = _invariants_from_diamond(rs, dia)
        entries.append(
            CensusEntry(
                representative=firsts[0],
                # conjugate sets have equal size, so the classes give every size
                sizes=tuple(sorted({len(b) for b in firsts})),
                invariants=inv,
                diamond=dia,
                weyl_classes=len(firsts),
            )
        )
    # a tuple: every caller shares the cached result
    return tuple(sorted(entries, key=lambda e: (e.invariants.codim, e.representative)))


def _fast_diamond(rs, E, B) -> HodgeDeligneDiamond:
    """Diamond from the ``root_values`` of E and of Y = sum_b H^b, one S-basis
    vector (for B empty, Y is the empty sum: rank zeros)."""
    Y = [sum(col) for col in zip((0,) * rs.rank, *map(rs.coroot_s_coords, B))]
    counts = {(0, 0): rs.rank}
    # few distinct (alpha(E), alpha(Y)) pairs: count them, then fold each in
    for (p, y), n in Counter(zip(root_values(rs, E), root_values(rs, Y))).items():
        counts[p, y - p] = counts.get((p, y - p), 0) + n
        counts[-p, p - y] = counts.get((-p, p - y), 0) + n
    return HodgeDeligneDiamond(tuple(sorted(counts.items())))


def _levi_weyl_classes(rs: RootSystem, i: int, sets) -> list[int]:
    """Label each B-set with its W(g^0)-orbit: the index in ``sets`` of the
    orbit's first member.  Sets are keyed by the bitmask of their roots.
    A Levi reflection s_j swaps the roots in pairs {b, s_j b} and fixes the
    rest, so its image of a mask flips the pairs the mask holds one root of."""
    bit = {b: 1 << k for k, b in enumerate({b for B in sets for b in B})}
    index = {sum(bit[b] for b in B): k for k, B in enumerate(sets)}
    flips = [{x: x ^ bit[rs.simple_reflection(b, j)] for b, x in bit.items()}
             for j in range(rs.rank) if j != i - 1]  # 0 where s_j fixes b
    swaps = [(sum(x for x, f in flip.items() if f), flip) for flip in flips]
    labels = [-1] * len(sets)
    for first in range(len(sets)):
        if labels[first] >= 0:
            continue
        labels[first] = first
        stack = [sum(bit[b] for b in sets[first])]
        while stack:
            m = stack.pop()
            for moved, flip in swaps:
                image, hit = m, m & moved
                while hit:  # each moved root flips its pair, so one held whole stays
                    low = hit & -hit
                    image ^= flip[low]
                    hit ^= low
                # a Levi reflection preserves both the E-value and strong
                # orthogonality, so the image is again in the collection
                if image != m and labels[k := index[image]] < 0:
                    labels[k] = first
                    stack.append(image)
    return labels
