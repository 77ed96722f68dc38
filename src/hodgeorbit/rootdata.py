"""Root systems of the simple complex Lie algebras, in exact integer arithmetic.

Roots are stored densely as integer coordinate vectors in the basis of simple
roots (Bourbaki numbering).  All pairings are computed from the Cartan matrix
``A[i][j] = alpha_i(H^{alpha_j})`` and the half-square-lengths ``d_j`` with
``(alpha_j, alpha_j) = 2 d_j``; the overall scale of ``d`` is irrelevant
because every exposed quantity is a ratio.  A family gives only its Dynkin
edges and d_j: ``(alpha_i, alpha_j) = -max(d_i, d_j)`` on an edge i - j, so
``A[i][j] = -max(d_i, d_j) / d_j`` there.  No dense matrix of the form is
kept: ``(x, alpha_j) = d_j <x, alpha_j^vee>``, so ``bilinear`` and coroots
go through the sparse Cartan columns below.

The Weyl group acts through one primitive on ``RootSystem``.  The Cartan
matrix is kept sparse, each column and each row as its nonzero entries (at
most four), so ``pairings(v)`` costs O(rank) and ``simple_reflection(v, j)``
O(1) when the pairing is 0, returning ``v`` itself.  There is one loop of
each kind.  ``_walk`` is the one breadth-first closure under simple
reflections, on coordinate tuples, integer roots and ``Fraction`` weights
alike: each vertex carries its nonzero pairings, updated along an edge s_j by
row j.  It gives ``weyl_orbit`` (Levi and weight orbits) and the roots, for
which it keeps only the s_j with a negative pairing: a non-simple positive
root beta has some <beta, alpha_j^vee> > 0, and s_j beta is a positive root of
lower height (Humphreys, *Introduction to Lie Algebras and Representation
Theory*, 10.2; Bourbaki VI.1.6).  ``climb`` is the one walk to the dominant
chamber, by s_j at the least negative pairing, and gives its word: it serves
Freudenthal's dominant conjugates, the dual weight and ``cayley.weyl_flip``.
No table of simple reflections as permutations of root indices is stored:
for the ``classical_census`` benchmark workload such tables would take
2.4 MB (tracemalloc), 7% of its peak.  The one stored transpose is
``positive_columns``, the positive roots' coordinates by column for
``grading.root_values``: 0.37 MB on B36 (``sys.getsizeof``).  It is the
one copy of the roots that anything pairs with all of them: a weight lam in
fundamental coordinates pairs as (lam, alpha) = alpha(h) with h_j = d_j lam_j,
and a coroot H^b as its S-coordinates ``coroot_s_coords``.  The columns' Gram
matrix also gives ``inverse_cartan`` without elimination.

W preserves length, so the walk gives each positive root the d_j of the
simple root it came from.  That map holds the positive roots only: a query
for -beta reads beta's entry, and the set ``roots`` is built on first use.

``cartan_type`` is the one classifier of Cartan matrices: it splits a
matrix into connected components and names each one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from operator import mul, neg

from .errors import IndexOutOfRange, InvalidRank, NotACartanMatrix, NotARoot, NotStronglyOrthogonal

Coords = tuple[int, ...]

#: family -> (min rank, max rank or None)
RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

#: classical count of positive roots, used as a construction cross-check
POSITIVE_ROOT_COUNTS = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "G": lambda r: 6,
    "F": lambda r: 24,
    "E": lambda r: {6: 36, 7: 63, 8: 120}[r],
}


@dataclass(frozen=True)
class LieType:
    """A simple Lie type: family letter plus rank."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in RANK_BOUNDS:
            raise InvalidRank(f"unknown family {self.family!r}")
        lo, hi = RANK_BOUNDS[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise InvalidRank(f"rank {self.rank} out of bounds for type {self.family}")

    @classmethod
    def parse(cls, text: str) -> "LieType":
        m = re.fullmatch(r"([A-Ga-g])\s*(\d+)", text.strip())
        if not m:
            raise InvalidRank(f"cannot parse Lie type {text!r}")
        return cls(m.group(1).upper(), int(m.group(2)))

    def __str__(self):
        return f"{self.family}{self.rank}"


def _cartan_data(lie_type: LieType) -> tuple[tuple[Coords, ...], tuple[int, ...]]:
    """Cartan matrix (rows = alpha_i, columns = coroots) and lengths d_j, from
    the Dynkin edges by A[i][j] = -max(d_i, d_j) / d_j on an edge i - j, so
    d_j A[i][j] = d_i A[j][i] by construction (Bourbaki VI, Plates I-IX)."""
    fam, r = lie_type.family, lie_type.rank
    edges = [(i, i + 1) for i in range(r - 1)]
    if fam == "D":
        edges[-1] = (r - 3, r - 1)
    elif fam == "E":
        # Bourbaki: branch node 2 hangs off node 4 of the chain 1-3-4-5-...
        edges = [(0, 2), (1, 3)] + edges[2:]
    d = {"B": [2] * (r - 1) + [1], "C": [1] * (r - 1) + [2],
         "F": [2, 2, 1, 1], "G": [1, 3]}.get(fam, [1] * r)
    A = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    for i, j in edges:
        form = -max(d[i], d[j])  # (alpha_i, alpha_j)
        A[i][j], A[j][i] = form // d[j], form // d[i]
    return tuple(map(tuple, A)), tuple(d)


def cartan_type(matrix) -> tuple[LieType, ...]:
    """Lie types of the connected components of a Cartan matrix, sorted by name.

    Each component is matched up to a relabelling of its nodes against the
    types of its rank in ABCDEFG order, so the coincidence B2 = C2 is
    reported as B2.  NotACartanMatrix for a non-square matrix or a component of no type.
    """
    if any(len(row) != len(matrix) for row in matrix):
        raise NotACartanMatrix(f"{matrix} is not a square matrix")
    unseen = set(range(len(matrix)))
    types = []
    while unseen:
        comp, stack = [], [min(unseen)]
        unseen.remove(stack[0])
        while stack:
            v = stack.pop()
            comp.append(v)
            near = {w for w in unseen if matrix[v][w] or matrix[w][v]}
            unseen -= near
            stack.extend(near)
        sub = [[matrix[a][b] for b in comp] for a in comp]
        for family in "ABCDEFG":
            try:
                cand = LieType(family, len(comp))
            except InvalidRank:
                continue
            if _cartan_isomorphic(sub, _cartan_data(cand)[0]):
                types.append(cand)
                break
        else:
            raise NotACartanMatrix(f"unclassifiable Cartan matrix {sub}")
    return tuple(sorted(types, key=str))


def _cartan_isomorphic(a, b) -> bool:
    n = len(a)

    def profile(m, i):
        return m[i][i], tuple(sorted(m[i][j] for j in range(n) if j != i))

    pa = [profile(a, i) for i in range(n)]
    pb = [profile(b, i) for i in range(n)]
    if sorted(pa) != sorted(pb):
        return False
    assignment = [None] * n

    def backtrack(i, used):
        if i == n:
            return True
        for j in range(n):
            if j in used or pa[i] != pb[j]:
                continue
            if any(
                assignment[k] is not None
                and (a[i][k] != b[j][assignment[k]] or a[k][i] != b[assignment[k]][j])
                for k in range(i)
            ):
                continue
            assignment[i] = j
            if backtrack(i + 1, used | {j}):
                return True
            assignment[i] = None
        return False

    return backtrack(0, set())


class RootSystem:
    """Immutable root system for one simple Lie type.

    The positive roots are walked up from the simple roots, the negative
    roots are their negations; membership tests and root lengths go through
    one dict keyed on the positive roots' coords, and ``roots``, with the
    negative roots as well, is built on first use.
    Safe for concurrent shared reads once constructed.
    """

    def __init__(self, lie_type: LieType):
        self.lie_type = lie_type
        self.rank = r = lie_type.rank
        self.cartan, self.lengths = _cartan_data(lie_type)
        # column j as its nonzero entries (i, A[i][j]): alpha_j, its neighbours
        self._columns = tuple(
            tuple((i, row[j]) for i, row in enumerate(self.cartan) if row[j])
            for j in range(r)
        )
        # row i as its nonzero entries (j, A[i][j]): the pairings of alpha_i
        self._rows = tuple(
            tuple((j, a) for j, a in enumerate(row) if a) for row in self.cartan
        )
        self.simple_roots = tuple(
            tuple(int(i == j) for i in range(r)) for j in range(r)
        )
        self._generate()

    # -- Weyl action ------------------------------------------------------

    def pairings(self, v) -> tuple:
        """<v, alpha_j^vee> for every j, for v in simple-root coordinates."""
        self.check_length(v)
        return tuple(sum(v[i] * a for i, a in col) for col in self._columns)

    def simple_reflection(self, v: tuple, j: int) -> tuple:
        """s_j(v) = v - <v, alpha_j^vee> alpha_j (0-based j); v itself when fixed."""
        pair = sum(v[i] * a for i, a in self._columns[j])
        return v[:j] + (v[j] - pair,) + v[j + 1:] if pair else v

    def weyl_orbit(self, starts, nodes=None) -> dict:
        """Orbit of the tuples ``starts`` under s_j for j in ``nodes``
        (0-based, default all), as the keys of a dict in breadth-first order,
        each mapped to None."""
        return self._walk(dict.fromkeys(starts), nodes, up=False)

    def _walk(self, tree: dict, nodes, up: bool) -> dict:
        """Breadth-first closure of the keys of ``tree`` under s_j for j in
        ``nodes`` (None: all), a new vertex taking its parent's value; with
        ``up`` only the s_j with a negative pairing are edges.  s_j(v) has
        the pairings of v minus p times row j; edges go in ascending j."""
        keep = range(self.rank) if nodes is None else set(nodes)
        rows = [[(k, a) for k, a in row if k in keep] for row in self._rows]
        frontier = [
            (v, {j: p for j, p in enumerate(self.pairings(v)) if p and j in keep}, x)
            for v, x in tree.items()
        ]
        while frontier:
            nxt = []
            for v, pair, x in frontier:
                for j in sorted(pair):
                    p = pair[j]
                    if p > 0 and up:
                        continue
                    w = v[:j] + (v[j] - p,) + v[j + 1:]
                    if w not in tree:
                        tree[w] = x
                        child = dict(pair)
                        for k, a in rows[j]:
                            child[k] = child.get(k, 0) - p * a
                        nxt.append((w, {k: c for k, c in child.items() if c}, x))
            frontier = nxt
        return tree

    def climb(self, fund) -> tuple[tuple, tuple[int, ...]]:
        """(dominant, word): the dominant W-conjugate of the integer pairings
        ``fund``, and the 0-based word, first letter first, that reaches it.

        While the least pairing c is negative, s_j at its lowest j subtracts
        c times row j of the Cartan matrix, the pairings of alpha_j.
        """
        self.check_length(fund)
        fund, word = tuple(fund), []
        while (c := min(fund)) < 0:
            j = fund.index(c)
            fund = tuple(x - c * a for x, a in zip(fund, self.cartan[j]))
            word.append(j)
        return fund, tuple(word)

    def _generate(self):
        # the walk up of the module docstring: s_j where the pairing p < 0
        # adds -p alpha_j.  W preserves length: a start alpha_j has d_j and a
        # child its parent's d
        r = self.rank
        tree = self._walk(dict(zip(self.simple_roots, self.lengths)), None, up=True)
        positives = sorted(tree, key=lambda beta: (sum(beta), beta))
        self._root_lengths = tree
        self.positive_roots = tuple(positives)
        want = POSITIVE_ROOT_COUNTS[self.lie_type.family](r)
        if len(positives) != want:
            raise AssertionError(f"{self.lie_type}: {len(positives)} positive roots, not {want}")
        self.highest_root = theta = positives[-1]
        if self.bilinear(theta, theta) != 2 * tree[theta]:
            raise AssertionError("root lengths do not match the form")
        self.dimension = r + 2 * len(positives)

    @cached_property
    def roots(self) -> frozenset:
        """Every root: the positive roots and their negations, on first use."""
        return frozenset(self.positive_roots).union(tuple(map(neg, b)) for b in self.positive_roots)

    @cached_property
    def positive_columns(self) -> tuple[tuple[int, ...], ...]:
        """Column j: the j-th coordinate of every positive root, in order."""
        return tuple(zip(*self.positive_roots))

    @cached_property
    def inverse_cartan(self) -> tuple[tuple[Fraction, ...], ...]:
        """Inverse Cartan matrix; row i is w_i in simple-root coordinates.

        W permutes the roots, so sum_alpha (lam, alpha)(alpha, mu) is W-invariant,
        hence c (lam, mu) as W acts irreducibly: sum_{alpha>0} (lam, alpha) alpha
        = c lam.  As (w_i, alpha) = d_i k_i, row i is d_i G[i] / c, with G the Gram
        matrix G[i][k] = sum_{alpha>0} k_i k_k of ``positive_columns``.  Checked:
        (D G) A = c I, c read off its corner (30 on E8, n + 1 on A_n).
        """
        cols = self.positive_columns
        dg = [[d * sum(map(mul, ci, ck)) for ck in cols] for d, ci in zip(self.lengths, cols)]
        c = self.pairings(dg[0])[0]
        if any(p != c * (i == j) for i, row in enumerate(dg)
               for j, p in enumerate(self.pairings(row))):
            raise AssertionError("D G A is not a multiple of the identity")
        return tuple(tuple(Fraction(x, c) for x in row) for row in dg)

    # -- basic queries ----------------------------------------------------

    def _positive(self, beta: tuple) -> tuple:
        """beta, or -beta unless beta has positive height: a root's key in ``_root_lengths``."""
        return beta if sum(beta) > 0 else tuple(map(neg, beta))

    def is_root(self, coords) -> bool:
        return self._positive(tuple(coords)) in self._root_lengths

    def check_root(self, coords) -> Coords:
        beta = tuple(coords)
        self.root_length(beta)
        return beta

    def check_length(self, v) -> None:
        """IndexOutOfRange unless ``v`` has one coordinate per simple root."""
        if len(v) != self.rank:
            raise IndexOutOfRange(f"{len(v)} coordinates, rank {self.rank}")

    def bilinear(self, x, y):
        """(x, y) = sum_j y_j d_j <x, alpha_j^vee> for vectors in simple-root
        coordinates (rationals allowed); each j with y_j = 0 is skipped."""
        self.check_length(x)
        self.check_length(y)
        return sum(
            yj * d * sum(x[i] * a for i, a in col)
            for yj, d, col in zip(y, self.lengths, self._columns)
            if yj
        )

    def root_length(self, alpha) -> int:
        """d_alpha with (alpha, alpha) = 2 d_alpha, as the walk recorded it."""
        beta = tuple(alpha)
        if (d := self._root_lengths.get(self._positive(beta))) is None:
            raise NotARoot(f"{beta} is not a root of {self.lie_type}")
        return d

    def coroot(self, alpha) -> Coords:
        """H^alpha as an integer vector in the basis H^{alpha_1}..H^{alpha_r}."""
        return _exact_coords(
            [a * d for a, d in zip(alpha, self.lengths)], self.root_length(alpha)
        )

    def coroot_s_coords(self, alpha) -> Coords:
        """H^alpha written in the dual basis S^1..S^r, i.e.
        alpha_k(H^alpha) = d_k <alpha, alpha_k^vee> / d_alpha."""
        d_a = self.root_length(alpha)
        return _exact_coords(
            [d * pair for d, pair in zip(self.lengths, self.pairings(alpha))], d_a
        )


def _exact_quotient(num: int, den: int, what: str) -> int:
    """num / den, which must be an integer; ``what`` names it in the AssertionError."""
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"{what} is not an integer")
    return q


def _exact_coords(nums, den) -> Coords:
    return tuple(_exact_quotient(x, den, "coroot coordinate") for x in nums)


@cache
def build_root_system(lie_type: LieType) -> RootSystem:
    """Construct (and cache) the root system for ``lie_type``."""
    return RootSystem(lie_type)


def root_system(text: str) -> RootSystem:
    """Convenience: ``root_system("G2")``."""
    return build_root_system(LieType.parse(text))


def coroot_pairing(rs: RootSystem, beta, alpha):
    """beta(H^alpha) = sum_k beta_k alpha_k(H^alpha), over ``coroot_s_coords``.

    ``beta`` may be any rational vector in simple-root coordinates;
    the result is an integer whenever beta is a root.
    """
    rs.check_length(beta)
    val = sum(map(mul, beta, rs.coroot_s_coords(alpha)))
    return int(val) if val.denominator == 1 else val


def reflect(rs: RootSystem, alpha, beta) -> Coords:
    """r_alpha(beta) = beta - beta(H^alpha) alpha."""
    alpha = rs.check_root(alpha)
    beta = rs.check_root(beta)
    pair = coroot_pairing(rs, beta, alpha)
    return tuple(beta[k] - pair * alpha[k] for k in range(rs.rank))


def strongly_orthogonal(rs: RootSystem, alpha, beta) -> bool:
    """Neither alpha+beta nor alpha-beta is a root, and (alpha, beta) = 0; the
    beta-string through alpha is then symmetric, so the sum decides for both."""
    alpha = rs.check_root(alpha)
    beta = rs.check_root(beta)
    return rs.bilinear(alpha, beta) == 0 and not rs.is_root(a + b for a, b in zip(alpha, beta))


def conjugate_root(rs: RootSystem, alpha, B) -> Coords:
    """Conjugation on roots induced by the Cayley transforms in B.

    For a strongly orthogonal list B = (beta_1, .., beta_s) the rule is
    conj(alpha) = -alpha + sum_i alpha(H^{beta_i}) beta_i.
    """
    alpha = rs.check_root(alpha)
    B = [rs.check_root(b) for b in B]
    for i in range(len(B)):
        for j in range(i + 1, len(B)):
            if not strongly_orthogonal(rs, B[i], B[j]):
                raise NotStronglyOrthogonal(f"{B[i]} and {B[j]} are not strongly orthogonal")
    out = [-c for c in alpha]
    for b in B:
        pair = coroot_pairing(rs, alpha, b)
        for k in range(rs.rank):
            out[k] += pair * b[k]
    return tuple(out)
