"""Root systems of the simple complex Lie algebras, in exact integer arithmetic.

Roots are stored densely as integer coordinate vectors in the basis of simple
roots (Bourbaki numbering).  All pairings are computed from the Cartan matrix
``A[i][j] = alpha_i(H^{alpha_j})`` and the half-square-lengths ``d_j`` with
``(alpha_j, alpha_j) = 2 d_j``; the overall scale of ``d`` is irrelevant
because every exposed quantity is a ratio.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import InvalidRank, NotARoot, NotStronglyOrthogonal

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
    """Cartan matrix (rows = alpha_i, columns = coroots) and lengths d_j."""
    fam, r = lie_type.family, lie_type.rank
    A = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def bond(i, j, aij=-1, aji=-1):
        A[i][j] = aij
        A[j][i] = aji

    if fam in "ABC":
        for i in range(r - 2):
            bond(i, i + 1)
        if r >= 2:
            if fam == "A":
                bond(r - 2, r - 1)
            elif fam == "B":
                bond(r - 2, r - 1, -2, -1)  # alpha_r short
            else:
                bond(r - 2, r - 1, -1, -2)  # alpha_r long
        d = {"A": [1] * r, "B": [2] * (r - 1) + [1], "C": [1] * (r - 1) + [2]}[fam]
    elif fam == "D":
        for i in range(r - 3):
            bond(i, i + 1)
        bond(r - 3, r - 2)
        bond(r - 3, r - 1)
        d = [1] * r
    elif fam == "E":
        # Bourbaki: branch node 2 hangs off node 4 of the chain 1-3-4-5-...
        chain = [1, 3, 4, 5, 6, 7, 8][: r - 1]
        for a, b in zip(chain, chain[1:]):
            bond(a - 1, b - 1)
        bond(2 - 1, 4 - 1)
        d = [1] * r
    elif fam == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)  # alpha_1, alpha_2 long
        bond(2, 3)
        d = [2, 2, 1, 1]
    else:  # G2
        bond(0, 1, -1, -3)  # alpha_1 short, alpha_2 long
        d = [1, 3]

    cartan = tuple(tuple(row) for row in A)
    for i in range(r):
        for j in range(r):
            if d[j] * A[i][j] != d[i] * A[j][i]:
                raise AssertionError("length data inconsistent with Cartan matrix")
    return cartan, tuple(d)


class RootSystem:
    """Immutable root system for one simple Lie type.

    Roots are generated from the simple roots by closing under all simple
    reflections; membership tests go through a hash set keyed on coords.
    Safe for concurrent shared reads once constructed.
    """

    def __init__(self, lie_type: LieType):
        self.lie_type = lie_type
        self.rank = lie_type.rank
        self.cartan, self.lengths = _cartan_data(lie_type)
        # symmetric bilinear form on the root lattice: (alpha_i, alpha_j)
        self.sym = tuple(
            tuple(self.lengths[j] * self.cartan[i][j] for j in range(self.rank))
            for i in range(self.rank)
        )
        self._generate()

    def _generate(self):
        r = self.rank
        simples = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
        roots = set(simples)
        frontier = list(simples)
        while frontier:
            nxt = []
            for beta in frontier:
                for j in range(r):
                    pair = sum(beta[i] * self.cartan[i][j] for i in range(r))
                    img = tuple(
                        beta[k] - pair * (1 if k == j else 0) for k in range(r)
                    )
                    if img not in roots:
                        roots.add(img)
                        nxt.append(img)
            frontier = nxt
        roots |= {tuple(-c for c in beta) for beta in roots}
        for beta in roots:
            if not (all(c >= 0 for c in beta) or all(c <= 0 for c in beta)):
                raise AssertionError(f"mixed-sign root generated: {beta}")
        self.roots = frozenset(roots)
        positives = [beta for beta in roots if sum(beta) > 0]
        positives.sort(key=lambda beta: (sum(beta), beta))
        self.positive_roots = tuple(positives)
        expected = POSITIVE_ROOT_COUNTS[self.lie_type.family](r)
        if len(positives) != expected:
            raise AssertionError(
                f"{self.lie_type}: got {len(positives)} positive roots, expected {expected}"
            )
        self.highest_root = positives[-1]
        for j in range(r):
            cand = tuple(
                self.highest_root[k] + (1 if k == j else 0) for k in range(r)
            )
            if cand in self.roots:
                raise AssertionError("highest root is not highest")
        self.dimension = r + 2 * len(positives)

    @cached_property
    def scaled_positive_roots(self) -> tuple[Coords, ...]:
        """Positive roots alpha = sum_j k_j alpha_j, scaled to (k_j d_j)_j.

        For lam in fundamental-weight coordinates, (lam, alpha) = sum_j k_j d_j lam_j.
        """
        return tuple(
            tuple(k * d for k, d in zip(beta, self.lengths))
            for beta in self.positive_roots
        )

    @cached_property
    def inverse_cartan(self) -> tuple[tuple[Fraction, ...], ...]:
        """Inverse Cartan matrix; row i is w_i in simple-root coordinates."""
        n = self.rank
        aug = [
            [Fraction(self.cartan[i][j]) for j in range(n)]
            + [Fraction(1 if j == i else 0) for j in range(n)]
            for i in range(n)
        ]
        for col in range(n):
            piv = next(r for r in range(col, n) if aug[r][col] != 0)
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = 1 / aug[col][col]
            aug[col] = [x * inv for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return tuple(tuple(row[n:]) for row in aug)

    # -- basic queries ----------------------------------------------------

    def is_root(self, coords) -> bool:
        return tuple(coords) in self.roots

    def check_root(self, coords) -> Coords:
        beta = tuple(coords)
        if beta not in self.roots:
            raise NotARoot(f"{beta} is not a root of {self.lie_type}")
        return beta

    def height(self, beta) -> int:
        return sum(beta)

    def bilinear(self, x, y):
        """(x, y) for vectors in simple-root coordinates (rationals allowed)."""
        return sum(
            x[i] * self.sym[i][j] * y[j]
            for i in range(self.rank)
            for j in range(self.rank)
            if x[i] and y[j]
        )

    def root_length(self, alpha) -> int:
        """d_alpha with (alpha, alpha) = 2 d_alpha; an integer for roots."""
        alpha = self.check_root(alpha)
        two_d = self.bilinear(alpha, alpha)
        if two_d % 2:
            raise AssertionError("odd root norm")
        return two_d // 2

    def is_long(self, alpha) -> bool:
        return self.root_length(alpha) == max(self.lengths)

    def coroot(self, alpha) -> Coords:
        """H^alpha as an integer vector in the basis H^{alpha_1}..H^{alpha_r}."""
        alpha = self.check_root(alpha)
        d_a = self.root_length(alpha)
        out = []
        for j in range(self.rank):
            num = alpha[j] * self.lengths[j]
            if num % d_a:
                raise AssertionError("coroot not integral")
            out.append(num // d_a)
        return tuple(out)

    def coroot_s_coords(self, alpha) -> Coords:
        """H^alpha written in the dual basis S^1..S^r (i.e. alpha_k(H^alpha))."""
        h = self.coroot(alpha)
        return tuple(
            sum(self.cartan[k][j] * h[j] for j in range(self.rank))
            for k in range(self.rank)
        )


@lru_cache(maxsize=None)
def build_root_system(lie_type: LieType) -> RootSystem:
    """Construct (and cache) the root system for ``lie_type``."""
    return RootSystem(lie_type)


def root_system(text: str) -> RootSystem:
    """Convenience: ``root_system("G2")``."""
    return build_root_system(LieType.parse(text))


def coroot_pairing(rs: RootSystem, beta, alpha):
    """beta(H^alpha) = 2 (beta, alpha) / (alpha, alpha).

    ``beta`` may be any rational vector in simple-root coordinates;
    the result is an integer whenever beta is a root.
    """
    alpha = rs.check_root(alpha)
    val = Fraction(2 * rs.bilinear(beta, alpha), rs.bilinear(alpha, alpha))
    if val.denominator == 1:
        val = int(val)
    if rs.is_root(beta) and not isinstance(val, int):
        raise AssertionError("coroot pairing of two roots must be integral")
    return val


def reflect(rs: RootSystem, alpha, beta) -> Coords:
    """r_alpha(beta) = beta - beta(H^alpha) alpha."""
    alpha = rs.check_root(alpha)
    beta = rs.check_root(beta)
    pair = coroot_pairing(rs, beta, alpha)
    image = tuple(beta[k] - pair * alpha[k] for k in range(rs.rank))
    return rs.check_root(image)


def strongly_orthogonal(rs: RootSystem, alpha, beta) -> bool:
    """Neither alpha+beta nor alpha-beta is a root, and (alpha, beta) = 0."""
    alpha = rs.check_root(alpha)
    beta = rs.check_root(beta)
    s = tuple(a + b for a, b in zip(alpha, beta))
    d = tuple(a - b for a, b in zip(alpha, beta))
    return not rs.is_root(s) and not rs.is_root(d) and rs.bilinear(alpha, beta) == 0


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
    return rs.check_root(out)
