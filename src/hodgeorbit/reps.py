"""Weights, dimensions, weight multiplicities and embedding degrees.

Everything is exact, and the hot paths use integers only.  A weight with
fundamental-weight coordinates lam pairs with a positive root
alpha = sum_j k_j alpha_j as (lam, alpha) = sum_j k_j d_j lam_j, so the Weyl
dimension formula and the degree product are integer products with one exact
division at the end.  The Freudenthal recursion walks down from the highest
weight lam, keying each weight mu by its depth lam - mu, a non-negative
integer vector in simple-root coordinates; its output is checked against the
Weyl dimension formula on every call.  ``Fraction`` stays only where values
need not be integers: in the public ``Weight`` coordinates, above all
``root_coords`` (fundamental weights need not lie in the root lattice), which
``WeightMultiset`` uses as keys, and in grading-element values on them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub

from .errors import DimensionCapExceeded, NotDominant
from .grading import evaluate
from .rootdata import RootSystem

DEFAULT_DIM_CAP = 10**6
_DIM_CAP_ENV = "HODGEORBIT_DIM_CAP"


def dimension_cap() -> int:
    """``HODGEORBIT_DIM_CAP`` if set, else 10^6; ValueError unless a positive int."""
    value = os.environ.get(_DIM_CAP_ENV)
    if not value:
        return DEFAULT_DIM_CAP
    if not value.isdecimal() or int(value) < 1:
        raise ValueError(f"{_DIM_CAP_ENV} must be a positive integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Weight:
    """A weight in both the fundamental-weight and simple-root bases."""

    fund_coords: tuple
    root_coords: tuple

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.fund_coords)

    @property
    def is_integral(self) -> bool:
        return all(Fraction(c).denominator == 1 for c in self.fund_coords)


def inverse_cartan(rs: RootSystem):
    """Rows are the fundamental weights in simple-root coordinates."""
    return rs.inverse_cartan


def weight_from_fund(rs: RootSystem, fund) -> Weight:
    fund = tuple(Fraction(c) for c in fund)
    inv = inverse_cartan(rs)
    root = tuple(
        sum(fund[i] * inv[i][k] for i in range(rs.rank)) for k in range(rs.rank)
    )
    return Weight(fund, root)


def weight_from_root(rs: RootSystem, root) -> Weight:
    root = tuple(Fraction(c) for c in root)
    return Weight(rs.pairings(root), root)


def fundamental_weights(rs: RootSystem) -> list[Weight]:
    """The w_i, satisfying w_i(H^{alpha_j}) = delta_ij exactly."""
    out = []
    for i in range(rs.rank):
        w = weight_from_fund(rs, tuple(1 if j == i else 0 for j in range(rs.rank)))
        out.append(w)
    return out


def rho(rs: RootSystem) -> Weight:
    return weight_from_fund(rs, (1,) * rs.rank)


def dual_weight(rs: RootSystem, lam: Weight) -> Weight:
    """Highest weight of the dual representation: -w_0(lam)."""
    coords = tuple(-c for c in lam.root_coords)
    return weight_from_root(rs, _make_dominant(rs, coords))


def _make_dominant(rs: RootSystem, root_coords):
    """Dominant Weyl-chamber representative of a weight (root coordinates)."""
    cur = tuple(root_coords)
    while True:
        j = next((j for j, p in enumerate(rs.pairings(cur)) if p < 0), None)
        if j is None:
            return cur
        cur = rs.simple_reflection(cur, j)


def _check_dominant_integral(lam: Weight):
    if not (lam.is_dominant and lam.is_integral):
        raise NotDominant(f"{lam.fund_coords} is not dominant integral")


def _exact_quotient(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"{what} is not an integer")
    return q


def weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    """dim V_lam = prod_{alpha>0} (lam+rho, alpha) / (rho, alpha).

    Both pairings are integers: (lam+rho, alpha) = sum_j k_j d_j (lam_j + 1).
    """
    _check_dominant_integral(lam)
    shifted = [int(c) + 1 for c in lam.fund_coords]
    num = den = 1
    for kd in rs.scaled_positive_roots:
        num *= sum(map(mul, kd, shifted))
        den *= sum(kd)
    return _exact_quotient(num, den, "Weyl dimension")


def weights_with_E_value_one(rs: RootSystem, E) -> list[Weight]:
    """All dominant integral lam with lam(E) = 1, for E = sum_{i in I} S^i.

    Each returned lam also satisfies lam*(E) = 1, which is asserted.
    """
    fw = fundamental_weights(rs)
    values = [evaluate(w.root_coords, E) for w in fw]
    if any(v <= 0 for v in values):
        raise AssertionError("E must be a sum of S^i over a nonempty index set")
    found = []

    def search(idx, fund, total):
        if idx == rs.rank:
            if total == 1:
                found.append(weight_from_fund(rs, tuple(fund)))
            return
        c = 0
        while total + c * values[idx] <= 1:
            search(idx + 1, fund + [c], total + c * values[idx])
            c += 1

    search(0, [], Fraction(0))
    for lam in found:
        star = dual_weight(rs, lam)
        if evaluate(star.root_coords, E) != 1:
            raise AssertionError("dual weight fails lam*(E) = 1")
    found.sort(key=lambda w: w.fund_coords)
    return found


@dataclass(frozen=True)
class WeightMultiset:
    """All weights of an irreducible module, with multiplicities."""

    highest: Weight
    entries: dict  # root-coordinate tuple -> multiplicity

    @property
    def total(self) -> int:
        return sum(self.entries.values())


def freudenthal_multiplicities(rs: RootSystem, lam: Weight) -> WeightMultiset:
    """Weight multiplicities of V_lam by the Freudenthal recursion.

    Weights are discovered by walking down from ``lam`` one simple root at a
    time; a candidate is kept when the recursion gives positive multiplicity.
    The grand total is checked against ``weyl_dimension`` before returning.
    """
    _check_dominant_integral(lam)
    cap = dimension_cap()
    dim = weyl_dimension(rs, lam)
    if dim > cap:
        raise DimensionCapExceeded(f"dim {dim} exceeds cap {cap}")

    # mu = lam - sum_i n_i alpha_i is keyed by its depth n; all pairings are
    # integer dot products with mu's fundamental-weight coordinates
    r = rs.rank
    lam_f = [int(c) for c in lam.fund_coords]
    strings = [
        (alpha, kd, rs.bilinear(alpha, alpha))
        for alpha, kd in zip(rs.positive_roots, rs.scaled_positive_roots)
    ]
    top = (0,) * r
    mult = {top: 1}
    level = [top]
    while level:
        candidates = {n[:i] + (n[i] + 1,) + n[i + 1:] for n in level for i in range(r)}
        nxt = []
        # descending depth is ascending root coordinates of mu
        for n in sorted(candidates, reverse=True):
            mu_f = list(map(sub, lam_f, rs.pairings(n)))
            # (lam+rho)^2 - (mu+rho)^2 = (lam - mu, lam + mu + 2 rho)
            denom = sum(
                n_i * d * (l + m + 2)
                for n_i, d, l, m in zip(n, rs.lengths, lam_f, mu_f)
                if n_i
            )
            if denom == 0:
                continue
            acc = 0
            for alpha, kd, norm in strings:
                # walk the whole cone below lambda: candidates need not be
                # weights, so their strings may have gaps
                up, k = n, 0
                while True:
                    up = tuple(map(sub, up, alpha))
                    if min(up) < 0:
                        break
                    k += 1
                    m_up = mult.get(up)
                    if m_up:
                        # (mu + k alpha, alpha)
                        acc += m_up * (sum(map(mul, kd, mu_f)) + k * norm)
            if acc == 0:
                continue
            m_mu = _exact_quotient(2 * acc, denom, "Freudenthal multiplicity")
            if m_mu < 0:
                raise AssertionError("negative multiplicity")
            mult[n] = m_mu
            nxt.append(n)
        level = nxt
    lam_c = lam.root_coords
    ms = WeightMultiset(
        lam, {tuple(c - x for c, x in zip(lam_c, n)): m for n, m in mult.items()}
    )
    if ms.total != dim:
        raise AssertionError(
            f"multiplicities sum to {ms.total}, Weyl dimension is {dim}"
        )
    return ms


def rep_hodge_numbers(rs: RootSystem, lam: Weight, E) -> dict:
    """Dimensions of the E-eigenspaces of V_lam, keyed by eigenvalue."""
    ms = freudenthal_multiplicities(rs, lam)
    out: dict = {}
    for mu, m in ms.entries.items():
        q = evaluate(mu, E)
        q = int(q) if Fraction(q).denominator == 1 else q
        out[q] = out.get(q, 0) + m
    return out


def _degree_by_product(rs: RootSystem, mu: Weight) -> tuple[int, int]:
    """(n, d) with d = n! prod (mu, alpha) / (rho, alpha).

    The product runs over the n positive roots alpha with (mu, alpha) != 0.
    """
    mu_f = [int(c) for c in mu.fund_coords]
    n = 0
    num = den = 1
    for kd in rs.scaled_positive_roots:
        pair = sum(map(mul, kd, mu_f))
        if pair:
            n += 1
            num *= pair
            den *= sum(kd)
    return n, _exact_quotient(math.factorial(n) * num, den, "degree")


def _degree_by_hilbert_fit(rs: RootSystem, mu: Weight, n: int) -> int:
    """n-th finite difference of k -> dim V_{k mu}, i.e. n! * leading coeff."""
    values = []
    for k in range(n + 1):
        lam = weight_from_fund(rs, tuple(k * c for c in mu.fund_coords))
        values.append(weyl_dimension(rs, lam))
    for _ in range(n):
        values = [b - a for a, b in zip(values, values[1:])]
    return values[0]


def embedding_degree_for_weight(rs: RootSystem, mu: Weight):
    """(n, d) for the orbit of the highest weight line of V_mu in P(V_mu).

    The closed product formula and the Hilbert-polynomial fit are both
    evaluated; any disagreement is a hard error.
    """
    _check_dominant_integral(mu)
    n, d = _degree_by_product(rs, mu)
    d_fit = _degree_by_hilbert_fit(rs, mu, n)
    if d != d_fit:
        raise AssertionError(f"degree mismatch: product {d} vs Hilbert fit {d_fit}")
    return n, d


def embedding_degree(rs: RootSystem, I) -> tuple[int, int, int]:
    """(n, d, N) for the minimal embedding of G/P_I, mu = sum_{i in I} w_i."""
    fund = tuple(1 if j + 1 in set(I) else 0 for j in range(rs.rank))
    mu = weight_from_fund(rs, fund)
    n, d = embedding_degree_for_weight(rs, mu)
    N = weyl_dimension(rs, mu) - 1
    return n, d, N
