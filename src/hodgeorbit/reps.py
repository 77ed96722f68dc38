"""Weights, dimensions, weight multiplicities and embedding degrees.

Everything is exact, and the hot paths use integers only.  A weight with
fundamental-weight coordinates lam pairs with a positive root alpha as
(lam, alpha) = alpha(h) for h_j = d_j lam_j, so ``grading.root_values`` of
d o lam gives every pairing at once.  The Weyl dimension formula and the
degree product are products of two such rows with one exact division at the
end.  The Freudenthal recursion runs over the dominant weights below lam only
(Moody-Patera), found by subtracting positive roots.  It reads
m(mu + k alpha) at the dominant conjugate, reached by ``RootSystem.climb``
on fundamental coordinates, and ends each root string at its first zero,
since strings have no gaps.  Each dominant weight is then
expanded to its Weyl orbit, and the total is checked against the Weyl
dimension formula on every call.  ``Fraction`` stays only where values need
not be integers: in the public ``Weight`` coordinates, above all
``root_coords`` (fundamental weights need not lie in the root lattice), which
``WeightMultiset`` uses as keys, and in grading-element values on them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from .errors import DimensionCapExceeded, IndexOutOfRange, NotDominant
from .grading import evaluate, grading_element_for, root_values
from .rootdata import RootSystem, _exact_quotient

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
    """sum_i fund_i w_i, over the rows of ``inverse_cartan`` with fund_i != 0."""
    rs.check_length(fund)
    fund = tuple(Fraction(c) for c in fund)
    rows = [[c * x for x in row] for c, row in zip(fund, inverse_cartan(rs)) if c]
    root = tuple(map(sum, zip(*rows))) if rows else (Fraction(0),) * rs.rank
    return Weight(fund, root)


def weight_from_root(rs: RootSystem, root) -> Weight:
    """The weight with simple-root coordinates ``root``, any rational vector of
    length rank, not only a root; IndexOutOfRange for another length."""
    root = tuple(Fraction(c) for c in root)
    return Weight(rs.pairings(root), root)


def fundamental_weights(rs: RootSystem) -> list[Weight]:
    """The w_i, satisfying w_i(H^{alpha_j}) = delta_ij exactly."""
    return [weight_from_fund(rs, unit) for unit in rs.simple_roots]


def rho(rs: RootSystem) -> Weight:
    return weight_from_fund(rs, (1,) * rs.rank)


def dual_weight(rs: RootSystem, lam: Weight) -> Weight:
    """Highest weight of the dual representation: -w_0(lam), the dominant
    conjugate of -lam."""
    _check_dominant_integral(rs, lam)
    return weight_from_fund(rs, rs.climb([-int(c) for c in lam.fund_coords])[0])


def _check_dominant_integral(rs: RootSystem, lam: Weight):
    """IndexOutOfRange for a weight of another rank, else NotDominant unless dominant integral."""
    rs.check_length(lam.fund_coords)
    if not (lam.is_dominant and lam.is_integral):
        raise NotDominant(f"{lam.fund_coords} is not dominant integral")


def weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    """dim V_lam = prod_{alpha>0} (lam+rho, alpha) / (rho, alpha)."""
    _check_dominant_integral(rs, lam)
    return _weyl_dimension(rs, [int(c) for c in lam.fund_coords])


def _weyl_dimension(rs: RootSystem, fund) -> int:
    """``weyl_dimension`` on integer fundamental coordinates, from the
    ``root_values`` of d o (lam + rho) and of d o rho = d."""
    num = math.prod(root_values(rs, [d * (c + 1) for d, c in zip(rs.lengths, fund)]))
    return _exact_quotient(num, math.prod(root_values(rs, rs.lengths)), "Weyl dimension")


def weights_with_E_value_one(rs: RootSystem, E) -> list[Weight]:
    """All dominant integral lam with lam(E) = 1, for E = sum_{i in I} S^i.

    When -w_0 fixes E, as in every case of Lemma 3.5, each returned lam also
    has lam*(E) = 1; otherwise the dual may not (A2, E = S^1: 3 w_2 has
    value 1, its dual 3 w_1 value 2).
    IndexOutOfRange when some w_j(E) <= 0, as for E = 0.
    """
    fw = fundamental_weights(rs)
    values = [evaluate(w.root_coords, E) for w in fw]
    if any(v <= 0 for v in values):
        raise IndexOutOfRange("E must be a sum of S^i over a nonempty index set")
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

    The recursion runs over the dominant weights only, found by subtracting
    positive roots from ``lam``; each is then expanded to its Weyl orbit.
    The grand total is checked against ``weyl_dimension`` before returning.
    """
    _check_dominant_integral(rs, lam)
    cap = dimension_cap()
    dim = weyl_dimension(rs, lam)
    if dim > cap:
        raise DimensionCapExceeded(f"dim {dim} exceeds cap {cap}")

    # a weight is its integer fundamental coordinates mu_f; its depth
    # n = lam - mu is a non-negative integer vector in simple-root coordinates
    lam_f = tuple(int(c) for c in lam.fund_coords)
    strings = [(alpha, rs.pairings(alpha), 2 * rs.root_length(alpha))
               for alpha in rs.positive_roots]
    # every dominant weight below lam is reached through dominant weights by
    # subtracting positive roots (Stembridge 1998)
    depth = {lam_f: (0,) * rs.rank}
    dominant = [lam_f]
    for mu_f in dominant:
        for alpha, alpha_f, _ in strings:
            nu_f = tuple(map(sub, mu_f, alpha_f))
            if min(nu_f) >= 0 and nu_f not in depth:
                depth[nu_f] = tuple(map(add, depth[mu_f], alpha))
                dominant.append(nu_f)
    dominant.sort(key=lambda mu_f: sum(depth[mu_f]))
    mult = {lam_f: 1}
    for mu_f in dominant[1:]:
        # (lam+rho)^2 - (mu+rho)^2 = (lam - mu, lam + mu + 2 rho)
        denom = sum(n * d * (l + m + 2)
                    for n, d, l, m in zip(depth[mu_f], rs.lengths, lam_f, mu_f))
        acc = 0
        pairs = root_values(rs, [d * m for d, m in zip(rs.lengths, mu_f)])
        for (_, alpha_f, norm), pair in zip(strings, pairs):
            # m(mu + k alpha) is read at its dominant conjugate, which lies
            # higher, so it is already known; the string has no gaps
            # (Humphreys 21.3), so it ends at its first zero
            nu_f, k = mu_f, 0
            while True:
                nu_f = tuple(map(add, nu_f, alpha_f))
                m_nu = mult.get(rs.climb(nu_f)[0])
                if not m_nu:
                    break
                k += 1
                acc += m_nu * (pair + k * norm)  # (mu + k alpha, alpha)
        m_mu = _exact_quotient(2 * acc, denom, "Freudenthal multiplicity")
        if m_mu < 1:
            raise AssertionError(f"dominant weight {mu_f} has multiplicity {m_mu}")
        mult[mu_f] = m_mu
    # W acts linearly, so the orbits are taken on root coordinates scaled to
    # integers by the lcm D of lam's denominators
    D = math.lcm(*(c.denominator for c in lam.root_coords))
    lam_c = [c.numerator * (D // c.denominator) for c in lam.root_coords]
    scaled = {}
    for mu_f, m in mult.items():
        start = tuple(c - D * x for c, x in zip(lam_c, depth[mu_f]))
        scaled.update(dict.fromkeys(rs.weyl_orbit([start]), m))
    frac = {c: Fraction(c, D) for c in {c for mu in scaled for c in mu}}
    ms = WeightMultiset(lam, {tuple(map(frac.__getitem__, mu)): m for mu, m in scaled.items()})
    if ms.total != dim:
        raise AssertionError(f"multiplicities sum to {ms.total}, Weyl dimension is {dim}")
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
    pairs = root_values(rs, [d * int(c) for d, c in zip(rs.lengths, mu.fund_coords)])
    kept = [(pair, rho) for pair, rho in zip(pairs, root_values(rs, rs.lengths)) if pair]
    num = math.prod(pair for pair, _ in kept)
    den = math.prod(rho for _, rho in kept)
    n = len(kept)
    return n, _exact_quotient(math.factorial(n) * num, den, "degree")


def _degree_by_hilbert_fit(rs: RootSystem, mu: Weight, n: int) -> int:
    """n-th finite difference of k -> dim V_{k mu}, i.e. n! * leading coeff."""
    fund = [int(c) for c in mu.fund_coords]
    values = [_weyl_dimension(rs, [k * c for c in fund]) for k in range(n + 1)]
    for _ in range(n):
        values = [b - a for a, b in zip(values, values[1:])]
    return values[0]


def embedding_degree_for_weight(rs: RootSystem, mu: Weight):
    """(n, d) for the orbit of the highest weight line of V_mu in P(V_mu).

    The closed product formula and the Hilbert-polynomial fit are both
    evaluated; any disagreement is a hard error.
    """
    _check_dominant_integral(rs, mu)
    n, d = _degree_by_product(rs, mu)
    d_fit = _degree_by_hilbert_fit(rs, mu, n)
    if d != d_fit:
        raise AssertionError(f"degree mismatch: product {d} vs Hilbert fit {d_fit}")
    return n, d


def embedding_degree(rs: RootSystem, I) -> tuple[int, int, int]:
    """(n, d, N) for the minimal embedding of G/P_I, mu = sum_{i in I} w_i."""
    # E = sum_{i in I} S^i has mu's fundamental coordinates
    mu = weight_from_fund(rs, grading_element_for(rs, I))
    n, d = embedding_degree_for_weight(rs, mu)
    N = weyl_dimension(rs, mu) - 1
    return n, d, N
