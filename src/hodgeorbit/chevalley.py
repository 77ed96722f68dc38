"""Exact integral Chevalley-basis engine.

Structure constants are fixed by the extraspecial-pair convention: positive
roots are totally ordered by (height, coords); for each non-simple gamma the
extraspecial pair is the decomposition gamma = eps + eta with minimal eps, and
N_{eps,eta} = +(p+1) with p the length of the eps-string below eta.  All other
constants follow from the Jacobi identity and the cyclic relation

    N_{a,b} / (c,c) = N_{b,c} / (a,a) = N_{c,a} / (b,b)   (a + b + c = 0).

Any consistent sign convention would do; every property asserted downstream
is convention-invariant.

The table is built in one walk over the positive roots in that order: at
gamma the extraspecial constant is set, then the other decompositions are
solved from constants of lower height.  Each N_{x,y} is recorded once, with
N_{y,x}, N_{-x,-y} and the mixed-sign constants of the cyclic relation.

Elements of g are sparse dicts over the basis (H^{alpha_1}, .., H^{alpha_r},
x^alpha in root order, positives first, then their negatives in the same
order), keyed by basis index 0..dim-1.  The bracket table ``ad`` is the one
store of structure constants: one list row of length dim per basis index,
``ad[i][j]`` = ((k, c), ...) with [e_i, e_j] = sum c e_k, or () when the
bracket is zero; equal entries are one shared tuple.  The walk reads the
constants it has recorded back from it.
Basis elements and brackets of them carry integer scalars.  The rational form
and the Cayley standard triples it hands out carry Gaussian-rational scalars,
so the compact real form stays exact; both are checked in integers first.

Each member h^j, u^beta, v^beta of the rational form is built once as
(block, e, w): i^e w in k (block 0) or k^perp (1), with e in {0, 1} and w an
integer vector.  A bracket of two members is i^(ea+eb) [wa, wb] and a Killing
value i^(ea+eb) B(wa, wb), so the check needs no Gaussian arithmetic.  On
+-beta the member of phase e is i^e (x^beta + s x^-beta) with a fixed sign s,
so closure is the test w[x^-beta] = s w[x^beta] on the nonzero entries of a
bracket, and integrality holds by itself.  The Killing form is checked on the
blocks the construction gives, the Cartan members and each (u^beta, v^beta),
and then the members are converted to Gaussian rationals, once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .errors import CompactRoot, IndexOutOfRange, NotDegreeOne
from .grading import _check_index_set, _check_integral_grading, _require_fundamental_adjoint
from .grading import evaluate, root_values
from .rootdata import LieType, RootSystem, _exact_quotient, build_root_system

# -- Gaussian rationals -------------------------------------------------------


@dataclass(frozen=True)
class GaussianRational:
    """x + i y with exact rational x, y."""

    re: Fraction
    im: Fraction

    @classmethod
    def of(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return cls(Fraction(value), Fraction(0))

    def __add__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        # a real value equals its int or Fraction, so it must hash like one
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self):
        return f"({self.re}+{self.im}i)"


# -- structure constants ------------------------------------------------------


class StructureConstants:
    """Integral Chevalley-basis bracket data for one root system."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        positive = rs.positive_roots
        r, npos = rs.rank, len(positive)
        self._norm = {b: 2 * rs.root_length(b) for b in positive}
        negative = [tuple(-c for c in b) for b in positive]
        self._neg = neg = dict(zip(positive, negative)) | dict(zip(negative, positive))
        self.basis_roots = list(positive) + negative
        self.root_index = {b: r + k for k, b in enumerate(self.basis_roots)}
        self.dim = r + 2 * npos
        self._basis = frozenset(range(self.dim))
        # row j: a(H^{alpha_j}) for every positive root a
        values = [root_values(rs, rs.coroot_s_coords(a)) for a in rs.simple_roots]
        ad = self.ad = [[()] * self.dim for _ in range(self.dim)]
        entry = cache(lambda *terms: terms)  # equal entries as one tuple: E8 has 752 distinct
        for k, a in enumerate(positive):
            ia, ineg = r + k, r + npos + k
            # [H^{alpha_j}, x^{+-a}] = +-a(H^{alpha_j}) x^{+-a}
            for j, row in enumerate(values):
                if pair := row[k]:
                    ad[j][ia], ad[ia][j] = entry((ia, pair)), entry((ia, -pair))
                    ad[j][ineg], ad[ineg][j] = entry((ineg, -pair)), entry((ineg, pair))
            # [x^a, x^{-a}] = H^a = -[x^{-a}, x^a]
            coroot = [(j, c) for j, c in enumerate(rs.coroot(a)) if c]
            ad[ia][ineg], ad[ineg][ia] = entry(*coroot), entry(*((j, -c) for j, c in coroot))
        self._build_table(entry)
        # Killing form closed-form data: B(H^i, H^j) = sum_g g(H^i) g(H^j),
        # twice the sum over the positive roots
        self.killing_h = tuple(
            tuple(2 * sum(a * b for a, b in zip(vi, vj)) for vj in values) for vi in values
        )

    def _string_length(self, a, b) -> int:
        """|N_{a,b}| = p + 1 with p the length of the a-string below b."""
        n, cur = 1, tuple(x - y for x, y in zip(b, a))
        while cur in self.root_index:
            n, cur = n + 1, tuple(x - y for x, y in zip(cur, a))
        return n

    def _build_table(self, entry):
        """One walk over the positive roots gamma in (height, coords) order.
        The decompositions gamma = a + b (a before b) come in ascending a, so
        the first is extraspecial and is kept in ``extraspecial``; the others
        follow from the Jacobi identity on x^a, x^b, x^{-eps} through
        constants of lower height, read back from ``ad``; ``entry`` shares them."""
        neg, index, ad = self._neg, self.root_index, self.ad
        positive = self.rs.positive_roots
        pos = {b: k for k, b in enumerate(positive)}
        self.extraspecial = {}

        def n(a, b):
            """N_{a,b} as recorded so far; 0 when a, b or a + b is not a root
            (never asked for b = -a, whose entry is H^a)."""
            terms = ad[index[a]][index[b]] if a in index and b in index else ()
            return terms[0][1] if terms else 0

        for gamma in positive:
            height = sum(gamma)
            pairs = []
            for a in positive:
                if 2 * sum(a) > height:
                    break
                b = tuple(x - y for x, y in zip(gamma, a))
                if b in pos and pos[a] < pos[b]:
                    pairs.append((a, b))
            if not pairs:
                continue  # gamma is simple
            eps, eta = self.extraspecial[gamma] = pairs[0]
            self._record(eps, eta, gamma, self._string_length(eps, eta), entry)
            n_gamma_meps = n(gamma, neg[eps])
            for a, b in pairs[1:]:
                a_eps = tuple(x - y for x, y in zip(a, eps))
                b_eps = tuple(x - y for x, y in zip(b, eps))
                term = n(a, neg[eps]) * n(a_eps, b) + n(b, neg[eps]) * n(a, b_eps)
                val = _exact_quotient(term, n_gamma_meps, "structure constant")
                if abs(val) != (expected := self._string_length(a, b)):
                    raise AssertionError(
                        f"|N| = {abs(val)} != string length {expected} at {a}+{b}"
                    )
                self._record(a, b, gamma, val, entry)

    def _record(self, x, y, s, n, entry):
        """N_{x,y} = n for positive x + y = s, written into ``ad`` with its
        sign partners: for (x, y, n) and (y, x, -n), N_{-x,-y} = -n and, by
        the cyclic relation, N_{s,-x} = N_{x,-s} = -(y,y) n / (s,s) with
        N_{-x,s} = N_{-s,x} their negatives."""
        neg, norm, index, ad = self._neg, self._norm, self.root_index, self.ad
        for x, y, n in ((x, y, n), (y, x, -n)):
            v = _exact_quotient(-norm[y] * n, norm[s], "structure constant")
            nx, ny, ns = neg[x], neg[y], neg[s]
            for a, b, c, total in (
                (x, y, n, s), (nx, ny, -n, ns),
                (s, nx, v, y), (nx, s, -v, y), (ns, x, -v, ny), (x, ns, v, ny),
            ):
                ad[index[a]][index[b]] = entry((index[total], c))

    # -- element algebra ----------------------------------------------------

    def x(self, alpha) -> dict:
        alpha = self.rs.check_root(alpha)
        return {self.root_index[alpha]: 1}

    def h(self, j: int) -> dict:
        """H^{alpha_j} (1-based j)."""
        _check_index_set(self.rs, {j})
        return {j - 1: 1}

    def coroot_element(self, alpha) -> dict:
        return {j: c for j, c in enumerate(self.rs.coroot(alpha)) if c}

    def _check_basis_indices(self, *keys):
        """IndexOutOfRange unless each index in ``keys`` is in 0..dim-1."""
        for k in keys:
            if not self._basis.issuperset(k):
                bad = set(k) - self._basis
                raise IndexOutOfRange(f"basis index {bad} outside 0..{self.dim - 1}")

    def bracket(self, u: dict, v: dict) -> dict:
        self._check_basis_indices(u, v)
        return self._bracket(u, v)

    def _bracket(self, u: dict, v: dict) -> dict:
        """``bracket`` on vectors built here, whose indices are in range."""
        out: dict = {}
        ad = self.ad
        for i, ci in u.items():
            row = ad[i]
            for j, cj in v.items():
                if entry := row[j]:
                    c = ci * cj
                    for k, coeff in entry:
                        cur = out.get(k, 0) + c * coeff
                        if cur:
                            out[k] = cur
                        elif k in out:
                            del out[k]
        return out

    def basis_bracket(self, i: int, j: int):
        self._check_basis_indices((i, j))
        return self.ad[i][j]

    def killing(self, u: dict, v: dict):
        """B(u, v) = tr(ad u ad v), via the closed form on the basis."""
        self._check_basis_indices(u, v)
        total = 0
        for i, ci in u.items():
            for j, cj in v.items():
                if b := ci and cj and self._killing_basis(i, j):
                    total = total + ci * cj * b
        return total

    def _killing_basis(self, i: int, j: int) -> int:
        """B(e_i, e_j) on basis indices: B(H^i, H^j) from ``killing_h``,
        B(x^a, x^-a) = B(H^a, H^a) / 2, and 0 on every other pair."""
        r, npos = self.rs.rank, len(self.rs.positive_roots)
        if i < r and j < r:
            return self.killing_h[i][j]
        if i >= r and j >= r and abs(i - j) == npos:
            return self._coroot_norms[(i - r) % npos]
        return 0

    @cached_property
    def _coroot_norms(self) -> tuple:
        """B(H^a, H^a) / 2 = sum_{g > 0} g(H^a)^2 per positive a, on first use."""
        rs = self.rs
        values = (root_values(rs, rs.coroot_s_coords(a)) for a in rs.positive_roots)
        return tuple(sum(g * g for g in row) for row in values)


@cache
def structure_constants(rs: RootSystem) -> StructureConstants:
    """The cached bracket data of ``rs``.  Its table ``ad`` has dim^2 slots,
    equal entries one tuple: under tracemalloc E8 peaks at 0.96 MB, D16 at
    2.91 MB and B24 at 13.5 MB (a tuple per slot: 2.47, 5.88 and 24.4 MB)."""
    return StructureConstants(rs)


def adjoint_matrix(sc: StructureConstants, element: dict) -> list:
    """Matrix of ad(element) on the Chevalley basis (columns = basis images)."""
    cols = [sc.bracket(element, {j: 1}) for j in range(sc.dim)]
    return [[col.get(i, 0) for col in cols] for i in range(sc.dim)]


def jacobi_residual(sc: StructureConstants, i: int, j: int, k: int) -> dict:
    """[x_i,[x_j,x_k]] + [x_j,[x_k,x_i]] + [x_k,[x_i,x_j]] on basis indices
    i, j, k, which must be in ``range(sc.dim)``.  They are not checked: this
    is the 500k-call loop of the ``chevalley_forms`` workload.  A negative
    index wraps to the end of a row; an index >= dim raises IndexError."""
    ad = sc.ad
    ad_i, ad_j, ad_k = ad[i], ad[j], ad[k]
    out: dict = {}
    if e := ad_j[k]:  # most basis pairs bracket to zero: () is the cheap miss
        for m, n in e:
            for t, nt in ad_i[m]:
                out[t] = out.get(t, 0) + n * nt
    if e := ad_k[i]:
        for m, n in e:
            for t, nt in ad_j[m]:
                out[t] = out.get(t, 0) + n * nt
    if e := ad_i[j]:
        for m, n in e:
            for t, nt in ad_k[m]:
                out[t] = out.get(t, 0) + n * nt
    return {t: v for t, v in out.items() if v} if out else out


# -- the rational/integral form ----------------------------------------------


@dataclass(frozen=True)
class RationalFormBasis:
    """Integral basis h^j = i H^{alpha_j}, u^alpha, v^alpha of g_Z."""

    grading_element: tuple
    h: tuple  # r vectors
    u: dict  # positive root -> vector
    v: dict  # positive root -> vector
    parity: dict  # positive root -> 0 (compact) or 1 (noncompact)
    compact_dim: int
    noncompact_dim: int


def _members(sc: StructureConstants, parity: dict) -> list:
    """(block, e, w) for i^e w: h^j = i H^{alpha_j}, then i^p (x^beta - x^-beta)
    and i^(1-p) (x^beta + x^-beta) for each beta of ``parity`` p."""
    members = [(0, 1, {j: 1}) for j in range(sc.rs.rank)]
    for beta, p in parity.items():
        ib, ineg = sc.root_index[beta], sc.root_index[sc._neg[beta]]
        members += [(p, p, {ib: 1, ineg: -1}), (p, 1 - p, {ib: 1, ineg: 1})]
    return members


def rational_form(sc: StructureConstants, T) -> RationalFormBasis:
    """The integral form g_Z = k_Z + k_Z^perp attached to the grading T.

    Closure and integrality of all basis brackets, the Cartan-decomposition
    block structure, the sign of theta on each block (hence theta^2 = 1) and
    the Killing-form signature are verified by explicit computation.
    """
    _check_integral_grading(T)
    rs = sc.rs
    parity = {beta: t % 2 for beta, t in zip(rs.positive_roots, root_values(rs, T))}
    members = _members(sc, parity)
    _verify_rational_form(sc, T, parity, members)
    vecs = [{k: GaussianRational(Fraction(0), Fraction(c)) if e else GaussianRational.of(c)
             for k, c in w.items()} for _, e, w in members]
    r, odd = rs.rank, sum(parity.values())
    return RationalFormBasis(tuple(T), tuple(vecs[:r]), dict(zip(parity, vecs[r::2])),
                             dict(zip(parity, vecs[r + 1::2])), parity,
                             r + 2 * (len(parity) - odd), 2 * odd)


def _check_block(sc: StructureConstants, parity: dict, e: int, w: dict, block: int):
    """AssertionError unless i^e w, for an int dict w, lies in g_Z and in
    ``block`` (0 = k, 1 = k^perp).

    h^k = i H^{alpha_k}, so a Cartan entry needs an odd e.  On +-beta the
    member of phase e is i^e (x^beta + s x^-beta), with s = +1 exactly when
    e + parity(beta) is odd, and the other member has phase 1 - e.  So i^e w
    is in g_Z when w[x^-beta] = s w[x^beta], with the integer coordinate
    w[x^beta].  Only the entries of w are visited."""
    r, npos, roots = sc.rs.rank, len(parity), sc.basis_roots
    for k in w:
        if k < r:
            p, closed = 0, e == 1
        else:
            m = (k - r) % npos
            p = parity[roots[m]]
            closed = w.get(r + npos + m, 0) == (1 if (e + p) % 2 else -1) * w.get(r + m, 0)
        if not closed:
            raise AssertionError("g_Z is not closed under the bracket")
        if p != block:
            raise AssertionError("Cartan decomposition blocks violated")


def theta(sc: StructureConstants, T, vec: dict) -> dict:
    """Cartan involution: +1 on k, -1 on k^perp; on root vectors
    theta(x^alpha) = (-1)^{alpha(T)} x^alpha."""
    _check_integral_grading(T)
    sc.rs.check_length(T)
    sc._check_basis_indices(vec)
    r = sc.rs.rank
    return {k: -c if k >= r and evaluate(sc.basis_roots[k - r], T) % 2 else c
            for k, c in vec.items()}


def _verify_rational_form(sc: StructureConstants, T, parity: dict, members: list):
    """AssertionError unless ``members``, in the layout of ``_members``, pass
    every check that ``rational_form`` lists."""
    # [i^ea wa, i^eb wb] = i^(ea+eb) [wa, wb], up to a sign that g_Z ignores
    for pa, ea, wa in members:
        for pb, eb, wb in members:
            _check_block(sc, parity, (ea + eb) % 2, sc._bracket(wa, wb), (pa + pb) % 2)
    # theta is linear, so it is checked on w: +w on k, -w on k^perp.  That
    # gives theta^2 = 1, since theta(-w) = -theta(w)
    for p, _, w in members:
        if theta(sc, T, w) != (w if p == 0 else {k: -c for k, c in w.items()}):
            raise AssertionError("theta has the wrong sign on a block")
    # Killing form: B(H, x^a) = 0 and B(x^a, x^b) = 0 unless b = -a, so the
    # gram of each of k and k^perp is block diagonal, its blocks the Cartan
    # members and the pair (u^beta, v^beta) of each beta
    r = sc.rs.rank
    for group in [members[:r]] + [members[k:k + 2] for k in range(r, len(members), 2)]:
        sign = 1 if group[0][0] else -1
        if not _definite(_killing_gram(sc, [(e, w) for _, e, w in group]), sign):
            raise AssertionError("Killing form has the wrong signature")


def _killing_gram(sc: StructureConstants, members) -> list:
    """The Gram matrix of B on ``members``, each a pair (e, w) for i^e w, in
    integers: B(i^ea wa, i^eb wb) = i^(ea+eb) B(wa, wb)."""
    gram = []
    for ea, wa in members:
        row = []
        for eb, wb in members:
            value = sc.killing(wa, wb)
            if value and (ea + eb) % 2:
                raise AssertionError("Killing value should be real")
            row.append(-value if ea + eb == 2 else value)
        gram.append(row)
    return gram


def _definite(gram, sign) -> bool:
    """Is sign * gram (integer, symmetric) positive definite?  Exactly when
    every pivot of one fraction-free (Bareiss) pass is positive: the k-th
    pivot is the k-th leading minor (Sylvester)."""
    m = [[sign * x for x in row] for row in gram]
    prev = 1
    for k, row in enumerate(m):
        pivot = row[k]
        if pivot <= 0:
            return False
        for target in m[k + 1:]:
            f = target[k]
            for j in range(k + 1, len(m)):
                target[j] = (target[j] * pivot - f * row[j]) // prev
        prev = pivot
    return True


# -- Cayley standard triples ---------------------------------------------------


def cayley_standard_triple(sc: StructureConstants, beta, T):
    """(y^beta, H', y^{-beta}) with H' = x^beta + x^{-beta} and
    y^{+-beta} = (i/2)(x^{-beta} - x^beta +- H^beta); beta must be noncompact.

    The brackets are checked on the integral Y^{+-} = (2/i) y^{+-}:
    [H', Y^{+-}] = +-2 Y^{+-} and [Y^+, Y^-] = -4 H'."""
    _check_integral_grading(T)
    rs = sc.rs
    beta = rs.check_root(beta)
    if evaluate(beta, T) % 2 == 0:
        raise CompactRoot(f"{beta} is compact for the given grading")
    ib, ineg = sc.root_index[beta], sc.root_index[sc._neg[beta]]
    hb = sc.coroot_element(beta)
    y_plus = {ineg: 1, ib: -1, **hb}
    y_minus = {ineg: 1, ib: -1, **{j: -c for j, c in hb.items()}}
    h_prime = {ib: 1, ineg: 1}
    if sc.bracket(h_prime, y_plus) != {k: 2 * c for k, c in y_plus.items()}:
        raise AssertionError("[H', Y+] != 2 Y+")
    if sc.bracket(h_prime, y_minus) != {k: -2 * c for k, c in y_minus.items()}:
        raise AssertionError("[H', Y-] != -2 Y-")
    if sc.bracket(y_plus, y_minus) != {k: -4 * c for k, c in h_prime.items()}:
        raise AssertionError("[Y+, Y-] != -4 H'")
    return (
        {k: GaussianRational(Fraction(0), Fraction(c, 2)) for k, c in y_plus.items()},
        {k: GaussianRational.of(c) for k, c in h_prime.items()},
        {k: GaussianRational(Fraction(0), Fraction(c, 2)) for k, c in y_minus.items()},
    )


# -- the 7-dimensional representation of g2 ------------------------------------

G2_V7_WEIGHTS = ((2, 1), (1, 1), (1, 0), (0, 0), (-1, 0), (-1, -1), (-2, -1))


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _commutator(a, b):
    ab, ba = _matmul(a, b), _matmul(b, a)
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(ab, ba))


def _g2():
    rs = build_root_system(LieType("G", 2))
    return rs, structure_constants(rs)


@cache
def g2_seven_dim_rep() -> dict:
    """Weight-basis matrices of the full g2 Chevalley basis on V7.

    g2 is generated by its simple root vectors, so their matrices fix the
    representation.  They are normalised along each alpha_i-string
    v_0, .., v_n of ``G2_V7_WEIGHTS`` (top weight first):
    x^{-alpha_i} v_k = v_{k+1} and x^{alpha_i} v_{k+1} = (k+1)(n-k) v_k.
    H^{alpha_j} is diagonal with the weights' pairings.  Each non-simple
    x^{+-gamma} is [x^{+-eps}, x^{+-eta}] / N_{+-eps,+-eta} for the
    extraspecial pair (eps, eta) of gamma, so entries are integers except
    the halves in x^{-(2,1)}, x^{-(3,1)} and x^{-(3,2)}.  Every
    Chevalley-basis bracket is then checked on the matrices; a failure
    raises AssertionError.
    """
    rs, sc = _g2()
    index = {w: k for k, w in enumerate(G2_V7_WEIGHTS)}
    mats = {
        j: tuple(
            tuple(pair[j] if k == m else 0 for m in range(7))
            for k, pair in enumerate(map(rs.pairings, G2_V7_WEIGHTS))
        )
        for j in range(rs.rank)
    }
    for a in rs.simple_roots:
        up, low = [[0] * 7 for _ in range(7)], [[0] * 7 for _ in range(7)]
        for top in G2_V7_WEIGHTS:
            if tuple(x + y for x, y in zip(top, a)) in index:
                continue  # not the top of its alpha-string
            string = [top]
            while (nxt := tuple(x - y for x, y in zip(string[-1], a))) in index:
                string.append(nxt)
            n = len(string) - 1
            for k in range(n):
                i, j = index[string[k]], index[string[k + 1]]
                low[j][i], up[i][j] = 1, (k + 1) * (n - k)
        mats[sc.root_index[a]] = tuple(map(tuple, up))
        mats[sc.root_index[sc._neg[a]]] = tuple(map(tuple, low))
    for eps, eta in sc.extraspecial.values():
        for a, b in ((eps, eta), (sc._neg[eps], sc._neg[eta])):
            ia, ib = sc.root_index[a], sc.root_index[b]
            ((ig, n),) = sc.ad[ia][ib]
            mats[ig] = tuple(
                tuple(x // n if x % n == 0 else Fraction(x, n) for x in row)
                for row in _commutator(mats[ia], mats[ib])
            )
    for a in range(sc.dim):
        for b in range(sc.dim):
            terms = sc.ad[a][b]
            expect = tuple(
                tuple(sum(c * mats[k][i][j] for k, c in terms) for j in range(7))
                for i in range(7)
            )
            if _commutator(mats[a], mats[b]) != expect:
                raise AssertionError(f"V7 matrices break the bracket of basis {a}, {b}")
    return mats


def g2_rep_matrix(element: dict):
    """Matrix of a g2 element (Chevalley coordinates) on V7."""
    _g2()[1]._check_basis_indices(element)
    mats = g2_seven_dim_rep()
    out = [[Fraction(0)] * 7 for _ in range(7)]
    for k, c in element.items():
        m = mats[k]
        for i in range(7):
            for j in range(7):
                if m[i][j]:
                    out[i][j] += c * m[i][j]
    return tuple(tuple(row) for row in out)


def g2_yukawa_matrix(xi: dict):
    """The 2x2 matrix of xi^2 : V^{2,0} -> V^{0,2} on the weight basis, for
    xi in g^{-1} of the grading E = S^2 as in ``second_fundamental_form``.

    Entries depend on the basis normalization; only the vanishing locus and
    rank are normalization-independent.
    """
    _check_degree_minus_one(_g2()[1], 2, xi)
    m = g2_rep_matrix(xi)
    sq = _matmul(m, m)
    top = [0, 1]  # weights (2,1), (1,1): E-eigenvalue +1
    bottom = [5, 6]  # weights (-1,-1), (-2,-1): E-eigenvalue -1
    return tuple(tuple(sq[i][j] for j in top) for i in bottom)


# -- the second fundamental form of an adjoint variety -------------------------


def _check_degree_minus_one(sc: StructureConstants, i: int, xi: dict):
    """NotFundamentalAdjoint unless (type, {i}) is fundamental adjoint, and
    NotDegreeOne unless every entry of xi is an x^{-beta} with beta(E) = 1
    for E = S^i, which reads beta's i-th coordinate."""
    _require_fundamental_adjoint(sc.rs, i)
    r = sc.rs.rank
    for k in xi:
        if not r <= k < sc.dim or sc.basis_roots[k - r][i - 1] != -1:
            raise NotDegreeOne(f"basis index {k} is not in g^-1 of S^{i}")


def second_fundamental_form(sc: StructureConstants, i: int, xi: dict) -> dict:
    """II(xi) = (ad xi)^2 x^theta for xi in g^{-1} (Chevalley coordinates) of
    the grading E = S^i of a fundamental adjoint (type, {i}).  It lands in
    g^0: xi has degree -1, x^theta degree theta_i = 2, and ad adds degrees.

    The variety of lines C_o through the base point is the base locus of II
    (Landsberg-Manivel, Comment. Math. Helv. 78, 2003)."""
    _check_degree_minus_one(sc, i, xi)
    return sc.bracket(xi, sc.bracket(xi, sc.x(sc.rs.highest_root)))


def cone_point(sc: StructureConstants, i: int, steps) -> dict:
    """exp(t_m ad x^{gamma_m}) .. exp(t_1 ad x^{gamma_1}) x^{-alpha_i} for
    ``steps`` ((gamma_1, t_1), .., (gamma_m, t_m)), a point of g^{-1} on the
    cone over C_o of a fundamental adjoint (type, {i}).

    Each gamma_k must be a Levi root, gamma_k(E) = 0, or NotDegreeOne is
    raised.  ad x^gamma is nilpotent, so each factor is the finite sum of
    (t ad x^gamma)^k / k!, in exact rationals."""
    _require_fundamental_adjoint(sc.rs, i)
    vec = sc.x(tuple(-int(j == i - 1) for j in range(sc.rs.rank)))
    for gamma, t in steps:
        op = sc.x(gamma)
        if gamma[i - 1]:
            raise NotDegreeOne(f"{gamma} has E-value {gamma[i - 1]}, need 0")
        t, total, term, k = Fraction(t), dict(vec), vec, 0
        while term := sc.bracket(op, term):
            k += 1
            term = {idx: c * t / k for idx, c in term.items()}
            for idx, c in term.items():
                total[idx] = total.get(idx, 0) + c
        vec = {idx: c for idx, c in total.items() if c}
    return vec
