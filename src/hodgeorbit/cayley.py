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
from itertools import permutations
from operator import add, mul

from .errors import InvalidSOS, LengthMismatch
from .grading import (
    _check_index_set,
    _check_integral_grading,
    _require_fundamental_adjoint,
    eigen_dims,
    evaluate,
    grading_element_for,
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

    For positive roots that is (roots[j], roots[k]) = 0 and roots[j] + roots[k]
    not a root.  (b, c) = sum_k c_k d_k <b, alpha_k^vee> runs over the few
    nonzero pairings of b."""
    adj = [0] * len(roots)
    for i, b in enumerate(roots):
        form = [(k, d * p) for k, (d, p) in enumerate(zip(rs.lengths, rs.pairings(b))) if p]
        for j, c in enumerate(roots[i + 1:], i + 1):
            if not sum([c[k] * x for k, x in form]) and not rs.is_root(map(add, b, c)):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


@cache
def _candidate_graph(rs: RootSystem, E: tuple) -> tuple[tuple, tuple[int, ...]]:
    """``sos_candidates`` and their ``_so_graph``, built once per (rs, E) and
    shared by ``iter_sos`` and the census."""
    cand = tuple(sos_candidates(rs, E))
    return cand, tuple(_so_graph(rs, cand))


def iter_sos(rs: RootSystem, E):
    """All nonempty strongly orthogonal subsets of {beta : beta(E) = 1}.

    Canonical (sorted) tuples, each subset exactly once.
    """
    cand, compat = _candidate_graph(rs, tuple(E))

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

    That size is the real rank of the real form whose compact roots have beta(E)
    even.  From the compact Cartan subalgebra, where every root is imaginary, each
    Cayley transform c_beta along a noncompact imaginary root adds one dimension to
    the split part.  A theta-stable Cartan subalgebra with no noncompact imaginary
    root left is maximally noncompact (Kostant 1955; Sugiura, J. Math. Soc. Japan
    11, 1959; Knapp, Lie Groups Beyond an Introduction, VI.7), so the count of
    transforms is the real rank, whichever beta is taken.  After c_beta the
    imaginary roots are those orthogonal to beta (a positive root stands for its
    +- pair).  Such an alpha keeps its type when alpha +- beta are not roots, as
    ad x^{+-beta} kills x^alpha, and flips it otherwise; the sum decides both.
    """
    _check_integral_grading(E)
    odd = {a: v % 2 for a, v in zip(rs.positive_roots, root_values(rs, E))}
    steps = 0
    while beta := next((a for a, n in odd.items() if n), None):
        h = rs.coroot_s_coords(beta)
        odd = {a: n ^ rs.is_root(map(add, a, beta))
               for a, n in odd.items() if not sum(map(mul, a, h))}
        steps += 1
    return steps


# -- bigradings and diamonds ------------------------------------------------


@dataclass(frozen=True)
class HodgeDeligneDiamond:
    """Map (p, q) -> dimension, with the Cartan folded into (0, 0)."""

    entries: tuple  # sorted tuple of ((p, q), dim)

    def as_dict(self) -> dict:
        return dict(self.entries)

    @property
    def support(self) -> frozenset:
        return frozenset(pq for pq, _ in self.entries)

    def dim(self, p, q) -> int:
        return self.as_dict().get((p, q), 0)


def bigrading(rs: RootSystem, E, B) -> HodgeDeligneDiamond:
    """h^{p,q} = #{alpha : alpha(E) = p, alpha(Y) = p + q} plus rank at (0,0)."""
    B = _require_valid(rs, E, B)
    dia = _fast_diamond(rs, E, B)
    _check_diamond(dia)
    return dia


def _check_diamond(dia: HodgeDeligneDiamond):
    d = dia.as_dict()
    for (p, q), v in d.items():
        if d.get((q, p), 0) != v or d.get((-p, -q), 0) != v:
            raise AssertionError("diamond symmetry violated")


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


def weight_grading_dims(rs: RootSystem, i: int) -> dict:
    """Eigenspace dimensions of H^{alpha_i}; checks dim g_l = dim g^{-l}, the
    dimension of the S^i-eigenspace of eigenvalue -l."""
    _require_fundamental_adjoint(rs, i)
    h = rs.coroot_s_coords(rs.simple_roots[i - 1])
    dims = eigen_dims(rs, root_values(rs, h))
    e_dims = parabolic(rs, {i}).eigen_dims
    for ell, v in dims.items():
        if e_dims.get(-ell, 0) != v:
            raise AssertionError("dim g_l != dim g^{-l}")
    return dims


def weyl_flip(rs: RootSystem, i: int) -> tuple:
    """A word (j_1, .., j_m) of simple reflections with w(-alpha_i) = highest root.

    Applying r_{j_1} first.  The word is ``rs.climb`` from the pairings of
    -alpha_i, minus row i of the Cartan matrix: while the least pairing p is
    negative, v becomes s_j v = v - p alpha_j at its lowest j.  From -alpha_i
    that is s_i; each later step raises the height of the root v and keeps
    its length, so the climb ends at the one dominant root of the length of
    alpha_i, the highest root when alpha_i is long (Bourbaki VI.1.8).  The
    induced action maps the H^{alpha_i}-eigenvalue l root set onto the
    S^i-eigenvalue -l root set; w is linear, so this is verified on the
    simple roots, which span.
    """
    _check_index_set(rs, {i})
    alpha_i = rs.simple_roots[i - 1]
    if rs.root_length(alpha_i) != rs.root_length(rs.highest_root):
        raise LengthMismatch(f"alpha_{i} and the highest root have different lengths")
    top, word = rs.climb([-a for a in rs.cartan[i - 1]])
    if top != rs.pairings(rs.highest_root):
        raise AssertionError("the climb from -alpha_i ends below the highest root")

    # w(H^{alpha_i}) = H^{-highest} = -H^{highest}, so the H^{alpha_i}-grading
    # flips to the negated H^{highest}-grading; for fundamental adjoints
    # H^{highest} = S^i, turning this into the S^i-eigenvalue statement
    h = rs.coroot_s_coords(alpha_i)
    h_tilde = rs.coroot_s_coords(rs.highest_root)
    for alpha, ell in zip(rs.simple_roots, h):
        for j in word:
            alpha = rs.simple_reflection(alpha, j)
        if evaluate(alpha, h_tilde) != -ell:
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
    """All boundary diamonds of the fundamental adjoint (rs, {i}), one entry
    per diamond, sorted by codimension.

    The diamond of a strongly orthogonal B in {beta : beta(S^i) = 1} is an
    invariant of its class under W_L = W(g^0): a Levi reflection s_j (j != i)
    fixes E, and alpha -> s_j(alpha) keeps alpha(E) and alpha(H^b) =
    s_j(alpha)(H^{s_j b}), so it maps the roots counted in h^{p,q} of B onto
    those of s_j(B).  So one diamond is computed per class, found without
    labelling every set: a W_L-orbit of vectors holds one L-dominant vector,
    whose stabiliser is the parabolic W_J on the nodes J of L orthogonal to
    it (Steinberg; Humphreys, *Reflection Groups and Coxeter Groups*, 1.12).
    So each orbit of ordered sequences (b_1, .., b_s) holds one canonical
    sequence: b_1 L-dominant, b_2 J_1-dominant for J_1 = {j in L :
    <b_1, alpha_j^v> = 0}, and so on.  ``_levi_classes`` walks these and keys
    each class of sets by the least canonical form of its orderings.
    ``representative`` is the earliest set in ``iter_sos`` order with its
    diamond, so ``iter_sos`` runs until every diamond has one.
    """
    _require_fundamental_adjoint(rs, i)
    E = grading_element_for(rs, {i})
    cand, compat = _candidate_graph(rs, E)
    keys, class_of = _levi_classes(rs, i, cand, compat)
    diamond_of = {key: _fast_diamond(rs, E, [cand[k] for k in key])
                  for key in sorted(set(keys.values()))}
    by_diamond: dict = {}  # diamond -> its class keys
    for key, dia in diamond_of.items():
        by_diamond.setdefault(dia, []).append(key)
    first = {}
    for B in iter_sos(rs, E):
        first.setdefault(diamond_of[class_of(B)], B)
        if len(first) == len(by_diamond):
            break
    entries = []
    for dia, classes in by_diamond.items():
        _check_diamond(dia)
        entries.append(
            CensusEntry(
                representative=first[dia],
                sizes=tuple(sorted({len(key) for key in classes})),
                invariants=_invariants_from_diamond(rs, dia),
                diamond=dia,
                weyl_classes=len(classes),
            )
        )
    # a tuple: every caller shares the cached result
    return tuple(sorted(entries, key=lambda e: (e.invariants.codim, e.representative)))


def _levi_classes(rs: RootSystem, i: int, cand, compat):
    """(keys, class_of): ``keys`` maps each canonical sequence of candidate
    indices to the least canonical form of its orderings, one key per class;
    ``class_of`` gives the key of a set of candidate roots."""
    levi = sum(1 << j for j in range(rs.rank) if j != i - 1)
    pairs = [rs.pairings(b) for b in cand]
    neg = [sum(1 << j for j, p in enumerate(ps) if p < 0) & levi for ps in pairs]
    zero = [sum(1 << j for j, p in enumerate(ps) if p == 0) & levi for ps in pairs]
    index = {b: k for k, b in enumerate(cand)}

    @cache
    def reflect(j, k):  # a Levi reflection keeps E, so it permutes the candidates
        return index[rs.simple_reflection(cand[k], j)]

    # a climb of its own, not ``rs.climb``: it moves candidate indices under
    # the bitmask J, memoized, where ``rs.climb`` moves pairing vectors
    @cache
    def move(J, k, x):
        """x under the w in W_J that takes k into the J-dominant chamber."""
        while down := neg[k] & J:
            j = (down & -down).bit_length() - 1
            k, x = reflect(j, k), reflect(j, x)
        return x

    def canon(seq):  # each member into the current stabiliser's dominant chamber
        items, J = list(seq), levi
        for t in range(len(items)):
            items[t:] = [move(J, items[t], x) for x in items[t:]]
            J &= zero[items[t]]
        return tuple(items)

    keys = {}

    def walk(seq, pool, J):
        for k in range(len(cand)):
            if pool >> k & 1 and not neg[k] & J:
                if (nxt := seq + (k,)) not in keys:  # else its class is keyed
                    forms = set(map(canon, permutations(nxt)))
                    keys.update(dict.fromkeys(forms, min(forms)))
                walk(nxt, pool & compat[k], J & zero[k])

    walk((), (1 << len(cand)) - 1, levi)
    return keys, lambda B: keys[canon([index[b] for b in B])]


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
