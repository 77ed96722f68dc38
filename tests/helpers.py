"""Independent oracles used to cross-check the library implementations.

Everything here is deliberately written against the definitions rather than
reusing the library's algorithms: weight multiplicities come from the Weyl
character formula with an explicit Kostant partition count, Weyl groups are
enumerated as orbits of a strictly dominant vector, and roots are closed
under simple reflections with dense pairings against the Cartan matrix.
The Weyl orbit is rebuilt, with a parent for each vertex, by trying every
node on every vertex, and a Weyl word is replayed one letter at a time, each
pairing taken against a whole dense Cartan column.  To replay a word on every
root, each s_j is taken that way once per root and then read as a
permutation of the roots.
The root-lattice form is the dense r x r matrix d_j A[i][j], and coroot
pairings are 2 (beta, alpha) / (alpha, alpha) on it.  The inverse Cartan
matrix comes from Gauss-Jordan elimination, and a weight's root coordinates
from the full r x r product with it.  Definiteness is Sylvester's criterion
with one determinant per leading minor, and the Jacobi sum is taken through
dict brackets.  Diamonds are counted by dense evaluation over all of
``rs.roots``, with coroots from the dense form, and the boundary census is
the per-set path: one diamond for every strongly orthogonal set.  Strong
orthogonality is tested on all three conditions of its definition, where the
library tests the form and the sum only.  The strongly orthogonal sets are
enumerated by plain recursion over that test, and the real rank is the clique
search over it with no bound on its size, where the library counts Cayley
transforms; on the classical types it is also read off Knapp's closed forms.
The Freudenthal recursion is also kept in its walk-down form, over every
weight below the highest, where the library runs it on dominant weights.  The
Chevalley bracket table is rebuilt with tuple keys from the root data, and
the mixed-sign structure constants come from visiting every ordered pair of
positive roots.  The whole structure-constant table is also rebuilt in three
passes: the positive constants, then the mixed-sign ones, then their
negatives.  The g2 matrices on V7 come from a search over the signs of the
lowering entries, checked on every basis bracket.  The dimension of a
component of C_o is counted by walking each positive root's support.
The JSON root listing is one dict tree handed to ``json.dumps``, where the
library writes it row by row.
The defining representation of sl2 with its unit-disc check, and the G2
coordinates of g^{-1}, are fixtures that only the tests use.
"""

import functools
import itertools
import json
import math
from fractions import Fraction
from operator import mul, sub

from hodgeorbit.cayley import (
    CensusEntry,
    HodgeDeligneDiamond,
    _check_diamond,
    _invariants_from_diamond,
    iter_sos,
    sos_candidates,
)
from hodgeorbit.chevalley import GaussianRational
from hodgeorbit.errors import DimensionCapExceeded
from hodgeorbit.grading import evaluate, grading_element_for
from hodgeorbit.reps import (
    Weight,
    WeightMultiset,
    _check_dominant_integral,
    dimension_cap,
    rho,
    weight_from_fund,
    weyl_dimension,
)
from hodgeorbit.rootdata import (
    RANK_BOUNDS,
    LieType,
    RootSystem,
    _cartan_data,
    _exact_quotient,
)


def lie_types_up_to(max_rank):
    """Every simple type of rank <= max_rank, family by family."""
    return [
        LieType(family, r)
        for family, (lo, hi) in RANK_BOUNDS.items()
        for r in range(lo, min(max_rank, hi or max_rank) + 1)
    ]


def weyl_orbit_with_signs(rs: RootSystem, start):
    """Orbit of a strictly dominant vector, as {vector: det(w)}.

    Any path of simple reflections to a point has the parity of the group
    element carrying the base point there, so BFS parities are well-defined.
    W acts linearly, so the search runs on ``start`` scaled to integers by the
    lcm of its denominators, and the orbit is divided back at the end.
    """
    scale = math.lcm(*(Fraction(c).denominator for c in start))
    start = tuple(int(c * scale) for c in start)
    out = {start: 1}
    frontier = [start]
    while frontier:
        nxt = []
        for vec in frontier:
            sign = out[vec]
            for j in range(rs.rank):
                pair = sum(vec[t] * rs.cartan[t][j] for t in range(rs.rank))
                if pair == 0:
                    continue
                img = tuple(
                    vec[m] - pair * (1 if m == j else 0) for m in range(rs.rank)
                )
                if img not in out:
                    out[img] = -sign
                    nxt.append(img)
        frontier = nxt
    return {tuple(Fraction(c, scale) for c in vec): sign for vec, sign in out.items()}


def weyl_orbit_by_every_node(rs: RootSystem, starts, nodes=None):
    """The breadth-first orbit of ``RootSystem.weyl_orbit``, in its order, as
    a tree {vector: (parent, j) | None} with vector = s_j(parent).  It is
    built by applying ``rs.simple_reflection`` for every node of ``nodes``, in
    the order given, to every vertex, where the library carries each vertex's
    nonzero pairings along the orbit and keeps no parents."""
    nodes = range(rs.rank) if nodes is None else tuple(nodes)
    tree = dict.fromkeys(starts)
    frontier = list(tree)
    while frontier:
        nxt = []
        for v in frontier:
            for j in nodes:
                w = rs.simple_reflection(v, j)
                if w is not v and w not in tree:
                    tree[w] = (v, j)
                    nxt.append(w)
        frontier = nxt
    return tree


def apply_word_dense(rs: RootSystem, word, v):
    """s_{j_m} .. s_{j_1} v for the 0-based ``word`` (j_1, .., j_m), first
    letter first, each pairing <v, alpha_j^vee> against dense Cartan column j."""
    columns = list(zip(*rs.cartan))
    for j in word:
        pair = sum(map(mul, v, columns[j]))
        v = tuple(c - pair * (k == j) for k, c in enumerate(v))
    return v


@functools.cache
def _dense_reflection_table(rs: RootSystem):
    """(roots, table) with roots[table[j][k]] = s_j(roots[k]) by ``apply_word_dense``."""
    roots = list(rs.roots)
    index = {b: k for k, b in enumerate(roots)}
    return roots, [[index[apply_word_dense(rs, (j,), b)] for b in roots] for j in range(rs.rank)]


def word_images_dense(rs: RootSystem, word) -> dict:
    """{alpha: w(alpha)} on every root for the 0-based ``word``, first letter first."""
    roots, table = _dense_reflection_table(rs)
    images = range(len(roots))
    for j in word:
        images = [table[j][k] for k in images]
    return {alpha: roots[k] for alpha, k in zip(roots, images)}


def dense_root_closure(lie_type):
    """(roots, positive roots by (height, coords)) by dense reflection closure.

    Every simple reflection of every root pairs against a whole Cartan column
    and rebuilds the whole vector, O(|roots| r^2), with none of the library's
    sparse Weyl action.
    """
    cartan, _ = _cartan_data(lie_type)
    r = lie_type.rank
    simples = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for beta in frontier:
            for j in range(r):
                pair = sum(beta[i] * cartan[i][j] for i in range(r))
                img = tuple(beta[k] - pair * (1 if k == j else 0) for k in range(r))
                if img not in roots:
                    roots.add(img)
                    nxt.append(img)
        frontier = nxt
    roots |= {tuple(-c for c in beta) for beta in roots}
    positives = sorted((b for b in roots if sum(b) > 0), key=lambda b: (sum(b), b))
    return frozenset(roots), tuple(positives)


class KostantPartition:
    """Number of ways to write a vector as a nonneg combination of Delta+."""

    def __init__(self, rs: RootSystem):
        self.roots = rs.positive_roots
        self.memo = {}

    def count(self, vec):
        vec = tuple(vec)
        if any(Fraction(c).denominator != 1 for c in vec):
            return 0
        vec = tuple(int(c) for c in vec)
        if any(c < 0 for c in vec):
            return 0
        return self._count(vec, len(self.roots) - 1)

    def _count(self, vec, idx):
        if all(c == 0 for c in vec):
            return 1
        if idx < 0:
            return 0
        key = (vec, idx)
        if key in self.memo:
            return self.memo[key]
        total = 0
        cur = vec
        root = self.roots[idx]
        while all(c >= 0 for c in cur):
            total += self._count(cur, idx - 1)
            cur = tuple(a - b for a, b in zip(cur, root))
        self.memo[key] = total
        return total


def multiplicity_by_weyl_character(rs: RootSystem, lam, mu, orbit=None, kostant=None):
    """m_mu(V_lam) = sum_w det(w) P(w(lam+rho) - (mu+rho))."""
    rho_c = rho(rs).root_coords
    lam_rho = tuple(a + b for a, b in zip(lam.root_coords, rho_c))
    mu_rho = tuple(a + b for a, b in zip(mu, rho_c))
    if orbit is None:
        orbit = weyl_orbit_with_signs(rs, lam_rho)
    if kostant is None:
        kostant = KostantPartition(rs)
    total = 0
    for vec, sign in orbit.items():
        total += sign * kostant.count(tuple(a - b for a, b in zip(vec, mu_rho)))
    return total


def freudenthal_by_walk_down(rs: RootSystem, lam: Weight) -> WeightMultiset:
    """Weight multiplicities of V_lam by the Freudenthal recursion on every
    weight, where the library runs it on the dominant weights only.

    Weights are discovered by walking down from ``lam`` one simple root at a
    time; a candidate is kept when the recursion gives positive multiplicity.
    The grand total is checked against ``weyl_dimension`` before returning.
    """
    _check_dominant_integral(rs, lam)
    cap = dimension_cap()
    dim = weyl_dimension(rs, lam)
    if dim > cap:
        raise DimensionCapExceeded(f"dim {dim} exceeds cap {cap}")

    # mu = lam - sum_i n_i alpha_i is keyed by its depth n; all pairings are
    # integer dot products with mu's fundamental-weight coordinates
    r = rs.rank
    lam_f = [int(c) for c in lam.fund_coords]
    strings = [
        (alpha, tuple(map(mul, alpha, rs.lengths)), rs.bilinear(alpha, alpha))
        for alpha in rs.positive_roots
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


def bilinear_by_sym(rs: RootSystem, x, y):
    """(x, y) = sum_{i,j} x_i (alpha_i, alpha_j) y_j with the dense matrix
    (alpha_i, alpha_j) = d_j A[i][j], where the library goes through the
    sparse Cartan columns."""
    r = rs.rank
    sym = _sym(rs)
    return sum(x[i] * sym[i][j] * y[j] for i in range(r) for j in range(r))


def roots_listing_by_json_dumps(rs: RootSystem) -> str:
    """The text of ``roots --format json`` from a dict and a list per root,
    in one envelope dict rendered by ``json.dumps(sort_keys=True)``."""
    long_d = max(rs.lengths)
    roots = [{"coords": list(b), "height": sum(b),
              "length": "long" if rs.root_length(b) == long_d else "short"}
             for b in rs.positive_roots]
    envelope = {"command": "roots", "count": len(roots), "roots": roots,
                "schema_version": 1, "type": str(rs.lie_type)}
    return json.dumps(envelope, sort_keys=True) + "\n"


@functools.cache
def _sym(rs: RootSystem):
    r = rs.rank
    return [[rs.lengths[j] * rs.cartan[i][j] for j in range(r)] for i in range(r)]


def coroot_s_coords_by_sym(rs: RootSystem, alpha):
    """alpha_k(H^alpha) = 2 (alpha_k, alpha) / (alpha, alpha) for every k."""
    norm = bilinear_by_sym(rs, alpha, alpha)
    return tuple(
        Fraction(2 * bilinear_by_sym(rs, simple, alpha), norm)
        for simple in rs.simple_roots
    )


@functools.cache
def inverse_cartan_by_gauss_jordan(rs: RootSystem):
    """Inverse Cartan matrix by Fraction Gauss-Jordan elimination on [A | I]."""
    n = rs.rank
    aug = [
        [Fraction(rs.cartan[i][j]) for j in range(n)]
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


def weight_from_fund_dense(rs: RootSystem, fund) -> Weight:
    """sum_i fund_i w_i as the full r x r product with the Gauss-Jordan inverse."""
    fund = tuple(Fraction(c) for c in fund)
    inv = inverse_cartan_by_gauss_jordan(rs)
    root = tuple(
        sum(fund[i] * inv[i][k] for i in range(rs.rank)) for k in range(rs.rank)
    )
    return Weight(fund, root)


def coroot_pairing_by_form(rs: RootSystem, beta, alpha):
    """beta(H^alpha) = 2 (beta, alpha) / (alpha, alpha) on the dense form."""
    val = Fraction(2 * bilinear_by_sym(rs, beta, alpha), bilinear_by_sym(rs, alpha, alpha))
    return int(val) if val.denominator == 1 else val


def weyl_dimension_by_bilinear(rs: RootSystem, lam):
    """prod_{alpha>0} (lam+rho, alpha) / (rho, alpha) in Fraction arithmetic.

    Pairs root coordinates through ``bilinear_by_sym``, where the library
    pairs fundamental-weight coordinates with scaled roots.
    """
    rho_c = rho(rs).root_coords
    lam_rho = tuple(a + b for a, b in zip(lam.root_coords, rho_c))
    num = Fraction(1)
    for alpha in rs.positive_roots:
        num *= Fraction(
            bilinear_by_sym(rs, lam_rho, alpha), bilinear_by_sym(rs, rho_c, alpha)
        )
    assert num.denominator == 1
    return int(num)


def co_dimension_by_support(rs: RootSystem, i, deleted):
    """Dimension of the C_o component at node i of the diagram minus ``deleted``.

    The sub-system's positive roots are those supported off ``deleted``; the
    component counts the ones whose support meets a kept neighbour of i.
    """
    marked = {j for j in range(1, rs.rank + 1)
              if j not in deleted and j != i and rs.cartan[i - 1][j - 1] != 0}
    dim = 0
    for beta in rs.positive_roots:
        if any(beta[j - 1] for j in deleted):
            continue
        if any(beta[j - 1] for j in marked):
            dim += 1
    return dim


def _diamond_by_roots(rs: RootSystem, p_vals, rows):
    """h^{p,q} from dense value rows over ``rs.roots`` (E, then each H^b)."""
    counts = {(0, 0): rs.rank}
    for p, *ys in zip(p_vals, *rows):
        key = (p, sum(ys) - p)
        counts[key] = counts.get(key, 0) + 1
    return HodgeDeligneDiamond(tuple(sorted(counts.items())))


def _dense_row(rs: RootSystem, h):
    return [evaluate(alpha, h) for alpha in rs.roots]


def _coroot_row(rs: RootSystem, b):
    return _dense_row(rs, [int(c) for c in coroot_s_coords_by_sym(rs, b)])


def bigrading_by_roots(rs: RootSystem, E, B):
    """The diamond of B by dense evaluation of E and every H^b on every root."""
    rows = [_coroot_row(rs, b) for b in B]
    return _diamond_by_roots(rs, _dense_row(rs, E), rows)


def census_by_sets(rs: RootSystem, i):
    """The boundary census with one diamond per strongly orthogonal set.

    Every set from ``iter_sos`` gets its own diamond, counted over all of
    ``rs.roots`` from dense rows computed once per candidate; the sets are
    grouped by diamond and the Levi-Weyl classes are counted within each
    group, each set joined to its images under the simple reflections s_j,
    j != i.
    """
    E = grading_element_for(rs, {i})
    p_vals = _dense_row(rs, E)
    pair_rows = {b: _coroot_row(rs, b) for b in sos_candidates(rs, E)}
    by_diamond = {}
    for B in iter_sos(rs, E):
        dia = _diamond_by_roots(rs, p_vals, [pair_rows[b] for b in B])
        by_diamond.setdefault(dia, []).append(B)
    entries = []
    for dia, sets in by_diamond.items():
        _check_diamond(dia)
        entries.append(
            CensusEntry(
                representative=sets[0],
                sizes=tuple(sorted({len(B) for B in sets})),
                invariants=_invariants_from_diamond(rs, dia),
                diamond=dia,
                weyl_classes=_count_classes(rs, i, sets),
            )
        )
    return tuple(sorted(entries, key=lambda e: (e.invariants.codim, e.representative)))


def _count_classes(rs: RootSystem, i, sets):
    index = {frozenset(B): k for k, B in enumerate(sets)}
    parent = list(range(len(sets)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for k, B in enumerate(sets):
        for j in range(rs.rank):
            if j != i - 1:
                img = frozenset(rs.simple_reflection(b, j) for b in B)
                ra, rb = find(k), find(index[img])
                if ra != rb:
                    parent[ra] = rb
    return len({find(k) for k in range(len(sets))})


def dominant_weights_with_dim_at_most(rs: RootSystem, bound):
    """All dominant integral weights of dimension <= bound.

    DFS over fundamental coordinates; the dimension is strictly monotone in
    each coordinate, so a branch is abandoned as soon as the zero-padded
    prefix already exceeds the bound.
    """
    found = []

    def dim_of(prefix):
        lam = weight_from_fund(rs, tuple(prefix) + (0,) * (rs.rank - len(prefix)))
        return weyl_dimension(rs, lam), lam

    def extend(prefix):
        if len(prefix) == rs.rank:
            found.append(dim_of(prefix)[1])
            return
        c = 0
        while dim_of(prefix + [c])[0] <= bound:
            extend(prefix + [c])
            c += 1

    extend([])
    return found


def definite_by_sylvester(gram, sign):
    """Sylvester's criterion: every leading minor of sign * gram is positive.

    Each minor is a separate exact determinant, so this costs O(n^4); the
    library runs one elimination pass instead.
    """
    n = len(gram)
    m = [[sign * Fraction(x) for x in row] for row in gram]
    for k in range(1, n + 1):
        if _det([row[:k] for row in m[:k]]) <= 0:
            return False
    return True


def _det(mat):
    mat = [row[:] for row in mat]
    n = len(mat)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] * inv
            if f:
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    return det


def jacobi_residual_by_dicts(sc, i, j, k):
    """The Jacobi sum of three basis vectors through ``sc.bracket`` on dicts."""
    out = {}

    def acc(a, bc):
        for m, c in sc.bracket({a: 1}, dict(bc)).items():
            cur = out.get(m, 0) + c
            if cur:
                out[m] = cur
            elif m in out:
                del out[m]

    acc(i, sc.basis_bracket(j, k))
    acc(j, sc.basis_bracket(k, i))
    acc(k, sc.basis_bracket(i, j))
    return out


def strongly_orthogonal_by_three_tests(rs: RootSystem, a, b):
    """Neither a + b nor a - b is a root, and ``bilinear_by_sym`` of a and b is 0."""
    s = tuple(x + y for x, y in zip(a, b))
    d = tuple(x - y for x, y in zip(a, b))
    return s not in rs.roots and d not in rs.roots and bilinear_by_sym(rs, a, b) == 0


def sos_sets_by_three_tests(rs: RootSystem, E):
    """Every nonempty strongly orthogonal set of roots with beta(E) = 1, as a
    set of frozensets.

    The candidates come from dense evaluation over all of ``rs.roots``, the
    sets are grown by plain recursion in candidate order, and each pair is
    tested with ``strongly_orthogonal_by_three_tests``, where the library
    enumerates cliques of its bitmask graph.
    """
    cand = [b for b, v in zip(rs.roots, _dense_row(rs, E)) if v == 1]
    found = set()

    def extend(chosen, start):
        for k in range(start, len(cand)):
            if all(strongly_orthogonal_by_three_tests(rs, b, cand[k]) for b in chosen):
                nxt = chosen + [cand[k]]
                found.add(frozenset(nxt))
                extend(nxt, k + 1)

    extend([], 0)
    return found


def real_rank_unbounded(rs: RootSystem, E):
    """The largest pairwise strongly orthogonal set of positive roots with
    beta(E) odd, by a branch-and-bound clique search that runs until its pool
    is exhausted."""
    verts = [b for b in rs.positive_roots if evaluate(b, E) % 2]
    n = len(verts)
    adj = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and strongly_orthogonal_by_three_tests(rs, verts[i], verts[j]):
                adj[i] |= 1 << j
    order = sorted(range(n), key=lambda i: -bin(adj[i]).count("1"))
    radj = [0] * n
    for i in range(n):
        for j in range(n):
            if adj[order[i]] >> order[j] & 1:
                radj[i] |= 1 << j
    best = 0

    def expand(size, pool):
        nonlocal best
        if pool == 0:
            best = max(best, size)
            return
        while pool:
            if size + bin(pool).count("1") <= best:
                return
            v = (pool & -pool).bit_length() - 1
            pool &= ~(1 << v)
            expand(size + 1, pool & radj[v])

    expand(0, (1 << n) - 1)
    return best


def classical_real_rank(lie_type: LieType, node: int) -> int:
    """Real rank of the real form of a classical g whose compact roots have
    even S^node-value (Knapp, Lie Groups Beyond an Introduction, App. C)."""
    n, k = lie_type.rank, node
    if lie_type.family == "A":  # su(k, n + 1 - k)
        return min(k, n + 1 - k)
    if lie_type.family == "B":  # so(2k, 2n - 2k + 1)
        return min(2 * k, 2 * n - 2 * k + 1)
    if lie_type.family == "C":  # sp(k, n - k), and sp(n, R) at node n
        return n if k == n else min(k, n - k)
    assert lie_type.family == "D", lie_type
    if k >= n - 1:  # so*(2n) at the two spin nodes
        return n // 2
    return min(2 * k, 2 * n - 2 * k)  # so(2k, 2n - 2k)


def _negate(v):
    return tuple(-x for x in v)


def n_table_of(sc):
    """{(a, b): N_{a,b}} for every pair of roots with a + b a root, read off
    the root-by-root entries of ``sc.ad`` (the pairs b = -a, whose bracket
    is H^a, left out)."""
    r, roots = sc.rs.rank, sc.basis_roots
    table = {}
    for a, row in zip(roots, sc.ad[r:]):
        for j, entry in enumerate(row):
            if entry and j >= r and (b := roots[j - r]) != _negate(a):
                ((_, n),) = entry
                table[(a, b)] = n
    return table


def bracket_table_by_roots(sc, n_table):
    """{(i, j): ((k, c), ...)} for every nonzero bracket [e_i, e_j] of basis
    vectors, keyed by index pairs and rebuilt from ``n_table``,
    ``rs.pairings``, ``rs.coroot`` and ``sc.root_index``."""
    rs = sc.rs
    index = sc.root_index
    table = {}
    for a, ia in index.items():
        for j, pair in enumerate(rs.pairings(a)):
            if pair:
                table[(j, ia)] = ((ia, pair),)
                table[(ia, j)] = ((ia, -pair),)
        table[(ia, index[_negate(a)])] = tuple(
            (j, c) for j, c in enumerate(rs.coroot(a)) if c
        )
    for (a, b), n in n_table.items():
        s = tuple(x + y for x, y in zip(a, b))
        table[(index[a], index[b])] = ((index[s], n),)
    return table


def extend_by_root_pairs(sc):
    """N_{a,b} for every sign combination, from the positive-root entries of
    ``n_table_of(sc)``: every ordered pair of distinct positive roots a, b with a
    root difference gets N_{a,-b} by the cyclic relation, with the norms
    taken through the dense form; then N_{-a,-b} = -N_{a,b}."""
    rs = sc.rs
    positive = {
        (a, b): n for (a, b), n in n_table_of(sc).items() if sum(a) > 0 and sum(b) > 0
    }
    full = dict(positive)
    norm = {b: bilinear_by_sym(rs, b, b) for b in rs.positive_roots}

    def mixed(a, b):  # N_{a,-b}
        diff = tuple(x - y for x, y in zip(a, b))
        if sum(diff) > 0:
            q = Fraction(-norm[diff] * positive[(b, diff)], norm[a])
        else:
            delta = _negate(diff)
            q = Fraction(norm[delta] * positive[(delta, a)], norm[b])
        assert q.denominator == 1, (a, b)
        return int(q)

    for a in rs.positive_roots:
        for b in rs.positive_roots:
            if a != b and rs.is_root(tuple(x - y for x, y in zip(a, b))):
                v = mixed(a, b)
                full[(a, _negate(b))] = v
                full[(_negate(b), a)] = -v
                full[(_negate(a), b)] = -v
                full[(b, _negate(a))] = v
    for (a, b), v in list(full.items()):
        full[(_negate(a), _negate(b))] = -v
    return full


def _string_down(rs: RootSystem, a, b):
    """The length of the a-string below b."""
    p = 0
    cur = tuple(x - y for x, y in zip(b, a))
    while rs.is_root(cur):
        p += 1
        cur = tuple(x - y for x, y in zip(cur, a))
    return p


def n_table_by_three_passes(rs: RootSystem):
    """N_{a,b} for every pair of roots with a + b a root, keyed by root
    tuples, in three passes: the positive constants root by root (the
    extraspecial pair first, the rest from the Jacobi identity with the
    mixed constants recomputed by the cyclic relation), then N_{s,-x} and
    N_{x,-s} for every positive entry, then N_{-x,-y} = -N_{x,y}.  Norms
    come from the dense form."""
    norm = {b: bilinear_by_sym(rs, b, b) for b in rs.positive_roots}
    table = {}

    def key(root):
        return (sum(root), root)

    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def exact(num, den):
        q = Fraction(num, den)
        assert q.denominator == 1, (num, den)
        return int(q)

    def mixed(a, b):  # N_{a,-b} for positive a != b with a - b a root
        diff = sub(a, b)
        if sum(diff) > 0:
            return exact(-norm[diff] * table[(b, diff)], norm[a])
        delta = _negate(diff)
        return exact(norm[delta] * table[(delta, a)], norm[b])

    for gamma in rs.positive_roots:
        if sum(gamma) < 2:
            continue
        pairs = []
        for a in rs.positive_roots:
            if key(a) >= key(gamma):
                break
            b = sub(gamma, a)
            if rs.is_root(b) and sum(b) > 0 and key(a) <= key(b):
                pairs.append((a, b))
        pairs.sort(key=lambda ab: key(ab[0]))
        eps, eta = pairs[0]
        n_extra = _string_down(rs, eps, eta) + 1
        table[(eps, eta)] = n_extra
        table[(eta, eps)] = -n_extra
        n_gamma_meps = exact(-norm[eta] * n_extra, norm[gamma])
        for a, b in pairs[1:]:
            term = 0
            if rs.is_root(sub(a, eps)):
                term += mixed(a, eps) * table[(sub(a, eps), b)]
            if rs.is_root(sub(b, eps)):
                term += mixed(b, eps) * table[(a, sub(b, eps))]
            val = exact(term, n_gamma_meps)
            assert abs(val) == _string_down(rs, a, b) + 1, (a, b)
            table[(a, b)] = val
            table[(b, a)] = -val
    full = dict(table)
    for (x, y), n in table.items():
        s = tuple(p + q for p, q in zip(x, y))
        v = exact(-norm[y] * n, norm[s])
        full[(s, _negate(x))] = v
        full[(_negate(x), s)] = -v
        full[(_negate(s), x)] = -v
        full[(x, _negate(s))] = v
        full[(_negate(x), _negate(y))] = -n
    return full


def _mat_commutator(a, b):
    n = len(a)
    return tuple(
        tuple(
            sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )


def g2_seven_dim_rep_by_sign_search(sc, weights):
    """The g2 Chevalley-basis matrices on V7 (basis ``weights``), found by a
    search over the signs of the lowering entries along the alpha_i-strings:
    raising entries are (k+1)(n-k) times the lowering sign, x^{+-gamma} for
    non-simple gamma is [x^{+-eps}, x^{+-eta}] / N for its extraspecial pair,
    and the first assignment on which every basis bracket holds is returned.
    All entries are Fractions."""
    rs = sc.rs
    size = len(weights)
    w_index = {w: k for k, w in enumerate(weights)}
    simples = rs.simple_roots
    pairings = [rs.pairings(w) for w in weights]
    n_table = n_table_of(sc)

    def strings(a):
        out = []
        for top in weights:
            if tuple(x + y for x, y in zip(top, a)) in w_index:
                continue
            chain = [top]
            while (nxt := tuple(x - y for x, y in zip(chain[-1], a))) in w_index:
                chain.append(nxt)
            if len(chain) > 1:
                out.append(chain)
        return out

    all_strings = [strings(a) for a in simples]
    slots = [
        (i, si, k)
        for i, chains in enumerate(all_strings)
        for si, chain in enumerate(chains)
        for k in range(len(chain) - 1)
    ]

    def build(signs):
        mats = {}
        for i, chains in enumerate(all_strings):
            low = [[Fraction(0)] * size for _ in range(size)]
            up = [[Fraction(0)] * size for _ in range(size)]
            for si, chain in enumerate(chains):
                n = len(chain) - 1
                for k in range(n):
                    c = signs[slots.index((i, si, k))]
                    low[w_index[chain[k + 1]]][w_index[chain[k]]] = Fraction(c)
                    up[w_index[chain[k]]][w_index[chain[k + 1]]] = Fraction(
                        (k + 1) * (n - k), c
                    )
            mats[sc.root_index[_negate(simples[i])]] = tuple(map(tuple, low))
            mats[sc.root_index[simples[i]]] = tuple(map(tuple, up))
        for j in range(rs.rank):
            mats[j] = tuple(
                tuple(Fraction(pairings[i][j] if i == m else 0) for m in range(size))
                for i in range(size)
            )
        for gamma in rs.positive_roots:
            if sum(gamma) < 2:
                continue
            for eps in rs.positive_roots:
                rest = tuple(x - y for x, y in zip(gamma, eps))
                if rs.is_root(rest) and sum(rest) > 0:
                    break
            for g, a, b in ((gamma, eps, rest), (_negate(gamma), _negate(eps), _negate(rest))):
                bracket = _mat_commutator(mats[sc.root_index[a]], mats[sc.root_index[b]])
                n = n_table[(a, b)]
                mats[sc.root_index[g]] = tuple(tuple(x / n for x in row) for row in bracket)
        for a in range(sc.dim):
            for b in range(sc.dim):
                expect = [[Fraction(0)] * size for _ in range(size)]
                for k, coeff in sc.basis_bracket(a, b):
                    for i in range(size):
                        for j in range(size):
                            expect[i][j] += coeff * mats[k][i][j]
                if _mat_commutator(mats[a], mats[b]) != tuple(map(tuple, expect)):
                    return None
        return mats

    for signs in itertools.product((1, -1), repeat=len(slots)):
        mats = build(signs)
        if mats is not None:
            return mats
    raise AssertionError("no consistent sign assignment for the V7 matrices")


def real_of(value):
    """A Killing value from ``sc.killing`` as an exact rational; it must be
    real."""
    im = getattr(value, "im", 0)
    assert im == 0, value
    return Fraction(getattr(value, "re", value))


# -- fixtures for the A1 disc model and the G2 line directions ----------------

# x^a, H^a, x^{-a} of sl2 in the defining representation.
SL2_X_PLUS = ((0, 1), (0, 0))
SL2_H = ((1, 0), (0, -1))
SL2_X_MINUS = ((0, 0), (1, 0))


def sl2_matrix(vec: dict, sc):
    """An A1 Chevalley-coordinate vector as a 2x2 matrix of Gaussian
    rationals."""
    assert sc.rs.lie_type.rank == 1, "defining representation only wired for A1"
    basis = {0: SL2_H, sc.root_index[(1,)]: SL2_X_PLUS, sc.root_index[(-1,)]: SL2_X_MINUS}
    out = [[GaussianRational.of(0)] * 2 for _ in range(2)]
    for k, c in vec.items():
        m = basis[k]
        for i in range(2):
            for j in range(2):
                out[i][j] = out[i][j] + GaussianRational.of(c) * m[i][j]
    return tuple(tuple(row) for row in out)


def a1_disc_coordinate_in_unit_disc(t) -> bool:
    """Exact check that exp(i t y^{-alpha}) o_1 stays inside the unit disc.

    Here i y^{-alpha} = (1/2)[[1, 1], [-1, -1]] (nilpotent) and o_1 = (1 : i);
    the disc coordinate is the ratio of homogeneous coordinates.  The
    inequality reduces to t > 0.
    """
    half = Fraction(t) / 2
    # the exponential [[1 + t/2, t/2], [-t/2, 1 - t/2]] sends (1 : i) to (z0 : z1) with
    # z0 = (1 + t/2) + i t/2 and z1 = -t/2 + i (1 - t/2)
    return half**2 + (1 - half) ** 2 < (1 + half) ** 2 + half**2


#: the root directions x^{-beta} spanning g^{-1} of G2 for the grading E = S^2
G2_DIRECTIONS = ((0, -1), (-1, -1), (-2, -1), (-3, -1))


def g2_xi(sc, coeffs) -> dict:
    """The element sum c_k x^{-beta_k} of g^{-1} of G2, over ``G2_DIRECTIONS``,
    as a Chevalley-coordinate dict with its zero entries dropped."""
    return {sc.root_index[beta]: Fraction(c) for c, beta in zip(coeffs, G2_DIRECTIONS) if c}

