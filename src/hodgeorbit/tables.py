"""The paper's tables (arXiv 1407.4507), one tab-separated text per table id.

``TABLES`` maps each id to its header and a function yielding its rows, and
``render_table`` writes them one line each.  The files under ``golden/`` are
these texts, committed.  The six tables over the fundamental adjoint cases
``_ADJOINT_ALL`` share one loop and supply only their rows for one
``(name, rs, node)``.
"""

from __future__ import annotations

from . import cayley, grading, reps
from .rootdata import root_system

_EXCEPTIONAL_ADJOINT = (("E6", 2), ("E7", 1), ("E8", 8), ("F4", 1), ("G2", 2))
_ADJOINT_ALL = (
    ("B3", 2), ("B4", 2), ("B5", 2), ("D4", 2), ("D5", 2), ("D6", 2),
    *_EXCEPTIONAL_ADJOINT,
)

#: the defining grading elements of the maximal horizontal Schubert varieties
TABLE8_E7 = (
    {1: -1, 3: 1},
    {1: -1, 5: 1},
    {1: -2, 3: 1, 6: 1},
    {1: -3, 3: 1, 5: 1, 7: 1},
    {1: -2, 4: 1, 7: 1},
    {1: -1, 2: 1, 7: 1},
    {7: 1},
)
TABLE8_E8 = (
    {2: 1, 8: -1},
    {5: 1, 8: -2},
    {2: 1, 6: 1, 8: -3},
    {2: 1, 5: 1, 7: 1, 8: -5},
    {4: 1, 7: 1, 8: -4},
    {3: 1, 7: 1, 8: -3},
    {1: 1, 7: 1, 8: -2},
    {7: 1, 8: -1},
)

#: Remark data: (type, node, B in simple-root coordinates, s, real rank)
REMARK4_18 = (
    ("E7", 5, ((0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 1, 1, 1, 0), (0, 1, 1, 2, 1, 0, 0),
               (0, 1, 1, 1, 1, 1, 0), (0, 1, 0, 1, 1, 1, 1), (0, 0, 1, 1, 1, 1, 1)), 6, 7),
    ("E8", 2, ((0, 1, 0, 0, 0, 0, 0, 0), (0, 1, 1, 2, 1, 0, 0, 0), (1, 1, 1, 2, 1, 1, 0, 0),
               (1, 1, 2, 2, 2, 1, 0, 0), (1, 1, 2, 2, 1, 1, 1, 0), (1, 1, 1, 2, 2, 1, 1, 0),
               (0, 1, 1, 2, 2, 2, 1, 0)), 7, 8),
    ("E8", 5, ((0, 0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1, 0, 0), (0, 1, 1, 2, 1, 0, 0, 0),
               (0, 1, 1, 1, 1, 1, 0, 0), (0, 1, 0, 1, 1, 1, 1, 0), (0, 0, 1, 1, 1, 1, 1, 0)),
     6, 8),
    ("E8", 6, ((0, 0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 1, 1, 0), (0, 0, 0, 1, 1, 1, 1, 1),
               (0, 1, 1, 2, 2, 1, 0, 0), (0, 1, 1, 2, 1, 1, 1, 0), (0, 1, 1, 1, 1, 1, 1, 1)),
     6, 8),
    ("F4", 2, ((0, 1, 0, 0), (1, 1, 1, 0), (0, 1, 2, 0)), 3, 4),
    ("G2", 1, ((1, 0),), 1, 2),
)


def _as_vector(rank, spec):
    return tuple(spec.get(j + 1, 0) for j in range(rank))


def _fmt_coords(coords):
    return ",".join(map(str, coords))


def _adjoint(rows_at):
    """The rows of ``rows_at(name, rs, node)`` over every fundamental adjoint case."""

    def rows():
        for name, node in _ADJOINT_ALL:
            yield from rows_at(name, root_system(name), node)

    return rows


def _simple_root_diamond(rs, node):
    """The bigrading of B = (alpha_node,)."""
    E = grading.grading_element_for(rs, {node})
    return cayley.bigrading(rs, E, (rs.simple_roots[node - 1],))


def _table1():
    for name in ("A4", "B4", "C4", "D5", "E6", "E7", "E8", "F4", "G2"):
        rs = root_system(name)
        yield name, _fmt_coords(rs.highest_root), _fmt_coords(rs.pairings(rs.highest_root))


def _table2():
    for name, node in _EXCEPTIONAL_ADJOINT:
        yield (name, *reps.embedding_degree(root_system(name), {node}))


def _table5(name, rs, node):
    yield name, node, _fmt_coords(rs.coroot_s_coords(rs.simple_roots[node - 1]))


def _table6(name, rs, node):
    dia = _simple_root_diamond(rs, node)
    n = grading.parabolic(rs, {node}).flag_dim
    yield name, 1, dia.dim(0, 1), dia.dim(0, 0), n, rs.dimension


def _table7(name, rs, node):
    E = grading.grading_element_for(rs, {node})
    d = cayley.enhanced_sl2_descriptor(rs, E, (rs.simple_roots[node - 1],))
    yield name, "+".join(map(str, d.gamma_type)), d.dim_x, "yes" if d.horizontal else "no"


def _table8():
    for name, node, specs in (("E7", 1, TABLE8_E7), ("E8", 8, TABLE8_E8)):
        rs = root_system(name)
        for spec in specs:
            tw = _as_vector(rs.rank, spec)
            yield name, _fmt_coords(tw), grading.schubert_dim_from_grading(rs, node, tw)


def _table9(name, rs, node):
    for e in cayley.boundary_census(rs, node):
        inv = e.invariants
        yield name, inv.codim, inv.k_dim, inv.mu, inv.lmhs_type, e.weyl_classes, min(e.sizes)


def _table10(name, rs, node):
    for e in cayley.boundary_census(rs, node):
        if e.invariants.lmhs_type in ("II", "IIa", "IIb"):
            d = e.diamond
            yield (name, e.invariants.lmhs_type,
                   d.dim(2, 0), d.dim(1, 0), d.dim(1, 1), d.dim(0, 0))


def _lemma3_5():
    cases = (
        ("A5", (1, 5)), ("B4", (2,)), ("C4", (1,)), ("D5", (2,)), ("E6", (2,)),
        ("E7", (1,)), ("E8", (8,)), ("F4", (1,)), ("G2", (2,)),
    )
    for name, I in cases:
        rs = root_system(name)
        found = reps.weights_with_E_value_one(rs, grading.grading_element_for(rs, set(I)))
        listing = ";".join(_fmt_coords(int(c) for c in w.fund_coords) for w in found)
        yield name, "+".join(f"S{i}" for i in I), listing or "-"


def _remark4_18():
    for name, node, B, s, rank_r in REMARK4_18:
        rs = root_system(name)
        E = grading.grading_element_for(rs, {node})
        valid = "BAD" if cayley.validate_sos(rs, E, B) else "ok"
        yield name, node, len(B), s, cayley.real_rank(rs, E), rank_r, valid


def _figure3(name, rs, node):
    for (p, q), dim in _simple_root_diamond(rs, node).entries:
        yield name, p, q, dim


def _intro_hodge_numbers():
    cases = (
        ("G2", (1, 0), (0, 1)),
        ("G2", (0, 1), (0, 1)),
        ("F4", (0, 0, 0, 1), (1, 0, 0, 0)),
        ("E6", (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)),
        ("E7", (0, 0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0, 0)),
    )
    for name, fund, E in cases:
        rs = root_system(name)
        hodge = reps.rep_hodge_numbers(rs, reps.weight_from_fund(rs, fund), E)
        listing = ";".join(f"{q}:{hodge[q]}" for q in sorted(hodge, reverse=True))
        yield name, _fmt_coords(fund), _fmt_coords(E), listing


#: table id -> (header, function yielding the rows), in emission order
TABLES = {
    "table1": (("type", "highest_root", "fund_coords"), _table1),
    "table2": (("type", "n", "d", "N"), _table2),
    "table5": (("type", "node", "H_in_S_coords"), _adjoint(_table5)),
    "table6": (("type", "one", "a", "b", "n", "dim_g"), _adjoint(_table6)),
    "table7": (("type", "gamma", "dim_XN", "horizontal"), _adjoint(_table7)),
    "table8": (("type", "T_w", "dim"), _table8),
    "table9": (("type", "c", "k", "mu", "lmhs", "classes", "min_s"), _adjoint(_table9)),
    "table10": (("type", "lmhs", "bullet", "circle", "box", "doublecircle"),
                _adjoint(_table10)),
    "lemma3_5": (("type", "E", "weights"), _lemma3_5),
    "remark4_18": (("type", "node", "len_B", "s", "real_rank", "expected_rank", "valid"),
                   _remark4_18),
    "figure3": (("type", "p", "q", "dim"), _adjoint(_figure3)),
    "intro_hodge_numbers": (("type", "lambda", "E", "hodge"), _intro_hodge_numbers),
}

#: every regenerable table id, in emission order
TABLE_IDS = tuple(TABLES)


def render_table(table_id: str) -> str:
    header, rows = TABLES[table_id]
    return "".join("\t".join(map(str, row)) + "\n" for row in (header, *rows()))
