"""Command-line surface: root listings, orbit censuses, golden tables.

Exit codes: 0 ok, 2 bad arguments, 3 invalid mathematical input, 4 IO failure.
Output is tab-separated with no alignment padding (``--format tsv``) or JSON
conforming to the schema shipped in ``golden/schema_v1.json``.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import cayley, grading, reps
from .errors import HodgeOrbitError, InvalidSOS
from .rootdata import POSITIVE_ROOT_COUNTS, LieType, build_root_system

SCHEMA_VERSION = 1

#: the largest rank for which ``roots`` (the listing) and ``orbit`` build a
#: root system; above it they exit 2 before building.  Measured on 2 vCPU,
#: CPython 3.11, as whole processes: the D64 listing takes 0.45 s and 25 MB,
#: the D64 census at node 2 1.3 s and 40 MB; a D128 listing takes 1.8 s and 88 MB.
MAX_BUILD_RANK = 64


def _build(lie_type: LieType):
    if lie_type.rank > MAX_BUILD_RANK:
        raise click.BadParameter(f"rank {lie_type.rank} is above the cap {MAX_BUILD_RANK}")
    return build_root_system(lie_type)


def _parse_type(type_str, rank) -> LieType:
    try:
        if rank is not None:
            return LieType(type_str.upper(), rank)
        return LieType.parse(type_str)
    except HodgeOrbitError as exc:
        raise click.BadParameter(str(exc))


def _coords(text):
    return tuple(int(x) for x in text.split(","))


def _parse_sos(text):
    try:
        return [_coords(part) for part in text.split("|")]
    except ValueError:
        raise click.BadParameter(
            f"expected roots as comma-separated integers joined by '|', got {text!r}",
            param_hint="--sos",
        )


@click.group()
def main():
    pass


@main.command()
@click.option("--type", "type_str", required=True, help="Lie type, e.g. G2 or B.")
@click.option("--rank", type=int, default=None, help="Rank when --type is a family letter.")
@click.option("--count-only", is_flag=True, help="Print only the number of positive roots.")
@click.option("--format", "fmt", type=click.Choice(["tsv", "json"]), default="tsv")
def roots(type_str, rank, count_only, fmt):
    """List the positive roots with coords, heights and lengths."""
    lie_type = _parse_type(type_str, rank)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "roots",
        "type": str(lie_type),
        "count": POSITIVE_ROOT_COUNTS[lie_type.family](lie_type.rank),
    }
    if count_only:
        click.echo(payload["count"] if fmt == "tsv" else json.dumps(payload, sort_keys=True))
        return
    rs = _build(lie_type)
    long_d = max(rs.lengths)
    rows = [
        {
            "coords": list(b),
            "height": sum(b),
            "length": "long" if rs.root_length(b) == long_d else "short",
        }
        for b in rs.positive_roots
    ]
    if fmt == "json":
        payload["roots"] = rows
        click.echo(json.dumps(payload, sort_keys=True))
        return
    click.echo("coords\theight\tlength")
    for r in rows:
        click.echo(f"{','.join(map(str, r['coords']))}\t{r['height']}\t{r['length']}")


def _diamond_json(dia):
    return [
        {"p": p, "q": q, "dim": d} for (p, q), d in dia.entries
    ]


def _orbit_row(B, inv, dia, classes):
    return {
        "s": len(B),
        "sos": [list(b) for b in B],
        "c": inv.codim,
        "k": inv.k_dim,
        "mu": inv.mu,
        "lmhs": inv.lmhs_type,
        "classes": classes,
        "diamond": _diamond_json(dia),
    }


@main.command()
@click.option("--type", "type_str", required=True)
@click.option("--rank", type=int, default=None)
@click.option("--node", type=int, required=True, help="Marked node i of the parabolic.")
@click.option("--chain", type=click.Choice(["auto"]), default=None,
              help="'auto' runs the full boundary census.")
@click.option("--sos", "sos_str", default=None,
              help="Explicit B: roots as comma-separated coords joined by '|'.")
@click.option("--format", "fmt", type=click.Choice(["tsv", "json"]), default="tsv")
def orbit(type_str, rank, node, chain, sos_str, fmt):
    """Boundary-orbit invariants (s, B, c, k, mu, type) for G/P_node."""
    lie_type = _parse_type(type_str, rank)
    if not 1 <= node <= lie_type.rank:
        raise click.BadParameter(
            f"node {node} outside 1..{lie_type.rank}", param_hint="--node"
        )
    if (chain is None) == (sos_str is None):
        raise click.BadParameter("exactly one of --chain auto or --sos is required")
    B = None if sos_str is None else _parse_sos(sos_str)
    rs = _build(lie_type)
    try:
        E = grading.grading_element_for(rs, {node})
        if chain == "auto":
            rows = [
                _orbit_row(e.representative, e.invariants, e.diamond, e.weyl_classes)
                for e in cayley.boundary_census(rs, node)
            ]
        else:
            dia = cayley.bigrading(rs, E, B)
            rows = [_orbit_row(B, cayley._invariants_from_diamond(rs, dia), dia, 1)]
    except InvalidSOS as exc:
        for msg in exc.violations:
            click.echo(f"invalid SOS: {msg}", err=True)
        sys.exit(3)
    except HodgeOrbitError as exc:
        click.echo(f"invalid input: {exc}", err=True)
        sys.exit(3)
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "command": "orbit",
                    "type": str(rs.lie_type),
                    "node": node,
                    "rows": rows,
                },
                sort_keys=True,
            )
        )
        return
    click.echo("s\tB\tc\tk\tmu\tlmhs\tclasses")
    for r in rows:
        b_str = "|".join(",".join(map(str, b)) for b in r["sos"])
        k = "-" if r["k"] is None else r["k"]
        mu = "-" if r["mu"] is None else r["mu"]
        click.echo(f"{r['s']}\t{b_str}\t{r['c']}\t{k}\t{mu}\t{r['lmhs']}\t{r['classes']}")


@main.command()
@click.option("--all", "emit_all", is_flag=True)
@click.option("--id", "table_id", default=None)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["tsv", "json"]), default="tsv")
def tables(emit_all, table_id, out_dir, fmt):
    """Write golden TSV tables (one file per table id)."""
    if emit_all == (table_id is not None):
        raise click.BadParameter("exactly one of --all or --id is required")
    ids = TABLE_IDS if emit_all else (table_id,)
    for tid in ids:
        if tid not in TABLE_IDS:
            raise click.BadParameter(f"unknown table id {tid!r}")
    try:
        reps.dimension_cap()
    except ValueError as exc:
        click.echo(f"bad setting: {exc}", err=True)
        sys.exit(2)
    # every table is rendered before any file is opened, so a failing run
    # leaves the out directory as it was
    try:
        texts = [render_table(tid) for tid in ids]
    except HodgeOrbitError as exc:
        click.echo(f"invalid input: {exc}", err=True)
        sys.exit(3)
    written = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        for tid, text in zip(ids, texts):
            path = os.path.join(out_dir, f"{tid}.tsv")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            written.append(path)
    except OSError as exc:
        click.echo(f"IO failure: {exc}", err=True)
        sys.exit(4)
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "command": "tables",
                    "written": written,
                },
                sort_keys=True,
            )
        )
        return
    for path in written:
        click.echo(path)


# -- table builders -----------------------------------------------------------

_EXCEPTIONAL_ADJOINT = (("E6", 2), ("E7", 1), ("E8", 8), ("F4", 1), ("G2", 2))
_ADJOINT_ALL = (
    ("B3", 2), ("B4", 2), ("B5", 2), ("D4", 2), ("D5", 2), ("D6", 2),
    ("E6", 2), ("E7", 1), ("E8", 8), ("F4", 1), ("G2", 2),
)


def _rs(name):
    return build_root_system(LieType.parse(name))


def _tsv(header, rows):
    lines_ = ["\t".join(header)]
    for row in rows:
        lines_.append("\t".join(str(x) for x in row))
    return "\n".join(lines_) + "\n"


def _fmt_coords(coords):
    return ",".join(str(c) for c in coords)


def _table1():
    rows = []
    for name in ("A4", "B4", "C4", "D5", "E6", "E7", "E8", "F4", "G2"):
        rs = _rs(name)
        fund = rs.pairings(rs.highest_root)
        rows.append((name, _fmt_coords(rs.highest_root), _fmt_coords(fund)))
    return _tsv(("type", "highest_root", "fund_coords"), rows)


def _table2():
    rows = []
    for name, node in _EXCEPTIONAL_ADJOINT:
        n, d, N = reps.embedding_degree(_rs(name), {node})
        rows.append((name, n, d, N))
    return _tsv(("type", "n", "d", "N"), rows)


def _table5():
    rows = []
    for name, node in _ADJOINT_ALL:
        rs = _rs(name)
        h = rs.coroot_s_coords(rs.simple_roots[node - 1])
        rows.append((name, node, _fmt_coords(h)))
    return _tsv(("type", "node", "H_in_S_coords"), rows)


def _table6():
    rows = []
    for name, node in _ADJOINT_ALL:
        rs = _rs(name)
        alpha_i = rs.simple_roots[node - 1]
        E = grading.grading_element_for(rs, {node})
        dia = cayley.bigrading(rs, E, (alpha_i,))
        a, b = dia.dim(0, 1), dia.dim(0, 0)
        n = grading.parabolic(rs, {node}).flag_dim
        rows.append((name, 1, a, b, n, rs.dimension))
    return _tsv(("type", "one", "a", "b", "n", "dim_g"), rows)


def _table7():
    rows = []
    for name, node in _ADJOINT_ALL:
        rs = _rs(name)
        alpha_i = rs.simple_roots[node - 1]
        E = grading.grading_element_for(rs, {node})
        d = cayley.enhanced_sl2_descriptor(rs, E, (alpha_i,))
        gamma = "+".join(str(t) for t in d.gamma_type)
        rows.append((name, gamma, d.dim_x, "yes" if d.horizontal else "no"))
    return _tsv(("type", "gamma", "dim_XN", "horizontal"), rows)


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


def _as_vector(rank, spec):
    return tuple(spec.get(j + 1, 0) for j in range(rank))


def _table8():
    rows = []
    for name, node, specs in (("E7", 1, TABLE8_E7), ("E8", 8, TABLE8_E8)):
        rs = _rs(name)
        for spec in specs:
            tw = _as_vector(rs.rank, spec)
            count = grading.schubert_dim_from_grading(rs, node, tw)
            rows.append((name, _fmt_coords(tw), count))
    return _tsv(("type", "T_w", "dim"), rows)


def _table9():
    rows = []
    for name, node in _ADJOINT_ALL:
        rs = _rs(name)
        for e in cayley.boundary_census(rs, node):
            inv = e.invariants
            rows.append(
                (
                    name,
                    inv.codim,
                    inv.k_dim,
                    inv.mu,
                    inv.lmhs_type,
                    e.weyl_classes,
                    min(e.sizes),
                )
            )
    return _tsv(("type", "c", "k", "mu", "lmhs", "classes", "min_s"), rows)


def _table10():
    rows = []
    for name, node in _ADJOINT_ALL:
        rs = _rs(name)
        for e in cayley.boundary_census(rs, node):
            if e.invariants.lmhs_type not in ("II", "IIa", "IIb"):
                continue
            d = e.diamond
            rows.append(
                (
                    name,
                    e.invariants.lmhs_type,
                    d.dim(2, 0),
                    d.dim(1, 0),
                    d.dim(1, 1),
                    d.dim(0, 0),
                )
            )
    return _tsv(("type", "lmhs", "bullet", "circle", "box", "doublecircle"), rows)


def _lemma3_5():
    cases = (
        ("A5", (1, 5)),
        ("B4", (2,)),
        ("C4", (1,)),
        ("D5", (2,)),
        ("E6", (2,)),
        ("E7", (1,)),
        ("E8", (8,)),
        ("F4", (1,)),
        ("G2", (2,)),
    )
    rows = []
    for name, I in cases:
        rs = _rs(name)
        E = grading.grading_element_for(rs, set(I))
        found = reps.weights_with_E_value_one(rs, E)
        listing = ";".join(
            _fmt_coords(tuple(int(c) for c in w.fund_coords)) for w in found
        )
        rows.append((name, "+".join(f"S{i}" for i in I), listing or "-"))
    return _tsv(("type", "E", "weights"), rows)


#: Remark data: (type, node, B as coordinate strings, s, real rank)
REMARK4_18 = (
    ("E7", 5, ("0,0,0,0,1,0,0", "0,0,0,1,1,1,0", "0,1,1,2,1,0,0",
               "0,1,1,1,1,1,0", "0,1,0,1,1,1,1", "0,0,1,1,1,1,1"), 6, 7),
    ("E8", 2, ("0,1,0,0,0,0,0,0", "0,1,1,2,1,0,0,0", "1,1,1,2,1,1,0,0",
               "1,1,2,2,2,1,0,0", "1,1,2,2,1,1,1,0", "1,1,1,2,2,1,1,0",
               "0,1,1,2,2,2,1,0"), 7, 8),
    ("E8", 5, ("0,0,0,0,1,0,0,0", "0,0,0,1,1,1,0,0", "0,1,1,2,1,0,0,0",
               "0,1,1,1,1,1,0,0", "0,1,0,1,1,1,1,0", "0,0,1,1,1,1,1,0"), 6, 8),
    ("E8", 6, ("0,0,0,0,0,1,0,0", "0,0,0,0,1,1,1,0", "0,0,0,1,1,1,1,1",
               "0,1,1,2,2,1,0,0", "0,1,1,2,1,1,1,0", "0,1,1,1,1,1,1,1"), 6, 8),
    ("F4", 2, ("0,1,0,0", "1,1,1,0", "0,1,2,0"), 3, 4),
    ("G2", 1, ("1,0",), 1, 2),
)


def _remark4_18():
    rows = []
    for name, node, b_strs, s, rank_r in REMARK4_18:
        rs = _rs(name)
        E = grading.grading_element_for(rs, {node})
        B = [_coords(b) for b in b_strs]
        ok = not cayley.validate_sos(rs, E, B)
        rr = cayley.real_rank(rs, E)
        rows.append((name, node, len(B), s, rr, rank_r, "ok" if ok else "BAD"))
    return _tsv(
        ("type", "node", "len_B", "s", "real_rank", "expected_rank", "valid"), rows
    )


def _figure3():
    rows = []
    for name, node in _ADJOINT_ALL:
        rs = _rs(name)
        alpha_i = rs.simple_roots[node - 1]
        E = grading.grading_element_for(rs, {node})
        dia = cayley.bigrading(rs, E, (alpha_i,))
        for (p, q), dim in dia.entries:
            rows.append((name, p, q, dim))
    return _tsv(("type", "p", "q", "dim"), rows)


def _intro_hodge_numbers():
    cases = (
        ("G2", (1, 0), (0, 1)),
        ("G2", (0, 1), (0, 1)),
        ("F4", (0, 0, 0, 1), (1, 0, 0, 0)),
        ("E6", (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)),
        ("E7", (0, 0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0, 0)),
    )
    rows = []
    for name, fund, E in cases:
        rs = _rs(name)
        lam = reps.weight_from_fund(rs, fund)
        hodge = reps.rep_hodge_numbers(rs, lam, E)
        listing = ";".join(
            f"{q}:{hodge[q]}" for q in sorted(hodge.keys(), reverse=True)
        )
        rows.append((name, _fmt_coords(fund), _fmt_coords(E), listing))
    return _tsv(("type", "lambda", "E", "hodge"), rows)


_TABLE_BUILDERS = {
    "table1": _table1,
    "table2": _table2,
    "table5": _table5,
    "table6": _table6,
    "table7": _table7,
    "table8": _table8,
    "table9": _table9,
    "table10": _table10,
    "lemma3_5": _lemma3_5,
    "remark4_18": _remark4_18,
    "figure3": _figure3,
    "intro_hodge_numbers": _intro_hodge_numbers,
}

#: every regenerable table id, in emission order
TABLE_IDS = tuple(_TABLE_BUILDERS)


def render_table(table_id: str) -> str:
    return _TABLE_BUILDERS[table_id]()


if __name__ == "__main__":  # pragma: no cover
    main()
