"""Command-line surface: root listings, orbit censuses, the golden tables' files.

Exit codes: 0 ok, 2 bad arguments, 3 invalid mathematical input, 4 IO failure.
Output is tab-separated with no alignment padding (``--format tsv``) or JSON
conforming to the schema shipped in ``golden/schema_v1.json``.
"""

from __future__ import annotations

import functools
import json
import os
import sys

import click

from . import cayley, grading, reps
from .errors import HodgeOrbitError, InvalidSOS
from .rootdata import POSITIVE_ROOT_COUNTS, LieType, build_root_system
from .tables import TABLE_IDS, render_table

SCHEMA_VERSION = 1

#: the largest rank for which ``roots`` (the listing) and ``orbit`` build a
#: root system; above it they exit 2 before building.  Measured on 2 vCPU,
#: CPython 3.11, as whole processes: the D64 listing takes 0.16-0.23 s and 21 MB
#: (TSV) or 23 MB (JSON), the D64 census at node 2 0.22-0.25 s and 23 MB.
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


def _parse_sos(text):
    try:
        return [tuple(int(x) for x in part.split(",")) for part in text.split("|")]
    except ValueError:
        raise click.BadParameter(
            f"expected roots as comma-separated integers joined by '|', got {text!r}",
            param_hint="--sos",
        )


def _envelope(command, **fields):
    """One command's JSON envelope, as the line it prints."""
    fields.update(schema_version=SCHEMA_VERSION, command=command)
    return json.dumps(fields, sort_keys=True) + "\n"


def _echo_json(command, **fields):
    click.echo(_envelope(command, **fields), nl=False)


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
    if count_only:
        count = POSITIVE_ROOT_COUNTS[lie_type.family](lie_type.rank)
        if fmt == "json":
            _echo_json("roots", type=str(lie_type), count=count)
        else:
            click.echo(count)
        return
    # no listing holds an escape code, so click's strip_ansi pass is skipped
    click.echo(_listing(_build(lie_type), fmt), nl=False, color=True)


@functools.cache
def _listing(rs, fmt) -> str:
    """The text ``roots`` prints for ``rs`` in ``fmt``, rendered once.  ``rs``
    comes from the cached ``build_root_system``, so a listing is kept exactly
    as long as its root system."""
    long_d = max(rs.lengths)
    rows = ((b, sum(b), "long" if rs.root_length(b) == long_d else "short")
            for b in rs.positive_roots)
    if fmt == "tsv":
        return "".join(["coords\theight\tlength\n",
                        *(f"{','.join(map(str, b))}\t{h}\t{ln}\n" for b, h, ln in rows)])
    # ``_envelope``'s text written row by row: a dict tree peaks at ~20x the text
    body = ", ".join(f'{{"coords": [{", ".join(map(str, b))}], "height": {h}, "length": "{ln}"}}'
                     for b, h, ln in rows)
    return (f'{{"command": "roots", "count": {len(rs.positive_roots)}, "roots": [{body}], '
            f'"schema_version": {SCHEMA_VERSION}, "type": "{rs.lie_type}"}}\n')


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
        _echo_json("orbit", type=str(rs.lie_type), node=node, rows=rows)
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
        _echo_json("tables", written=written)
        return
    for path in written:
        click.echo(path)


if __name__ == "__main__":  # pragma: no cover
    main()
