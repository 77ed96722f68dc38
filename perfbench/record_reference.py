"""Record the reference outputs the benchmark compares against.

    python3 perfbench/record_reference.py

Run once, at the commit whose outputs are the reference; later commits must
reproduce them exactly.  It writes ``perfbench/reference/``:

* ``sos_pool.json``: the explicit ``--sos`` inputs, per census type: up to two
  strongly orthogonal sets of each size from ``cayley.iter_sos`` and three
  pairs that are deliberately not strongly orthogonal (their sum or
  difference is a root);
* ``classical_census.json``: exit code and stdout SHA-256 of every argv the
  classical_census generator can produce;
* ``chevalley_forms.json``: digests of the structure constants of every
  type used and of the rational form and standard triples of every
  (type, T) the chevalley_forms generator can produce.

Every recorded output must also pass the closed-form checks in ``checks.py``.
Takes about six minutes, single process.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from hodgeorbit import cayley, chevalley, cli, grading, rootdata  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import call_cli  # noqa: E402

OUT = os.path.join(HERE, "reference")
VALID_PER_SIZE, INVALID = 2, 3


def dump(name: str, doc: dict):
    """One top-level key per line, so a changed entry shows as one changed line."""
    path = os.path.join(OUT, name)
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(doc.items())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {path}", file=sys.stderr)


def sos_pool() -> dict:
    pool = {}
    for name in workloads.census_types():
        rs = rootdata.root_system(name)
        E = grading.grading_element_for(rs, {workloads.CENSUS_NODE})
        by_size: dict = {}
        for B in cayley.iter_sos(rs, E):
            kept = by_size.setdefault(len(B), [])
            if len(kept) < VALID_PER_SIZE:
                kept.append([list(b) for b in B])
        valid = [B for size in sorted(by_size) for B in by_size[size]]
        cand = cayley.sos_candidates(rs, E)
        bad = [
            [list(a), list(b)]
            for i, a in enumerate(cand)
            for b in cand[i + 1:]
            if rs.is_root(tuple(x + y for x, y in zip(a, b)))
            or rs.is_root(tuple(x - y for x, y in zip(a, b)))
        ]
        step = max(1, len(bad) // INVALID)
        pool[name] = {"valid": valid, "invalid": bad[::step][:INVALID]}
    return pool


def census_reference() -> dict:
    with open(os.path.join(ROOT, "golden", "schema_v1.json"), encoding="utf-8") as fh:
        schema = json.load(fh)
    pool = workloads.load_sos_pool()
    invalid = {" ".join(workloads.sos_argv(name, b, fmt))
               for name in pool for b in pool[name]["invalid"] for fmt in workloads.FORMATS}
    ref = {}
    for argv in workloads.census_domain():
        code, out, err = call_cli(cli.main, argv)
        if code != (3 if " ".join(argv) in invalid else 0) or "Traceback" in err:
            raise SystemExit(f"{argv}: exit {code}\n{err}")
        errors = checks.cli_output_errors(argv, code, out, schema)
        if errors:
            raise SystemExit(f"{argv}: {errors}")
        ref[" ".join(argv)] = {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}
    return ref


def chevalley_reference() -> dict:
    ref = {}
    for name in workloads.FORM_TYPES + workloads.SWEEP_TYPES:
        rs = rootdata.root_system(name)
        sc = chevalley.structure_constants(rs)
        ref[f"structure_constants {name}"] = checks.structure_constants_digest(sc)
        if name not in workloads.FORM_TYPES:
            continue
        for T in workloads.gradings(name):
            form = chevalley.rational_form(sc, T)
            errors = checks.rational_form_errors(name, T, rs, form)
            if errors:
                raise SystemExit(errors)
            triples = {}
            for j in range(rs.rank):
                if T[j] % 2:
                    simple = tuple(int(k == j) for k in range(rs.rank))
                    triples[str(j + 1)] = checks.triple_digest(
                        sc, chevalley.cayley_standard_triple(sc, simple, T))
            key = f"{name} {','.join(map(str, T))}"
            ref[f"form {key}"] = {"form": checks.rational_form_digest(sc, form), "triples": triples}
            print(key, file=sys.stderr, flush=True)
    return ref


def main():
    os.makedirs(OUT, exist_ok=True)
    dump("sos_pool.json", sos_pool())  # the census reference reads the pool back
    dump("classical_census.json", census_reference())
    dump("chevalley_forms.json", chevalley_reference())


if __name__ == "__main__":
    main()
