"""One benchmark run in a fresh interpreter.

    python3 perfbench/worker.py --workload W --inputs IN.json --result OUT.json [--trace]
    python3 perfbench/worker.py --setup-only --result OUT.json

The run imports ``hodgeorbit.cli`` first and stamps CLOCK_MONOTONIC when the
import returns; ``run.py`` stamped the same clock just before starting the
process, so the difference is the set-up time.  Everything else the run needs
is imported after that stamp.  The timed region runs from the first call into
the library to the end of the last one.  Outputs are checked after it, against
the golden tables, the reference digests and closed forms; peak RSS is read
before the checks.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import hodgeorbit.cli  # noqa: E402

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

import hodgeorbit.chevalley  # noqa: E402
from hodgeorbit import cli, rootdata  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

GOLDEN = os.path.join(ROOT, "golden")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def call_cli(main, argv):
    """Run one CLI query in-process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rv = main(argv, standalone_mode=False)
            code = rv if isinstance(rv, int) else 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - a crash is a failed query, not a crashed run
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


# -- paper_tables -----------------------------------------------------------


def run_paper_tables(inputs, work_dir, tracer):
    out_dir = os.path.join(work_dir, "tables")
    shutil.rmtree(out_dir, ignore_errors=True)
    tids = inputs["table_ids"]
    if inputs["all"]:
        commands = [(["tables", "--all", "--out", out_dir], tids)]
    else:
        commands = [(["tables", "--id", tid, "--out", out_dir], [tid]) for tid in tids]
    main = tracer.span("cli.main", cli.main) if tracer else cli.main
    results, latencies = [], []
    first = time.perf_counter()
    for i, (argv, _) in enumerate(commands):
        if tracer:
            tracer.qid = i
        t0 = time.perf_counter()
        results.append(call_cli(main, argv))
        latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - first
    rss = peak_rss_mb()

    failures = {}
    for (argv, ids), (code, out, err) in zip(commands, results):
        listed = [os.path.join(out_dir, f"{tid}.tsv") for tid in ids]
        if code != 0 or err or out.splitlines() != listed:
            failures.update((tid, f"{' '.join(argv)}: exit {code}, stdout {out!r}") for tid in ids)
    for tid in tids:
        with open(os.path.join(GOLDEN, f"{tid}.tsv"), "rb") as fh:
            want = fh.read()
        try:
            with open(os.path.join(out_dir, f"{tid}.tsv"), "rb") as fh:
                got = fh.read()
        except OSError:
            got = None
        if got != want:
            failures.setdefault(tid, f"{tid}.tsv differs from golden/")
    return {"wall_s": wall, "latencies_ms": [x * 1e3 for x in latencies], "peak_rss_mb": rss,
            "attempted": len(tids), "failed": len(failures), "failures": list(failures.values()),
            "cli_bytes": sum(len(out.encode()) for _, out, _ in results)}


# -- chevalley_forms ------------------------------------------------------------


def run_chevalley_forms(inputs, work_dir, tracer):
    """Per form: structure constants, the verified rational form and one
    standard triple per noncompact simple root; then the Jacobi sweeps."""
    chev = hodgeorbit.chevalley
    sweeps = [(name, workloads.jacobi_triples(name, seed, n))
              for name, seed, n in inputs["sweeps"]]
    done, latencies = [], []
    first = time.perf_counter()
    for i, (name, T) in enumerate(inputs["forms"]):
        if tracer:
            tracer.qid = i
        t0 = time.perf_counter()
        try:
            rs = rootdata.root_system(name)
            sc = chev.structure_constants(rs)
            form = chev.rational_form(sc, tuple(T))
            simple = [tuple(int(k == j) for k in range(rs.rank)) for j in range(rs.rank)]
            triples = {j + 1: chev.cayley_standard_triple(sc, simple[j], tuple(T))
                       for j in range(rs.rank) if T[j] % 2}
            done.append((rs, sc, form, triples))
        except Exception as exc:  # noqa: BLE001 - counted as failed operations
            done.append(f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0)
    for i, (name, (xs, ys, zs)) in enumerate(sweeps, start=len(inputs["forms"])):
        if tracer:
            tracer.qid = i
        t0 = time.perf_counter()
        try:
            sc = chev.structure_constants(rootdata.root_system(name))
            jacobi = chev.jacobi_residual
            nonzero = sum(1 for a, b, c in zip(xs, ys, zs) if jacobi(sc, a, b, c))
            done.append((sc, nonzero))
        except Exception as exc:  # noqa: BLE001 - counted as failed operations
            done.append(f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - first
    rss = peak_rss_mb()

    with open(os.path.join(REFERENCE, "chevalley_forms.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    attempted, failures = 0, []

    def fail(n, msg):
        failures.extend([msg] * n)

    for (name, T), item in zip(inputs["forms"], done):
        key = f"{name} {','.join(map(str, T))}"
        want = ref[f"form {key}"]
        ops = 2 + sum(t % 2 for t in T)  # structure constants, form, triples
        attempted += ops
        if isinstance(item, str):
            fail(ops, f"{key}: {item}")
            continue
        rs, sc, form, triples = item
        if checks.structure_constants_digest(sc) != ref[f"structure_constants {name}"]:
            fail(1, f"{name}: structure constants differ from reference")
        errors = checks.rational_form_errors(name, T, rs, form)
        if checks.rational_form_digest(sc, form) != want["form"]:
            errors.append("rational form differs from reference")
        if errors:
            fail(1, f"{key}: {'; '.join(errors)}")
        for node, triple in triples.items():
            if checks.triple_digest(sc, triple) != want["triples"][str(node)]:
                fail(1, f"{key}: standard triple at node {node} differs from reference")
    for (name, (xs, _, _)), item in zip(sweeps, done[len(inputs["forms"]):]):
        attempted += 1 + len(xs)
        if isinstance(item, str):
            fail(1 + len(xs), f"{name} sweep: {item}")
            continue
        sc, nonzero = item
        if checks.structure_constants_digest(sc) != ref[f"structure_constants {name}"]:
            fail(1, f"{name}: structure constants differ from reference")
        fail(nonzero, f"{name}: nonzero Jacobi residual")
    return {"wall_s": wall, "latencies_ms": [x * 1e3 for x in latencies], "peak_rss_mb": rss,
            "attempted": attempted, "failed": len(failures), "failures": sorted(set(failures)),
            "cli_bytes": 0}


# -- classical_census ---------------------------------------------------------


def run_classical_census(inputs, work_dir, tracer):
    queries = inputs["queries"]
    main = tracer.span("cli.main", cli.main) if tracer else cli.main
    first_out, records, latencies = {}, [], []
    first = time.perf_counter()
    for i, argv in enumerate(queries):
        if tracer:
            tracer.qid = i
        t0 = time.perf_counter()
        code, out, err = call_cli(main, argv)
        latencies.append(time.perf_counter() - t0)
        key = " ".join(argv)
        same = first_out.setdefault(key, out) == out
        records.append((key, code, same, err))
    wall = time.perf_counter() - first
    rss = peak_rss_mb()

    with open(os.path.join(REFERENCE, "classical_census.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    with open(os.path.join(GOLDEN, "schema_v1.json"), encoding="utf-8") as fh:
        schema = json.load(fh)
    failures = []
    verdict = {}
    for argv in queries:
        key = " ".join(argv)
        if key in verdict:
            continue
        out = first_out[key]
        want = ref[key]
        errors = checks.cli_output_errors(argv, want["exit"], out, schema)
        if hashlib.sha256(out.encode()).hexdigest() != want["sha256"]:
            errors.append("stdout differs from reference")
        verdict[key] = errors
    for key, code, same, err in records:
        want = ref[key]
        problems = list(verdict[key])
        if code != want["exit"]:
            problems.append(f"exit {code}, reference {want['exit']}")
        if not same:
            problems.append("repeat gave different output")
        if "Traceback" in err:
            problems.append("traceback on stderr")
        if problems:
            failures.append(f"{key}: {'; '.join(problems)}")
    return {"wall_s": wall, "latencies_ms": [x * 1e3 for x in latencies], "peak_rss_mb": rss,
            "attempted": len(queries), "failed": len(failures), "failures": sorted(set(failures)),
            "cli_bytes": sum(len(first_out[k].encode()) for k, *_ in records)}


RUNNERS = {
    "paper_tables": run_paper_tables,
    "chevalley_forms": run_chevalley_forms,
    "classical_census": run_classical_census,
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(RUNNERS))
    ap.add_argument("--inputs")
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    result = {"imported_at": IMPORTED_AT}
    if not args.setup_only:
        with open(args.inputs, encoding="utf-8") as fh:
            inputs = json.load(fh)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        work_dir = os.path.dirname(os.path.abspath(args.result))
        result.update(RUNNERS[args.workload](inputs, work_dir, tracer))
        if tracer:
            result["spans"] = tracer.finish()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
