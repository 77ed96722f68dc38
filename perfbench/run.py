"""hodgeorbit benchmark: three workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload {paper_tables,chevalley_forms,classical_census}
                             --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout (it needs ``src/`` and ``golden/``).
Inputs are generated from ``--seed`` in this process.  Every measured run is
a fresh interpreter (``worker.py``) started one after another, never two at
once, so the library's caches start empty the same way on every commit.  The
``--seconds`` budget holds the import-only set-up probes and then runs, started
until the next one would end after it; there are always at least two untraced
runs, and with ``--trace 1`` at least one untraced and one traced.

The last line of stdout is the result; the line before it is the run record
(machine, load, raw samples).  The exit code is 0 only when every operation
gave the correct output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 40
MIN_PLAIN = 2  # untraced workers per run, so wall_s is never a single draw
DEADLINE_S = 170  # the whole invocation, with room to stop a stuck worker


class BenchError(Exception):
    pass


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_layout():
    needed = [os.path.join("src", "hodgeorbit", "cli.py"), os.path.join("golden", "schema_v1.json")]
    needed += [os.path.join("golden", f"{tid}.tsv") for tid in workloads.TABLE_IDS]
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        raise BenchError(f"not a hodgeorbit source checkout: missing {', '.join(missing)}")


def commit_id() -> str:
    """HEAD of the checkout's own git repository; 'unknown' outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    def __init__(self, work_dir: str, started: float):
        self.work_dir = work_dir
        self.started = started
        self.count = 0

    def spawn(self, *args) -> dict:
        """Start one worker, wait for it, return its result and its duration."""
        self.count += 1
        result_path = os.path.join(self.work_dir, f"result_{self.count}.json")
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("HODGEORBIT_DIM_CAP", None)
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise BenchError("out of time before the next run")
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            [sys.executable, WORKER, "--result", result_path, *args],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker {' '.join(args)} still running after {timeout:.0f} s")
        t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
        if proc.returncode != 0:
            raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err}{out}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(result_path)
        result["setup_s"] = result.pop("imported_at") - t0
        result["process_s"] = t1 - t0
        return result


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (statistics 'inclusive' method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def run(args) -> tuple[dict, dict]:
    started = time.monotonic()
    load_start = os.getloadavg()[0]
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run_", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        inputs = workloads.GENERATORS[args.workload](args.seed, args.smoke)
        inputs_path = os.path.join(work_dir, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump(inputs, fh)
        runner = Runner(work_dir, started)
        runner.spawn("--setup-only")  # untimed: compiles bytecode on a fresh checkout
        t_measure = time.monotonic()
        setup = [runner.spawn("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]

        plain, traced = [], []
        while True:
            want_trace = args.trace and len(traced) < len(plain)
            cmd = ["--workload", args.workload, "--inputs", inputs_path]
            res = runner.spawn(*cmd, *(["--trace"] if want_trace else []))
            (traced if want_trace else plain).append(res)
            elapsed = time.monotonic() - t_measure
            mean = statistics.fmean(r["process_s"] for r in plain + traced)
            too_few = not traced if args.trace else len(plain) < MIN_PLAIN
            if too_few:
                continue
            if elapsed + mean > args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    everything = plain + traced
    setup += [r["setup_s"] for r in everything]
    latencies = [x for r in plain for x in r["latencies_ms"]]
    walls = [r["wall_s"] for r in plain]
    rss = [r["peak_rss_mb"] for r in plain]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    failures = sorted({m for r in everything for m in r["failures"]})

    spec = benchmark_spec()
    if args.trace:
        per_process = []
        for r in traced:
            missing = tracing.missing_coverage(args.workload, r["spans"]) if not args.smoke else []
            if missing:
                raise BenchError(f"traced run never entered {', '.join(missing)}: "
                                 "a public function was renamed or moved")
            per_process.append(tracing.layer_metrics(r["spans"], r["cli_bytes"]))
        values = tracing.median_metrics(per_process)
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(walls))
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "query_p50_ms": quantile(latencies, 0.5),
            "query_p90_ms": quantile(latencies, 0.9),
            "peak_rss_mb": statistics.median(rss),
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "commit": commit_id(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "failed_frac": failed / attempted,
        "failures": failures[:20],
        "samples": {
            "wall_s": walls,
            "traced_wall_s": [r["wall_s"] for r in traced],
            "setup_s": setup,
            "peak_rss_mb": rss,
            "query_ms": latencies,
            "queries_per_process": [len(r["latencies_ms"]) for r in plain],
        },
    }
    return record, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args()
    try:
        check_layout()
        record, result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    if not result["correct"]:
        print(f"{result['failed']} of {result['attempted']} operations failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
