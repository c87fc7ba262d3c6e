"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; lalg is taken from ``src/`` there.  The
run times set-up in several fresh processes, runs the workload in one more
fresh process (``PYTHONHASHSEED=0``, one thread, commands back to back),
checks every output against facts computed without lalg (outside the timed
region), and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are wall_s, setup_s and peak_rss_mb; with
``--trace 1`` they are the per-layer metrics of bench/tracing.py.  A record
of the run (and, when traced, its spans) goes to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 6  # set-up-only processes; the measuring process adds a seventh sample
CHILD_TIMEOUT_S = 150


def spawn(argv: list[str], env: dict, stderr_path: str) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with the seconds until it printed ``ready``."""
    with open(stderr_path, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != b"ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready; see {stderr_path}")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> int:
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()


def measure(workload: str, seed: int, seconds: float, trace: bool, src: str, workdir: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    worker = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), workdir, str(seconds), "1" if trace else "0"]
    stderr_path = os.path.join(workdir, "stderr.txt")
    setups = []
    for _ in range(SETUP_PROBES):
        proc, setup = spawn(worker + ["--setup-only"], env, stderr_path)
        finish(proc, 60)
        setups.append(setup)
    proc, setup = spawn(worker, env, stderr_path)
    setups.append(setup)
    if finish(proc, CHILD_TIMEOUT_S) != 0:
        raise RuntimeError(f"worker failed; see {stderr_path}")
    with open(os.path.join(workdir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    summary["setup_samples"] = setups
    return summary


def checker_for(workload: str, seed: int, src: str, workdir: str) -> tuple[checks.Checker, list[str]]:
    problems: list[str] = []
    corpus: dict[str, checks.Facts] = {}
    if workload == "corpus":
        corpus = checks.corpus_facts()
    elif workload == "enum5":
        sys.path.insert(0, src)
        from lalg.constructions import enumerate_all

        corpus, problems = checks.enumeration_facts(enumerate_all)
    files = {
        os.path.join(workdir, workloads.file_name(tab)): checks.table_facts(tab)
        for tab in workloads.tables(workload, seed)
    }
    return checks.Checker(corpus, files, seed), problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark one lalg workload.")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "lalg", "__init__.py")):
        print("error: no src/lalg here; run from the root of a lalg checkout", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace), src, workdir)
        checker, problems = checker_for(args.workload, args.seed, src, workdir)
        if not summary["lalg"].startswith(src + os.sep):
            problems.append(f"measured {summary['lalg']}, not the checkout's src")
        attempted = failed = 0
        for rnd in summary["rounds"]:
            for cmd in rnd["commands"]:
                with open(cmd["out"], encoding="utf-8") as fh:
                    outcome = checker.check(cmd["argv"], cmd["rc"], fh.read(), cmd["error"])
                attempted += outcome.ops
                failed += outcome.failed
                problems += [p for p in outcome.problems if p not in problems]
        spans_path = os.path.join(workdir, "spans.json")
        results = os.path.join(HERE, "results")
        os.makedirs(results, exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if os.path.exists(spans_path):
            shutil.move(spans_path, os.path.join(results, f"spans-{tag}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only when no other run is using it

    if args.trace:
        traced = [r["metrics"] for r in summary["rounds"] if r["traced"]]
        metrics = {
            name: {"value": statistics.median(m[name] for m in traced), "unit": unit}
            for name, unit, _ in tracing.METRICS
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = {"value": summary["overhead_s"], "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in summary["rounds"]), "unit": "s"},
            "setup_s": {"value": statistics.median(summary["setup_samples"]), "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": [
            {
                "traced": r["traced"],
                "wall_s": r["wall_s"],
                "raw_s": r["raw_s"],
                "command_raw_s": [c["seconds"] for c in r["commands"]],
                "probe_s": [x for c in r["commands"] for x in c["probes"]],
            }
            for r in summary["rounds"]
        ],
        "setup_samples": summary["setup_samples"],
        "problems": problems,
        "result": result,
    }
    with open(os.path.join(results, f"run-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
