"""One workload in one fresh process: set up, then run whole rounds.

    python3 bench/worker.py WORKLOAD SEED WORKDIR SECONDS TRACE [--setup-only]

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src``.  The worker imports lalg, writes the workload's input files into
WORKDIR and prints ``ready``; the parent times set-up up to that line.  It
then runs rounds of CLI commands through ``lalg.cli.main`` in-process, with
stdout captured, until the next round would end after SECONDS.  With TRACE
set to 1 the rounds alternate untraced and traced, starting untraced.  Each
command's output goes to a file (outside the timed region) and a summary to
WORKDIR/summary.json (spans of a traced run to WORKDIR/spans.json, written
once at the end); the parent checks the outputs.

Host speed.  On a shared 2-core VM the same command runs up to 1.5 times
slower in some minutes than in others, and process CPU time slows with it.
So an untraced run also samples the host's speed while each command runs:
every 50 ms a SIGALRM handler times a fixed probe (``oracle.all_ideals`` on
chain3^2, benchmark code that no change to lalg can touch).  A command's
time at the reference speed is its own time, less the probes, times
PROBE_REF_S over the mean probe duration.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import lalg  # noqa: E402
import lalg.cli  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 0.0018  # one probe at the reference host speed; fixes the scale of wall_s
_PROBE = inputs.power(inputs.chain3(), 2)
_PROBE_TABLE = [list(row) for row in _PROBE.table]


class HostProbe:
    """Times the fixed probe every PROBE_INTERVAL_S while armed."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        oracle.all_ideals(_PROBE_TABLE, _PROBE.unit)
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "HostProbe":
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def run_command(argv: list[str], probe: HostProbe | None):
    """Run one command; return (seconds, probe samples, rc, stdout, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with probe or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = lalg.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation, not a crashed bench
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    samples = probe.samples if probe else []
    return seconds, samples, rc, out.getvalue(), err.getvalue(), error


def at_reference_speed(commands: list[dict]) -> float:
    """Sum of command times less their probes, each scaled to the reference speed.

    A command with fewer than three probes takes the round's mean probe.
    """
    all_samples = [x for c in commands for x in c["probes"]]
    round_mean = statistics.fmean(all_samples) if all_samples else PROBE_REF_S
    total = 0.0
    for c in commands:
        mean = statistics.fmean(c["probes"]) if len(c["probes"]) >= 3 else round_mean
        total += (c["seconds"] - sum(c["probes"])) * PROBE_REF_S / mean
    return total


def main(argv: list[str]) -> int:
    workload, seed, workdir, seconds, trace = argv[1], int(argv[2]), argv[3], float(argv[4]), argv[5] == "1"
    paths = []
    for tab in workloads.tables(workload, seed):
        path = os.path.join(workdir, workloads.file_name(tab))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inputs.to_text(tab))
        paths.append(path)
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0

    cmds = workloads.commands(workload, paths)
    tracer = Tracer() if trace else None
    probe = None if trace else HostProbe()  # probes inside traced spans would skew self times
    rounds = []
    began = time.perf_counter()
    while True:
        k = len(rounds)
        traced = tracer is not None and k % 2 == 1
        round_start = time.perf_counter()
        if traced:
            tracer.install()
            mark = tracer.mark()
        results = []
        for c, cmd in enumerate(cmds):
            gc.collect()
            seconds_taken, samples, rc, out, err, error = run_command(cmd, probe)
            if traced:
                tracer.counts["cli.stdout_bytes"] += len(out.encode())
            out_path = os.path.join(workdir, f"r{k}c{c}.out")
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(out)
            results.append(
                {
                    "argv": cmd,
                    "seconds": seconds_taken,
                    "probes": samples,
                    "rc": rc,
                    "out": out_path,
                    "stderr": err[-2000:],
                    "error": error,
                }
            )
            del out
        entry = {
            "traced": traced,
            "raw_s": sum(r["seconds"] for r in results),
            "wall_s": at_reference_speed(results),
            "commands": results,
        }
        if traced:
            tracer.uninstall()
            entry["metrics"] = tracer.round_metrics(mark)
        rounds.append(entry)
        last = time.perf_counter() - round_start
        elapsed = time.perf_counter() - began
        if tracer is not None and len(rounds) < 2:
            continue
        if elapsed + last > seconds:
            break

    summary = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": rounds,
        "lalg": os.path.abspath(lalg.__file__),
    }
    if tracer is not None:
        plain = [r["raw_s"] for r in rounds if not r["traced"]]
        traced_walls = [r["raw_s"] for r in rounds if r["traced"]]
        summary["overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)
        with open(os.path.join(workdir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans()}, fh)
    with open(os.path.join(workdir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
