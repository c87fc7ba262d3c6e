"""Re-measure the single-run reference figures listed under ROADMAP item 1.

    python3 bench/baseline.py          # from the repository root; about 2 minutes

Each figure is one wall-clock run in this process, so read them as orders of
magnitude; the steady numbers come from bench/run.py.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import inputs  # noqa: E402
from lalg.cli import main as lalg_main  # noqa: E402
from lalg.constructions import Fixture, enumerate_all  # noqa: E402
from lalg.formats import load_algebra  # noqa: E402
from lalg.ideals import enumerate_ideals  # noqa: E402
from lalg.laws import run_suite  # noqa: E402


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = lalg_main(argv)
    return rc, out.getvalue()


def antichain(k: int, workdir: str):
    path = os.path.join(workdir, f"anti{k}.lalg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inputs.to_text(inputs.anti(k)))
    return load_algebra(path)


def main() -> int:
    workdir = os.path.join(HERE, "work", f"baseline-{os.getpid()}")
    os.makedirs(workdir)
    rows = []
    s, (rc, out) = timed(lambda: cli(["laws"]))
    rows.append(("lalg laws (default corpus)", f"{s:.2f} s, exit {rc}, {out.strip().splitlines()[-1]}"))
    s, (rc, out) = timed(lambda: cli(["laws", "--enumerate", "4"]))
    rows.append(("laws --enumerate 4", f"{s:.2f} s, exit {rc}, {out.strip().splitlines()[-1]}"))
    s_enum, algs = timed(lambda: [a for n in range(1, 6) for a in enumerate_all(n, up_to_iso=True)])
    s_laws, reports = timed(lambda: run_suite([Fixture(a.name, a) for a in algs]))
    fails = sum(r.verdict == "fail" for r in reports)
    rows.append(("laws --enumerate 5 --iso", f"{len(algs)} algebras, {fails} failures, {s_laws:.2f} s of laws plus {s_enum:.2f} s of enumeration"))
    s, count = timed(lambda: sum(1 for _ in enumerate_all(5)))
    rows.append(("enumerate_all(5)", f"{count} tables in {s:.2f} s"))
    for k in (7, 8, 9):
        alg = antichain(k, workdir)
        s, lat = timed(lambda: enumerate_ideals(alg))
        rows.append((f"enumerate_ideals, anti{k}", f"{len(lat)} ideals in {s:.2f} s"))
    alg = antichain(8, workdir)
    s, reports = timed(lambda: run_suite([Fixture(alg.name, alg)]))
    heavy = sorted(reports, key=lambda r: -r.time_s)[:2]
    rows.append(("full law suite, anti8", f"{s:.1f} s ({', '.join(f'{r.law} {r.time_s:.1f} s' for r in heavy)})"))
    for path in os.listdir(workdir):
        os.remove(os.path.join(workdir, path))
    os.rmdir(workdir)
    with contextlib.suppress(OSError):
        os.rmdir(os.path.dirname(workdir))
    for name, value in rows:
        print(f"| {name} | {value} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
