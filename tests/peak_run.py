"""Time ``forcinglab run`` on two source trees in alternation, with each
run's peak resident memory and the sha256 of its report.

Usage::

    python tests/peak_run.py TREE_A TREE_B [--rounds N] -- RUN_FLAGS...

for example, the measuring workload on a parent export beside this tree::

    python tests/peak_run.py ../parent . --rounds 3 -- \\
        --suite all --max-poset 3 --max-stages 4 --seed 1

Each tree is a checkout with the package under ``src/``.  Round r runs
TREE_A first when r is odd and TREE_B first when it is even, one run at a
time, each as ``python -m forcinglab.cli run RUN_FLAGS --out <temporary
file>`` with only that tree's ``src`` on PYTHONPATH and stdout discarded.
The peak is the run's own ``ru_maxrss``, read from ``os.wait4`` on its
process: ``getrusage(RUSAGE_CHILDREN)`` would give the high-water mark
over every child waited for so far, so after a larger run each later one
would read the same.  One JSON line per run (round, tree, exit code, wall
seconds, peak MB, sha256).  Then, per tree, the median and the lower and
upper quartile of its wall times, its median peak, and the rounds it won:
those in which it ran faster than the other tree, a tie counting for
neither.  Last, whether every report hashed the same.  So one run shows
whether a tree is faster by the claim rule: it wins nine rounds in ten,
and its median lies further from the other's than the other's quartiles
lie apart.  The report file is deleted once hashed.  Not collected by
pytest (the name has no ``test_``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def measure(tree: Path, flags: list[str]) -> dict:
    """One ``forcinglab run`` of ``tree``: exit code, wall seconds, peak MB
    and the report's sha256 (None when no report was written)."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.jsonl"
        argv = [sys.executable, "-m", "forcinglab.cli", "run", *flags,
                "--out", str(out)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        return {"exit": os.waitstatus_to_exitcode(status),
                "wall_s": round(wall, 3),
                # Linux reports ru_maxrss in KiB
                "peak_mb": round(usage.ru_maxrss / 1024, 1),
                "sha256": sha256_of(out) if out.exists() else None}


def main(argv: list[str]) -> int:
    head, flags = (argv[:argv.index("--")], argv[argv.index("--") + 1:]) \
        if "--" in argv else (argv, [])
    ap = argparse.ArgumentParser(
        prog="peak_run.py", usage="%(prog)s TREE_A TREE_B [--rounds N] -- RUN_FLAGS...")
    ap.add_argument("trees", nargs=2, type=Path)
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args(head)
    trees = [t.resolve() for t in args.trees]
    for tree in trees:
        if not (tree / "src" / "forcinglab").is_dir():
            ap.error(f"{tree} has no src/forcinglab")
    runs: dict[Path, list[dict]] = {t: [] for t in trees}
    for r in range(1, args.rounds + 1):
        for tree in trees if r % 2 else trees[::-1]:
            run = measure(tree, flags)
            runs[tree].append(run)
            print(json.dumps({"round": r, "tree": str(tree), **run}), flush=True)
    walls = {t: [x["wall_s"] for x in runs[t]] for t in trees}
    for tree, other in (trees, trees[::-1]):
        # quantiles needs two values; one run is its own quartiles
        q1, median, q3 = walls[tree] * 3 if len(walls[tree]) < 2 else \
            statistics.quantiles(walls[tree], n=4, method="inclusive")
        print(json.dumps({
            "tree": str(tree), "runs": len(runs[tree]),
            "q1_wall_s": round(q1, 3), "median_wall_s": round(median, 3),
            "q3_wall_s": round(q3, 3),
            "median_peak_mb": statistics.median(x["peak_mb"] for x in runs[tree]),
            "rounds_won": sum(a < b for a, b in zip(walls[tree], walls[other]))}))
    hashes = {x["sha256"] for rs in runs.values() for x in rs}
    print(json.dumps({"same_report": len(hashes) == 1 and None not in hashes}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
