"""forcinglab benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s>
                             --trace <0|1> [--known-bad]

With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run.  Every child process runs from
the checkout root with `src/` on PYTHONPATH; outputs go to `.perfbench_out/`.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when the correctness gate holds, 1
when it fails, 2 on a usage error or when the checkout has no sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from worker import OUT, ROOT, SRC, WORKLOADS

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
BUDGET_S = 170.0       # one invocation of a single workload ends within this
SETUP_SAMPLES = 3      # fresh-interpreter set-ups per run; setup_s is their median
CLI_RUN_S = 6.0        # approximate length of one cli-all-s2 run on a 2-core box
# printed and logged beside the declared metrics, but not bounded in
# BENCHMARK.json: see the README
UNBOUNDED = {"unit_p90_ms": ("ms", "lower")}


class Child:
    """One finished child process: exit code, timings and output."""

    def __init__(self, cmd: list[str], deadline: float):
        err_path = os.path.join(OUT, f"child-{os.getpid()}.err")
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        with open(err_path, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                    stderr=err)
            timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
            timer.start()
            out = []
            self.marks: dict[str, float] = {}  # `ready`/`done` line -> seconds since spawn
            try:
                for line in iter(proc.stdout.readline, b""):
                    if line.strip() in (b"ready", b"done"):
                        self.marks[line.strip().decode()] = time.perf_counter() - t0
                    out.append(line)
                _, status = os.waitpid(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                proc.stdout.close()
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
            err.seek(0)
            self.stderr = err.read().decode(errors="replace")
        os.remove(err_path)
        self.stdout = b"".join(out).decode(errors="replace")
        lines = self.stdout.strip().splitlines()
        try:
            self.result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            self.result = None
        if self.code != 0:
            sys.stderr.write(f"child exited {self.code}: {' '.join(cmd[1:])}\n"
                             f"{self.stderr[-4000:]}")


def worker(workload, seed, seconds, deadline, *flags) -> Child:
    return Child([sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), *flags], deadline)


class Gate:
    """Correctness gate over every pass of one invocation: no fail record, no
    exception, every child exits 0 (the CLI may exit 1 only with fail
    records), and one check-record digest for all passes."""

    def __init__(self):
        self.counts = {"pass": 0, "fail": 0, "skip": 0}
        self.errors = 0
        self.digests: list[str] = []
        self.first_counts: dict | None = None

    def add(self, counts: dict | None, digest_: str | None, errors: int):
        if counts is not None:
            for k in self.counts:
                self.counts[k] += counts[k]
            if self.first_counts is None:
                self.first_counts = counts
        if digest_ is not None:
            self.digests.append(digest_)
        self.errors += errors

    def add_worker(self, child: Child):
        res = child.result if child.code == 0 else None
        if res is None:
            self.add(None, None, 1)
        else:
            self.add(res["counts"], res["digest"], res["exceptions"])

    @property
    def mismatches(self) -> int:
        return sum(d != self.digests[0] for d in self.digests)

    @property
    def failed(self) -> int:
        return self.counts["fail"] + self.errors + self.mismatches

    @property
    def attempted(self) -> int:
        return sum(self.counts.values()) + self.errors + self.mismatches

    def summary(self) -> dict:
        first = self.first_counts or self.counts
        return {"checks_pass": first["pass"], "checks_skip": first["skip"],
                "checks_fail": first["fail"], "errors": self.errors,
                "passes": len(self.digests), "digest_mismatches": self.mismatches,
                "fail_share": self.failed / self.attempted if self.attempted else 1.0,
                "digest": self.digests[0] if self.digests else None}


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics, steadier than one interpolated order statistic on
    the few dozen heterogeneous units of a slice."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's continued
    fraction (Numerical Recipes, 2nd ed., section 6.4)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - betainc(b, a, 1.0 - x)
    tiny = 1e-300
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return front * f


def scaled(child: Child, mark: str, factor_key: str) -> float:
    """Seconds from spawn to the child's `mark` line, scaled to the
    reference host speed by the child's own sampler."""
    res = child.result or {}
    return child.marks.get(mark, 0.0) / res.get(factor_key, 1.0)


def end_to_end(workload, seed, seconds, deadline, known_bad, gate) -> tuple[dict, dict]:
    setups: list[float] = []
    if not known_bad:
        for _ in range(SETUP_SAMPLES - (workload != "cli-all-s2")):
            probe = worker(workload, seed, seconds, deadline, "--setup-only")
            gate.add(None, None, probe.code != 0)
            setups.append(scaled(probe, "ready", "setup_speed"))
    if workload == "cli-all-s2":
        runs = []
        for _ in range(max(3, round(seconds / CLI_RUN_S))):
            child = worker(workload, seed, seconds, deadline)
            gate.add_worker(child)
            runs.append(child)
        # the unit is one whole CLI process, spawn to `done`
        unit_ms = [scaled(c, "done", "speed") * 1000 for c in runs]
        wall = statistics.median(unit_ms) / 1000
        results = [c.result or {} for c in runs]
        rss = statistics.median(r.get("peak_rss_mb", 0.0) for r in results)
        info = {"units": len(runs), "instances": "all 12 of the s2 sweep",
                "raw_s": [c.marks.get("done", 0.0) for c in runs],
                "speed": [r.get("speed") for r in results]}
    else:
        flags = ["--known-bad"] if known_bad else []
        child = worker(workload, seed, seconds, deadline, *flags)
        gate.add_worker(child)
        setups.append(scaled(child, "ready", "setup_speed"))
        res = child.result or {}
        unit_ms = res.get("unit_ms") or [0.0]
        wall = res.get("wall_s", 0.0)
        rss = res.get("peak_rss_mb", 0.0)
        info = {"units": res.get("units", 0), "instances": res.get("instances", []),
                "raw_s": res.get("raw_s"), "speed": res.get("speed")}
    metrics = {
        "wall_s": wall,
        "unit_p50_ms": quantile(unit_ms, 0.5),
        "unit_p90_ms": quantile(unit_ms, 0.9),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "checks_pass": gate.summary()["checks_pass"],
    }
    info["setup_samples_s"] = setups
    return metrics, info


def per_layer(workload, seed, seconds, deadline, gate) -> tuple[dict, dict]:
    """An untraced pass for the overhead baseline, then the traced pass."""
    plain = worker(workload, seed, seconds, deadline)
    gate.add_worker(plain)
    traced = worker(workload, seed, seconds, deadline, "--trace")
    gate.add_worker(traced)
    res = traced.result or {}
    if workload == "cli-all-s2":
        # the CLI workload's wall time is the whole process, traced or not
        plain_wall = scaled(plain, "done", "speed")
        traced_wall = scaled(traced, "done", "speed")
        traced_raw = traced.marks.get("done", 0.0)
    else:
        plain_wall = (plain.result or {}).get("wall_s", 0.0)
        traced_wall = res.get("wall_s", 0.0)
        traced_raw = res.get("raw_s", 0.0)
    metrics = dict(res.get("layers", {}))
    metrics["trace.coverage"] = res.get("span_s", 0.0) / traced_raw if traced_raw else 0.0
    metrics["trace.overhead"] = traced_wall / plain_wall if plain_wall else 0.0
    info = {"units": res.get("units", 0), "instances": res.get("instances", []),
            "spans": res.get("spans", 0), "span_file": res.get("span_file"),
            "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}
    return metrics, info


def git_commit() -> str:
    """HEAD of the checkout's .git directory, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def units_of(name: str) -> dict[str, tuple[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["unit"], m["better"]) for m in spec[name]}


def run_one(workload, seed, seconds, trace, known_bad) -> dict:
    deadline = time.monotonic() + BUDGET_S
    gate = Gate()
    if trace:
        metrics, info = per_layer(workload, seed, seconds, deadline, gate)
        declared = units_of("per_layer")
    else:
        metrics, info = end_to_end(workload, seed, seconds, deadline, known_bad, gate)
        declared = units_of("end_to_end")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "known_bad": known_bad, **info, "gate": gate.summary(),
        "metrics": metrics,
        "provenance": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "platform": platform.platform(), "commit": git_commit()},
    }
    with open(os.path.join(OUT, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(f"== {workload}  seed {seed}  seconds {seconds}  trace {trace}"
          + ("  known-bad" if known_bad else ""))
    shown = info["instances"] if isinstance(info["instances"], str) else \
        f"{len(info['instances'])} ({', '.join(info['instances'][:4])}, ...)"
    print(f"   instances {shown}  units {info['units']}  (full list in results.jsonl)")
    print("   provenance " + json.dumps(record["provenance"]))
    for name, value in metrics.items():
        unit, better = declared.get(name) or UNBOUNDED[name]
        print(f"   {name:<50} {value:>16.6f} {unit:<6} ({better} is better)")
    g = record["gate"]
    print(f"   gate: pass {g['checks_pass']}  skip {g['checks_skip']} (labeled skips, "
          f"lower is better)  fail {g['checks_fail']}  errors {g['errors']}  "
          f"fail_share {g['fail_share']:.6f} (ratio, lower is better)  "
          f"digest {g['digest']} over {g['passes']} pass(es), "
          f"{g['digest_mismatches']} mismatched")
    return {"correct": gate.failed == 0, "attempted": gate.attempted,
            "failed": gate.failed, "metrics": {
                name: {"value": metrics[name], "unit": declared[name][0]}
                for name in declared if name in metrics}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="forcinglab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--known-bad", action="store_true",
                    help="theorem2-s3 only: one unit with two pi_prime entries "
                         "swapped; the gate must fail")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.known_bad and (args.workload != "theorem2-s3" or args.trace):
        ap.error("--known-bad needs --workload theorem2-s3 --trace 0")
    if not os.path.isfile(os.path.join(SRC, "forcinglab", "__init__.py")):
        print(f"error: no forcinglab sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_one(w, args.seed, args.seconds, args.trace, args.known_bad)
               for w in names]
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({w: r for w, r in zip(names, results)}))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
