"""Benchmark of ltdirac: one seeded workload, checked, with its metrics.

    python3 bench/run.py --workload routes --seed 1 --seconds 50 --trace 0

Workloads (closed loop, one client, inputs made from the seed):

  routes    in one process, interleaved: the operator route over Q
            (parse, lt_decompose, as_invariant at r = 1 + s for each
            positive slope s, render), the same jobs over Q(sqrt 2),
            Q(i) and Q(2^(1/3)), and lt_decompose of direct sums of
            exp_module/regular_module (the matrix route)
  cli-cold  one ltdirac CLI process per request

Set-up is timed from outside: the worker process is started several
times and each start is timed until it reports ready; ``setup_s`` is
the median.  Then one worker runs the timed loop.  With ``--trace 0``
the last line of stdout holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  Lines
before it are a readable report; the full result, with the environment
and the recorded spans, is written under bench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("routes", "cli-cold")
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run or a worker misbehaved."""


def start_worker(args, setup_only):
    cmd = [sys.executable, "-B", str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc, start


def finish_worker(proc, start):
    """(set-up seconds, last stdout line) of a worker, which has ended."""
    try:
        first = proc.stdout.readline()
        setup = perf_counter() - start
        rest = proc.stdout.read()
        proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return setup, rest.strip().splitlines()[-1] if rest.strip() else ""


def environment(seed):
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "seed": seed, "commit": "unknown", "src_sha256": src_digest()}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            env["commit"] = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    import sympy
    from sympy.external.gmpy import GROUND_TYPES
    env["sympy"] = sympy.__version__
    env["ground_types"] = GROUND_TYPES
    return env


def src_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ltdirac").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def report(args, env, setup, raw, metrics):
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"setup samples (s): {', '.join(f'{s:.3f}' for s in setup)}")
    attempted, ok = raw["attempted"], raw["ok"]
    print(f"jobs attempted {attempted}, ok {ok}, "
          f"fail_frac {(attempted - ok) / attempted:.4f}, "
          f"errors {raw['errors']}")
    if "known_defect" in raw:
        defect = raw["known_defect"]
        print(f"known defect, untimed: {sum(defect['raised'].values())} of "
              f"{defect['run']} split-orbit operators raised "
              f"{defect['raised']}")
    if "tail_percentile" in raw:
        print(f"latency_tail_s is p{raw['tail_percentile']:.1f} "
              f"of {raw['tail_samples']} samples")
    for family, stats in raw["families"].items():
        print(f"  {family:28s} jobs {stats['jobs']:5d}  ok {stats['ok']:5d}"
              f"  median {stats['median_s']:.4f} s")
    for reason in raw["mismatches"]:
        print(f"  MISMATCH {reason}")
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Run one ltdirac benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    package = ROOT / "src" / "ltdirac" / "__init__.py"
    golden = ROOT / "tests" / "golden"
    if not package.is_file() or not golden.is_dir():
        print(f"error: {package} or {golden} is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # compile the checkout once, untimed, so no timed start pays for
    # bytecode; every process started here runs with -B or
    # PYTHONDONTWRITEBYTECODE and writes no bytecode of its own
    compileall.compile_dir(str(ROOT / "src" / "ltdirac"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)

    try:
        probes = 0 if args.trace else SETUP_SAMPLES - 1
        setup = [finish_worker(*start_worker(args, True))[0]
                 for _ in range(probes)]
        first, line = finish_worker(*start_worker(args, False))
        setup.append(first)
        raw = json.loads(line)
    except (BenchError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in raw["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "jobs_ok_per_s": {"value": raw["jobs_ok_per_s"], "unit": "1/s"},
            "latency_p50_s": {"value": raw["latency_p50_s"], "unit": "s"},
            "latency_tail_s": {"value": raw["latency_tail_s"], "unit": "s"},
            "peak_rss_mib": {"value": raw["peak_rss_mib"], "unit": "MiB"},
        }
    env = environment(args.seed)
    report(args, env, setup, raw, metrics)

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w", encoding="utf-8") as handle:
        json.dump({"env": env, "args": vars(args), "setup_s": setup,
                   "metrics": metrics, "raw": raw}, handle)

    mismatched = raw["errors"].get("oracle_mismatch", 0)
    print(json.dumps({
        "correct": mismatched == 0,
        "attempted": raw["attempted"],
        "failed": raw["attempted"] - raw["ok"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
