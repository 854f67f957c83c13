"""One benchmark process: set up, run one workload closed-loop, report.

    python3 bench/worker.py --workload routes --seed 1 --seconds 50 --trace 0

bench/run.py starts this process and times its set-up from outside.
The worker prints ``READY`` once set-up (import and a warm-up on
inputs outside the timed set) is done, then, unless
``--setup-only`` is given, runs one job at a time until ``--seconds``
have passed and prints one JSON line with its raw results.

With ``--trace 1`` every job runs twice, once with the tracer's
wrappers in place and once without, in alternating order; the traced
runs give the per-layer numbers and the pair gives the overhead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402

WORKLOADS = ("routes", "cli-cold")
LAYERS = ("cli", "diffop", "exactalg", "invariant", "parsing", "puiseux",
          "series", "turrittin")
CLI_MAIN = "import sys; from ltdirac.cli import main; sys.exit(main())"
#: a job still running after this long is stopped and counts as failed,
#: so one pathological input cannot hold a run past its time limit
JOB_TIMEOUT_S = 30
TRACE_PREFIX = "BENCH-TRACE "


def import_layers():
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"ltdirac.{name}") for name in LAYERS})


def child_env():
    """Environment of CLI processes: the checkout's package first, and no
    bytecode written outside the checkout."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# -- job executors: each returns what its oracle reads ----------------


def base_field(lt, clause):
    q = lt.exactalg.FieldHandle.rationals()
    if clause == "Q":
        return q
    return q.extend(lt.exactalg.UniPoly(q, list(wl.TOWER_FIELDS[clause])), "z")


def run_operator(lt, op):
    """parse -> lt_decompose -> as_invariant at r = 1 + s -> render."""
    field = base_field(lt, op.field)
    operator = lt.parsing.parse_operator(op.text, field)
    dec = lt.turrittin.lt_decompose(operator)
    divisors = []
    for s in op.positive_slopes():
        divisor = lt.invariant.as_invariant(dec, 1 + s)
        divisors.append((1 + s, divisor.total_degree(), divisor.render()))
    return dec.total_rank, lt.turrittin.irregularity(dec), divisors


def run_matrix(lt, mat):
    q = lt.exactalg.FieldHandle.rationals()
    blocks = []
    for m, coeffs, rank in mat.pieces:
        if coeffs:
            form = lt.puiseux.ExpForm(q, m, coeffs)
            blocks.append(lt.diffop.exp_module(form, rank, q))
        else:
            blocks.append(lt.diffop.regular_module(q, rank))
    module = lt.diffop.direct_sum(*blocks) if len(blocks) > 1 else blocks[0]
    dec = lt.turrittin.lt_decompose(module)
    components = []
    for comp in dec.components:
        form = comp.form
        if all(c.is_rational() for c in form.coeffs.values()):
            key = wl.form_orbit_key(
                form.m, {j: c.as_fraction() for j, c in form.coeffs.items()})
        else:
            key = ("irrational", form.render())
        components.append((key, comp.rank, comp.orbit_size))
    return components, dec.total_rank, lt.turrittin.irregularity(dec)


class CliRunner:
    """Runs one CLI process per request and checks its stdout."""

    def __init__(self):
        self.env = child_env()
        golden_dir = ROOT / "tests" / "golden"
        self.golden = {name: (golden_dir / name).read_bytes()
                       for name, _ in wl.GOLDEN_REQUESTS}
        self.trace_parts = []

    def command(self, req, traced):
        if traced:
            return [sys.executable, str(BENCH / "trace_cli.py"), *req.argv]
        return [sys.executable, "-c", CLI_MAIN, *req.argv]

    def run(self, req, traced=False):
        proc = subprocess.run(self.command(req, traced), cwd=ROOT,
                              env=self.env, capture_output=True,
                              timeout=2 * JOB_TIMEOUT_S)
        lines = []
        for line in proc.stderr.decode(errors="replace").splitlines():
            if traced and line.startswith(TRACE_PREFIX):
                self.trace_parts.append(json.loads(line[len(TRACE_PREFIX):]))
            else:
                lines.append(line)
        return proc.returncode, proc.stdout, "\n".join(lines)

    def check(self, req, out):
        code, stdout, _ = out
        return wl.check_cli_output(req, code, stdout,
                                   self.golden.get(req.golden))


def cli_error_type(out):
    """Exception type behind a failed CLI request, from its stderr."""
    code, _, stderr = out
    if code == 0:
        return None
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if last.startswith(("error [", "parse error")):
        return "LTDiracError"
    name = last.partition(":")[0]
    return name if name.isidentifier() else "other"


# -- set-up -----------------------------------------------------------


class Workload:
    """The rounds of timed inputs with the executor and oracle for them."""

    def __init__(self, name, seed):
        if name == "cli-cold":
            self.lt = None
            cli = CliRunner()
            self.trace_parts = cli.trace_parts
            self.rounds = wl.cli_rounds(seed)
            self.execute = cli.run
            self.check = cli.check
            warm = [wl.warm_request()]
        else:
            self.lt = lt = import_layers()
            self.rounds = wl.routes_rounds(seed)
            self.execute = lambda job, traced=False: (
                run_matrix(lt, job) if isinstance(job, wl.MatrixInput)
                else run_operator(lt, job))
            self.check = lambda job, out: (
                wl.check_matrix_result(job, *out)
                if isinstance(job, wl.MatrixInput)
                else wl.check_operator_job(job, *out))
            warm = wl.warm_routes()
        for job in warm:
            self.execute(job)
        self.defects = wl.defect_operators(seed)

    def attempt(self, job, traced=False):
        """(latency, error type or None, mismatch reason or None)."""
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
        try:
            out = self.execute(job, traced)
        except JobTimeout:
            return perf_counter() - start, "timeout", None
        except Exception as exc:  # a job that raises counts as failed
            return perf_counter() - start, _error_type(exc), None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = perf_counter() - start
        if self.lt is None:
            error = cli_error_type(out)
            if error:
                return latency, error, None
        return latency, None, self.check(job, out)


def run_defects(work, lt):
    """Run the known-defect operators once, untimed, on the operator
    route; return {error type: count} of those that raised."""
    raised = {}
    for op in work.defects:
        try:
            run_operator(lt, op)
        except Exception as exc:  # the defect shows as a raise
            kind = _error_type(exc)
            raised[kind] = raised.get(kind, 0) + 1
    return raised


class JobTimeout(BaseException):
    """Raised in a job that ran past JOB_TIMEOUT_S.  It derives from
    BaseException so that no ``except Exception`` inside the job can
    swallow it."""


def _raise_timeout(signum, frame):
    raise JobTimeout()


def _error_type(exc):
    for cls in type(exc).__mro__:
        if cls.__name__ == "LTDiracError":
            return "LTDiracError"
    return type(exc).__name__


# -- the timed loop ---------------------------------------------------


class Tally:
    def __init__(self):
        self.latencies = []
        self.errors = {}
        self.mismatches = []
        self.families = {}

    def add(self, job, latency, error, reason):
        self.latencies.append(latency)
        stats = self.families.setdefault(job.family, [0, 0, []])
        stats[0] += 1
        stats[2].append(latency)
        if error:
            self.errors[error] = self.errors.get(error, 0) + 1
        elif reason:
            self.errors["oracle_mismatch"] = \
                self.errors.get("oracle_mismatch", 0) + 1
            if len(self.mismatches) < 10:
                self.mismatches.append(f"{job.describe()}: {reason}")
        else:
            stats[1] += 1

    @property
    def ok(self):
        return sum(s[1] for s in self.families.values())

    def summary(self):
        return {
            "attempted": len(self.latencies), "ok": self.ok,
            "errors": self.errors, "mismatches": self.mismatches,
            "families": {k: {"jobs": v[0], "ok": v[1],
                             "median_s": statistics.median(v[2])}
                         for k, v in sorted(self.families.items())},
        }


def tail(latencies):
    """(value, percentile, samples) of the highest percentile with at
    least ten samples beyond it.  Short runs have fewer than twenty
    samples; the percentile is then held at the median, never below."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 10, (n + 1) // 2)
    return ordered[k - 1], 100.0 * k / n, n


def run_plain(work, seconds):
    """Jobs in schedule order until ``seconds`` have passed; the rounds
    interleave their input classes, so any stretch has the same mix."""
    tally = Tally()
    queue = (job for batch in work.rounds for job in batch)
    start = perf_counter()
    deadline = start + seconds
    while perf_counter() < deadline:
        job = next(queue)
        tally.add(job, *work.attempt(job))
    wall = perf_counter() - start
    value, pct, n = tail(tally.latencies)
    who = resource.RUSAGE_CHILDREN if work.lt is None else resource.RUSAGE_SELF
    out = tally.summary()
    out.update({
        "wall_s": wall,
        "jobs_ok_per_s": tally.ok / wall,
        "latency_p50_s": statistics.median(tally.latencies),
        "latency_tail_s": value, "tail_percentile": pct, "tail_samples": n,
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024.0,
    })
    if work.lt is not None:
        out["known_defect"] = {"run": len(work.defects),
                               "raised": run_defects(work, work.lt)}
    return out


def run_traced(work, seconds):
    import probes
    import tracer

    recorder = tracer.Recorder()
    installation = tracer.Installation(recorder) if work.lt else None
    plain, traced = Tally(), Tally()
    plain_s = traced_s = 0.0
    idx = matrix_jobs = 0
    queue = (job for batch in work.rounds for job in batch)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        job = next(queue)
        matrix_jobs += isinstance(job, wl.MatrixInput)
        for with_trace in ((False, True) if idx % 2 == 0 else (True, False)):
            if with_trace and installation:
                recorder.job = idx
                installation.apply()
            try:
                latency, error, reason = work.attempt(job, with_trace)
            finally:
                if with_trace and installation:
                    installation.remove()
            (traced if with_trace else plain).add(job, latency, error, reason)
            if with_trace:
                traced_s += latency
            else:
                plain_s += latency
        idx += 1

    if installation:
        agg = recorder.snapshot()
        spans = agg.pop("spans")
    else:
        agg, spans = {}, []
        for part in work.trace_parts:
            tracer.merge(agg, part)
            spans.append(part.get("spans", []))
    jobs = len(traced.latencies)
    layers = tracer.layer_metrics(agg, jobs, matrix_jobs)
    for kind in ("AssertionError", "LTDiracError", "oracle_mismatch"):
        layers[f"errors.{kind}"] = (traced.errors.get(kind, 0), "count")
    layers["errors.other"] = (sum(
        v for k, v in traced.errors.items()
        if k not in ("AssertionError", "LTDiracError", "oracle_mismatch")),
        "count")
    layers["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    layers["trace.jobs"] = (jobs, "count")
    layers.update(cli_start_metrics())
    lt = work.lt or import_layers()
    raised = run_defects(work, lt)
    layers["errors.split_orbit_raised"] = (sum(raised.values()), "count")
    layers.update(probes.run_probes(lt))
    out = {
        "attempted": len(plain.latencies) + jobs,
        "ok": plain.ok + traced.ok,
        "errors": {k: plain.errors.get(k, 0) + traced.errors.get(k, 0)
                   for k in set(plain.errors) | set(traced.errors)},
        "mismatches": plain.mismatches + traced.mismatches,
        "families": traced.summary()["families"],
        "layers": layers,
        "spans": spans,
        "dropped_spans": agg.get("dropped_spans", 0),
        "known_defect": {"run": len(work.defects), "raised": raised},
    }
    return out


def cli_start_metrics(reps=5):
    """Bare interpreter start, and a fresh ``import ltdirac`` beyond it."""
    env = child_env()
    bare, loaded = [], []
    for _ in range(reps):
        for code, bucket in (("pass", bare), ("import ltdirac", loaded)):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           check=True, timeout=2 * JOB_TIMEOUT_S)
            bucket.append(perf_counter() - start)
    start_s = statistics.median(bare)
    return {"cli.interp_start_s": (start_s, "s"),
            "cli.import_s": (statistics.median(loaded) - start_s, "s")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    signal.signal(signal.SIGALRM, _raise_timeout)
    work = Workload(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = (run_traced if args.trace else run_plain)(work, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
