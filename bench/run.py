"""Benchmark of cokrig: three workloads, checked outputs, named metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload design-search --seed 1 --seconds 10 --trace 0

``--workload`` is ``cli-session``, ``design-search``, ``large-transect``
or ``all``.  A run repeats whole rounds of its workload's operation list
until ``--seconds`` have passed, checks every output against the
independent references in ``reference.py``, writes a result file under
``bench-results/`` and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run
alternates untraced and traced rounds, writes the spans next to the
result file and reports the per-layer metrics.  See README.md.
"""

import os

# Fixed before numpy loads its BLAS; children inherit the setting.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / "bench-results"
WORKLOAD_NAMES = ("cli-session", "design-search", "large-transect")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 60
PROBE_EVERY_S = 2.5
PROBE_MIN_SLICES = 8

# End-to-end metrics: unit and the operation kind each is measured on.
E2E = {
    "setup_s": ("s", None),
    "wall_s": ("s", None),
    "peak_rss_mb": ("MB", None),
    "cli_call_s": ("s", "cli"),
    "optimize_s": ("s", "optimize"),
    "criterion_sites_per_s": ("sites/s", "criterion"),
    "risk_s": ("s", "risk"),
    "predict_targets_per_s": ("targets/s", "predict"),
    "cokrige_targets_per_s": ("targets/s", "cokrige"),
    "fit_s": ("s", "fit"),
}

@dataclass
class Record:
    op: Any
    seconds: float
    output: Any
    error: str | None


# --------------------------------------------------------------------------
# per-layer metric table
# --------------------------------------------------------------------------

def per_layer_table(wl):
    """``(name, unit, source)`` of every per-layer metric, all lower-better.

    ``source`` is ``("span", name)`` for the median duration of those
    spans, ``("import", key)``, ``("extra", key)`` for values gathered
    from outputs, ``("self", layer)`` or ``("overhead",)``.
    """
    t = [(f"import.{k}_s", "s", ("import", k))
         for k in ("interpreter", "cokrig", "cokrig_criteria", "scipy_integrate")]
    t += [(f"cli.{c}_s", "s", ("span", f"cli.{c}")) for c in wl.CLI_SUBCOMMANDS]
    t += [("stations.ingest_s", "s", ("span", "stations.ingest"))]
    t += [(f"design.{f}_s", "s", ("span", f"design.{f}"))
          for f in ("construct", "gap_array", "points")]
    t += [(f"kernel.{f}_s", "s", ("span", f"kernel.{f}"))
          for f in ("precision_matrix", "quad_forms_at", "ones_quadratic_form")]
    t += [(f"criteria.{c}.{m}.n{n}_s", "s", ("span", f"criteria.{c}.{m}.n{n}"))
          for n in (8, wl.N_LARGE) for c in wl.CRITERIA for m in wl.MODELS]
    t += [(f"criteria.risk_peak_mb.n{wl.N_LARGE}", "MB", ("extra", "risk_peak_mb"))]
    t += [(f"optimizer.optimize_s.{c}.{m}.n{n}", "s", ("span", f"optimizer.optimize.{c}.{m}.n{n}"))
          for c, m, n in wl.PROBLEMS]
    t += [(f"optimizer.evaluations.{c}.{m}.n{n}", "count", ("extra", f"evaluations.{c}.{m}.n{n}"))
          for c, m, n in wl.PROBLEMS
          if f"optimize.{c}.{m}.n{n}" not in wl.EXPECTED_FAILURES]
    t += [("optimizer.unconverged", "count", ("extra", "unconverged"))]
    t += [(f"predict.{f}_s", "s", ("span", f"predict.{f}"))
          for f in ("simple_krige", "ordinary_krige", "mspe_closed_form")]
    t += [(f"predict.{m}_cokrige_s.{fam}", "s", ("span", f"predict.{m}_cokrige.{fam}"))
          for m in wl.MODELS for fam in ("gm", "ns2")]
    t += [(f"covmodel.build_joint_covariance_s.{fam}", "s",
           ("span", f"covmodel.build_joint_covariance.{fam}")) for fam in ("gm", "ns2")]
    t += [("covmodel.validate_s", "s", ("span", "covmodel.validate"))]
    t += [(f"mle.{f}_s", "s", ("span", f"mle.{f}"))
          for f in ("simulate_observations", "loglikelihood")]
    t += [(f"mle.fit_mle_s.{k}", "s", ("span", f"mle.fit_mle.{k}"))
          for k in (f"n17r{wl.FULL.fit_replicates}", "long")]
    t += [(f"self.{layer}_s", "s", ("self", layer))
          for layer in ("bench", "cli", "optimizer", "design", "criteria", "predict", "mle")]
    t += [("trace.overhead_s", "s", ("overhead",))]
    return t


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------

def run_round(ops, tracer, between=None):
    """Run each operation after the previous one returns; check afterwards.

    ``between``, when given, is called after each operation, outside its
    timing.  Returns the records and the id of the round's span.
    """
    records = []
    root = len(getattr(tracer, "spans", ()))
    with tracer.span("round"):
        for op in ops:
            with tracer.span("op:" + op.name):
                t0 = time.perf_counter()
                try:
                    output, error = op.run(tracer), None
                except Exception as exc:  # recorded as a failed operation
                    output, error = None, f"{type(exc).__name__}: {exc}"
                records.append(Record(op, time.perf_counter() - t0, output, error))
            if between is not None:
                between()
    for rec in records:
        if rec.error is None:
            try:
                rec.op.check(rec.output)
            except Exception as exc:  # a wrong or malformed output
                rec.error = f"{type(exc).__name__}: {exc}"
    return records, root


def measure_setup(workload, seed):
    """Seconds from starting a fresh interpreter to its first operation being ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
    return elapsed


def import_times(wl):
    """Interpreter start and ``import cokrig`` costs from ``-X importtime``."""
    samples = {k: [] for k in ("interpreter", "cokrig", "cokrig_criteria", "scipy_integrate")}
    env = wl.child_env(ROOT)
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       timeout=CHILD_TIMEOUT_S)
        samples["interpreter"].append(time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cokrig"],
                              env=env, check=True, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        entries = []
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[0].strip().isdigit():
                name = fields[2].rstrip()
                level = (len(name) - len(name.lstrip()) - 1) // 2
                entries.append((level, name.strip(), int(fields[1]) * 1e-6))
        cum = {name: t for _, name, t in entries}
        samples["cokrig"].append(cum.get("cokrig", 0.0))
        samples["cokrig_criteria"].append(cum.get("cokrig.criteria", 0.0))
        samples["scipy_integrate"].append(integrate_time(entries))
    return {k: statistics.median(v) for k, v in samples.items()}


def integrate_time(entries):
    """Cumulative import time of the ``scipy.integrate`` modules, nesting counted once.

    ``-X importtime`` prints a module after the modules it imports, one
    indentation level deeper; walking the lines backwards, the names seen
    last at the lower levels are a line's enclosing imports.
    """
    enclosing, total = [], 0.0
    for level, name, cum in reversed(entries):
        del enclosing[level:]
        enclosing += [""] * (level - len(enclosing))
        ours = name == "scipy.integrate" or name.startswith("scipy.integrate.")
        if ours and not any(e.startswith("scipy.integrate") for e in enclosing):
            total += cum
        enclosing.append(name)
    return total


def summary(samples, value=None):
    """A metric's value, with the median and quartiles of its repetitions."""
    med = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (med, med, med)
    return {"value": med if value is None else value, "median": med, "q1": q1, "q3": q3,
            "repetitions": len(samples)}


def op_times(rounds):
    """Each operation's times over the rounds, by name."""
    times = {}
    for recs in rounds:
        for r in recs:
            times.setdefault(r.op.name, []).append(r.seconds)
    return times


def op_medians(rounds):
    """Each operation's median time over the rounds, by name."""
    return {name: statistics.median(t) for name, t in op_times(rounds).items()}


def kind_metric(kind, rounds):
    """The metric measured on ``kind`` operations, and its value per round.

    Each operation's time is its median over the rounds, which keeps a
    slow moment of the machine from moving the metric.  ``cli_call_s``
    and ``risk_s`` take the median over operations and ``optimize_s``
    the mean (a median over nine single searches of 0.2 to 5.5 s moved
    by a quarter between runs); throughputs divide the operations'
    units by their summed times, and ``fit_s`` sums the times.
    """
    per_round = [[r for r in recs if r.op.kind == kind
                  and (kind != "optimize" or r.error is None)] for recs in rounds]
    per_round = [recs for recs in per_round if recs]
    units = {r.op.name: r.op.units for recs in per_round for r in recs}

    def reduce(times):
        if kind == "optimize":
            return statistics.mean(times.values())
        if kind in ("cli", "risk"):
            return statistics.median(times.values())
        if kind == "fit":
            return sum(times.values())
        return sum(units[n] for n in times) / sum(times.values())

    return (reduce(op_medians(per_round)),
            [reduce({r.op.name: r.seconds for r in recs}) for recs in per_round])


def machine_info():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import mpmath
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS}


def op_counts(rounds):
    counts = {}
    for recs in rounds:
        for r in recs:
            c = counts.setdefault(r.op.kind, {"attempted": 0, "failed": 0})
            c["attempted"] += 1
            c["failed"] += r.error is not None
    return counts


def failures(records, wl):
    seen = {}
    for r in records:
        if r.error is not None:
            seen.setdefault(r.op.name, {"expected": r.op.name in wl.EXPECTED_FAILURES,
                                        "error": r.error[:500]})
    return seen


class Prober:
    """Slices of small operations for the metrics a workload makes no call for.

    A slice runs between two workload operations once ``PROBE_EVERY_S``
    have passed since the last one, so the probe's samples spread over
    the whole run as the workload's own do; ``finish`` tops them up to
    ``PROBE_MIN_SLICES``.
    """

    def __init__(self, wl, ctx, kinds):
        self.wl, self.ctx, self.kinds = wl, ctx, sorted(kinds)
        self.slices = []
        self.due = time.perf_counter() + PROBE_EVERY_S

    def run_slice(self):
        ops = [op for kind in self.kinds
               for op in self.wl.probe_slice(self.ctx, kind, len(self.slices))]
        self.slices.append(run_round(ops, spans.NullTracer())[0])
        self.due = time.perf_counter() + PROBE_EVERY_S

    def __call__(self):
        if self.kinds and time.perf_counter() >= self.due:
            self.run_slice()

    def finish(self):
        while self.kinds and len(self.slices) < PROBE_MIN_SLICES:
            self.run_slice()
        return self.slices


def timed_rounds(build, ctx, tracer, seconds, between=None):
    """Whole rounds until ``seconds`` have passed: records and root spans."""
    rounds, roots = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        recs, root = run_round(build(ctx, len(rounds)), tracer, between)
        rounds.append(recs)
        roots.append(root)
    return rounds, roots


def end_to_end_metrics(args, rounds, probe, setups):
    """The end-to-end metrics, from the rounds or, for other kinds, the probe.

    When a run has more than one round of operations that run in this
    process, the first only warms the process (its kriging calls, for
    one, take twice as long as later ones): it is checked and counted,
    but the times come from the rounds after it.  The ``cokrig`` calls of
    cli-session each start a fresh interpreter, so all their rounds count.
    """
    native = {r.op.kind for r in rounds[0]}
    timed = rounds if native == {"cli"} else rounds[1:] or rounds
    if args.workload == "cli-session":
        peak = [max(r.output[3] for recs in rounds for r in recs
                    if r.output and not math.isnan(r.output[3]))]
    else:
        peak = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    metrics = {}
    for name, (unit, kind) in E2E.items():
        value = None
        if name == "setup_s":
            samples = setups
        elif name == "wall_s":
            value = sum(op_medians(timed).values())
            samples = [sum(r.seconds for r in recs) for recs in timed]
        elif name == "peak_rss_mb":
            samples = peak
        else:
            value, samples = kind_metric(kind, timed if kind in native else probe)
        metrics[name] = dict(summary(samples, value), unit=unit)
    return metrics


def layer_metrics(args, wl, ctx, tracer, rounds, roots):
    """The per-layer metrics of a traced run."""
    cost = spans.span_cost()
    ends = roots[1:] + [len(tracer.spans)]
    overhead = [cost * (end - root) for root, end in zip(roots, ends)]
    extra = wl.layer_probe(args.workload, ctx, tracer)
    for recs in rounds:
        opt = [r for r in recs if r.op.kind == "optimize" and r.error is None]
        for r in opt:
            extra.setdefault("evaluations." + r.op.name.removeprefix("optimize."),
                             []).append(r.output["evaluations"])
        if opt:
            extra.setdefault("unconverged", []).append(sum(not r.output["converged"] for r in opt))
    imports = import_times(wl)
    selfs = [tracer.self_times([root]) for root in roots]
    metrics = {}
    for name, unit, source in per_layer_table(wl):
        if source[0] == "span":
            samples = tracer.durations(source[1])
        elif source[0] == "import":
            samples = [imports[source[1]]]
        elif source[0] == "extra":
            samples = extra.get(source[1], [])
        elif source[0] == "self":
            samples = [s.get(source[1], 0.0) for s in selfs]
        else:
            samples = overhead
        metrics[name] = dict(summary(samples or [0.0]), unit=unit)
    tracer.dump(RESULTS / f"TRACE_{args.workload}_seed{args.seed}.json")
    return metrics


def run_workload(args, wl, ctx):
    build = wl.WORKLOADS[args.workload]
    if args.trace:
        tracer = spans.Tracer()
        rounds, roots = timed_rounds(build, ctx, tracer, args.seconds)
        metrics, probe = layer_metrics(args, wl, ctx, tracer, rounds, roots), []
    else:
        setups = [measure_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
        kinds = {k for _, k in E2E.values() if k} - {op.kind for op in build(ctx, 0)}
        prober = Prober(wl, ctx, kinds)
        rounds, _ = timed_rounds(build, ctx, spans.NullTracer(), args.seconds, prober)
        probe = prober.finish()
        metrics = end_to_end_metrics(args, rounds, probe, setups)

    failed_ops = failures([r for recs in rounds + probe for r in recs], wl)
    correct = all(f["expected"] for f in failed_ops.values())
    attempted = sum(len(recs) for recs in rounds)
    failed = sum(r.error is not None for recs in rounds for r in recs)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(),
        "round_wall_s": [sum(r.seconds for r in recs) for recs in rounds],
        "correct": correct, "attempted": attempted, "failed": failed,
        "operations": op_counts(rounds), "probe_operations": op_counts(probe),
        "op_seconds": op_times(rounds), "probe_op_seconds": op_times(probe),
        "failures": failed_ops, "metrics": metrics,
    }
    (RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}}


def run_all(args):
    """Every workload, untraced then traced; prints a table of all metrics."""
    results = {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}")
            results[f"{workload}/trace{trace}"] = json.loads(proc.stdout.splitlines()[-1])
    for key, res in results.items():
        print(f"== {key}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:45s} {m['value']:14.6g} {m['unit']}")
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{k}/{n}": m for k, r in results.items() for n, m in r["metrics"].items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cokrig" / "__init__.py").is_file():
        print(f"error: no cokrig sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        ctx = wl.Context(ROOT, workdir, args.seed)
        if args.setup_only:
            wl.WORKLOADS[args.workload](ctx, 0)
            print("ready", flush=True)
            return 0
        line = run_workload(args, wl, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
