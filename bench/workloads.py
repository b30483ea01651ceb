"""The benchmark's three workloads: generated inputs, operations, checks.

A workload is a fixed list of operations that one round runs in order,
each issued after the previous one returns.  Every operation carries a
check against ``reference``; the program only ever sees the inputs
generated here.  Round ``r`` of a run with seed ``s`` draws its inputs
from ``numpy.random.default_rng([s, r])``.

Importing this module imports ``cokrig``, so ``run.py`` puts the
checkout's ``src`` on ``sys.path`` first.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import cokrig as ck
import reference as ref
from reference import CheckFailed

THETA = 17.12
PRIOR = (12.12, 22.12)
CRITERIA = ("smspe", "imspe", "risk_smspe", "risk_imspe")
MODELS = ("simple", "ordinary")

# The published 17-station river network, as normalized gaps.
NETWORK_GAPS = (0.04, 0.02, 0.04, 0.09, 0.20, 0.06, 0.12, 0.13,
                0.04, 0.04, 0.02, 0.05, 0.04, 0.07, 0.02, 0.02)

# Shared-component (``gm``) and slow-cross (``ns2``) models for
# cokriging; the likelihood uses the ``gm`` parameters as the truth.
GM = {"theta": THETA, "sigma11": 0.85, "sigma22": 0.94, "rho": 0.25}
NS2 = {"lam": math.exp(-THETA), "lamc": 0.5, "alpha": 0.75,
       "sigma11": 0.85, "sigma22": 0.94}
TRUTH = (GM["theta"], GM["sigma11"], GM["sigma22"], GM["rho"])

SIM_REPLICATES = 8
SITE_TARGETS = 4


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of the large-transect operations."""

    large: int = 100_000
    risk: int = 100_000
    dense: int = 1_000
    long: int = 300
    fit_replicates: int = 200
    krige_targets: int = 40
    cokrige_targets: int = 1


FULL = Sizes()
N_LARGE = FULL.large

# A workload that makes no call of some metric's kind measures that
# metric on slices of small operations of the kind (``probe_slice``).
PROBE_SIZES = Sizes(large=20_000, risk=2_000, dense=200, long=40, fit_replicates=10,
                    krige_targets=40, cokrige_targets=9)
PROBE_PROBLEM = ("imspe", "simple", 8)
PROBE_SEED = 20240602

# Round r of every run fits the same data: the fits' search length
# varies by a fifth with the data, which would hide changes in the code.
FIT_DATA_SEED = 20240603

# The irregular large design repeats a few gap values in a fixed
# shuffled order.  It does not depend on the seed, because operations
# on it fail every time today and a failing operation's input must not
# vary between runs.
IRREGULAR_GAP_VALUES = (0.5, 1.0, 2.0)
IRREGULAR_ORDER_SEED = 20240601

# The n = 8 problems, then the paper's two 17-site problems.
PROBLEMS = tuple((c, m, 8) for c in CRITERIA for m in MODELS) + (
    ("smspe", "ordinary", 17),
    ("risk_imspe", "simple", 17),
)

# Operations that fail on every run because of faults in the program:
# the 17-site risk search raises NumericError from a noisy quadrature,
# and the imspe forms lose 3e-6 to 1.5e-5 relative accuracy at n = 1e5.
EXPECTED_FAILURES = frozenset(
    ["optimize.risk_imspe.simple.n17"]
    + [f"criterion.imspe.{m}.{d}" for m in MODELS for d in ("equispaced", "irregular")]
    + ["risk.risk_imspe.ordinary.equispaced"]
)

# The console script's ``cokrig.cli.main``, plus a record of the child's
# own peak resident memory: VmHWM restarts at exec, where ru_maxrss
# would also count the parent's pages from before it.
CLI_MAIN = """\
import atexit, sys
def record_peak():
    with open("/proc/self/status") as status, open("cli.peak_kb", "w") as out:
        out.write(next(ln.split()[1] for ln in status if ln.startswith("VmHWM:")))
atexit.register(record_peak)
from cokrig.cli import main
sys.exit(main())
"""
CLI_TIMEOUT_S = 60


@dataclass
class Op:
    """One program operation: ``run(tracer)`` returns what ``check`` verifies.

    ``kind`` groups operations for the metrics; ``units`` is the sites
    or targets one call handles.
    """

    name: str
    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], None]
    units: int = 1


@dataclass
class Context:
    """State of one benchmark process: where it runs and what it caches."""

    root: Path
    workdir: Path
    seed: int
    cache: dict = field(default_factory=dict)

    def rng(self, rnd: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, rnd])

    def cached(self, key, compute):
        if key not in self.cache:
            self.cache[key] = compute()
        return self.cache[key]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli(ctx: Context, args: list) -> tuple:
    """Run ``cokrig <args>`` in a fresh interpreter, as the console script does.

    Returns the exit code, stdout, stderr and the child's peak resident
    memory in MB.
    """
    out_path, err_path = ctx.workdir / "cli.out", ctx.workdir / "cli.err"
    peak_path = ctx.workdir / "cli.peak_kb"
    peak_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-c", CLI_MAIN, *args],
                                stdout=out, stderr=err, cwd=ctx.workdir,
                                env=child_env(ctx.root))
        try:
            proc.wait(timeout=CLI_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    peak = int(peak_path.read_text()) / 1024.0 if peak_path.exists() else float("nan")
    return proc.returncode, out_path.read_text(), err_path.read_text(), peak


def network_gaps() -> np.ndarray:
    g = np.asarray(NETWORK_GAPS, dtype=float)
    return g / g.sum()


def points_of(gaps) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(gaps)])


def random_gaps(rng, n) -> np.ndarray:
    g = rng.uniform(0.5, 1.5, n - 1)
    return g / g.sum()


def irregular_large_gaps(n) -> np.ndarray:
    rng = np.random.default_rng(IRREGULAR_ORDER_SEED)
    g = rng.permutation(np.resize(np.asarray(IRREGULAR_GAP_VALUES), n - 1))
    return g / g.sum()


# --------------------------------------------------------------------------
# cli-session
# --------------------------------------------------------------------------

CLI_SUBCOMMANDS = ("ingest", "evaluate", "efficiency", "risk", "profile", "fit")


def _stations(rng, n=17):
    """A meandering chain of stations, 1 to 12 km apart."""
    lat, lon = rng.uniform(35.0, 50.0), rng.uniform(-120.0, -80.0)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    rows = []
    for i in range(n):
        rows.append((f"st{i:02d}", round(lat, 6), round(lon, 6), i + 1))
        hop = rng.uniform(1.0, 12.0)
        heading += rng.normal(0.0, 0.5)
        lat += hop / 111.2 * math.cos(heading)
        lon += hop / (111.2 * math.cos(math.radians(lat))) * math.sin(heading)
    return rows


def _cli_ok(out):
    code, stdout, stderr, _ = out
    if code != 0:
        raise CheckFailed(f"exit code {code}: {stderr.strip()[-300:]}")
    return stdout


def _check_ingest(stations):
    lat = np.array([s[1] for s in stations])
    lon = np.array([s[2] for s in stations])
    hops = ref.great_circle_km(lat[:-1], lon[:-1], lat[1:], lon[1:])

    def check(out):
        lines = [ln for ln in _cli_ok(out).splitlines() if ln.strip()]
        header = {k.strip("# ").strip(): v.strip()
                  for k, _, v in (ln.partition("=") for ln in lines if ln.startswith("#"))}
        gaps = [float(ln) for ln in lines if not ln.startswith("#")]
        if int(header.get("stations", -1)) != len(stations):
            raise CheckFailed(f"ingest reports {header.get('stations')} stations")
        ref.close(float(header["total_km"]), hops.sum(), rtol=1e-9, what="total_km")
        ref.close_array(gaps, hops / hops.sum(), 1e-11, "ingested gaps")
    return check


def _check_value(want, at_most=None):
    def check(out):
        got = float(_cli_ok(out))
        ref.close(got, want(), rtol=ref.CRITERION_RTOL)
        if at_most is not None and got > at_most:
            raise CheckFailed(f"{got!r} exceeds {at_most}")
    return check


def _check_risk_table(ctx, gaps):
    def check(out):
        rows = dict(ln.split(" = ") for ln in _cli_ok(out).splitlines() if " = " in ln)
        for crit in ("smspe", "imspe"):
            for model in MODELS:
                want = ctx.cached(("risk", crit, model, "network"),
                                  lambda: ref.risk(crit, model, *PRIOR, gaps))
                ref.close(float(rows[f"risk.{crit}.{model}"]), want,
                          rtol=ref.CRITERION_RTOL, what=f"risk.{crit}.{model}")
    return check


def _check_profile(gaps):
    pts = points_of(gaps)

    def check(out):
        rows = [ln.split(",") for ln in _cli_ok(out).splitlines()[1:]]
        x0 = np.array([float(r[0]) for r in rows])
        got = np.array([float(r[1]) for r in rows])
        for what, wanted, tol in (("grid points", np.linspace(0.0, 1.0, 512), 1e-11),
                                  ("design sites", pts, 1e-12)):
            if not np.all(np.min(np.abs(wanted[:, None] - x0[None, :]), axis=1) <= tol):
                raise CheckFailed(f"profile misses {what}")
        _, want, _ = ref.krige(pts, THETA, 1.0, np.zeros(pts.size), x0, "simple")
        ref.close_array(got, want, ref.MSPE_ATOL, "profile mspe")
        sites = np.argmin(np.abs(pts[:, None] - x0[None, :]), axis=1)
        ref.check_site_error_zero(got[sites], "profile")
    return check


def _check_cli_fit(points, z1, z2):
    def check(out):
        rows = dict(ln.split(" = ") for ln in _cli_ok(out).splitlines() if " = " in ln)
        params = tuple(float(rows[k]) for k in ("theta", "sigma11", "sigma22", "rho"))
        ref.check_fit(float(rows["loglik"]), params, TRUTH, points, z1, z2, "cli fit")
    return check


def cli_session(ctx: Context, rnd: int) -> list:
    """Each operation is one ``cokrig`` call in a fresh interpreter."""
    rng = ctx.rng(rnd)
    gaps = network_gaps()
    pts = points_of(gaps)
    stations = _stations(rng)
    z1, z2 = ref.sample_gm(pts, *TRUTH, 1, rng)
    files = {
        "network.txt": "".join(f"{g!r}\n" for g in gaps.tolist()),
        "stations.csv": "station_id,lat,lon,order\n"
                        + "".join(f"{s},{la!r},{lo!r},{o}\n" for s, la, lo, o in stations),
        "obs.csv": "station_id,z1,z2\n"
                   + "".join(f"st{i:02d},{a!r},{b!r}\n"
                             for i, (a, b) in enumerate(zip(z1[0].tolist(), z2[0].tolist()))),
    }
    for name, text in files.items():
        (ctx.workdir / name).write_text(text)

    def cli(sub, *args):
        def run(tracer):
            with tracer.span(f"cli.{sub}"):
                return run_cli(ctx, [sub, *args])
        return run

    def on_network(crit, model):
        return ctx.cached((crit, model, "network"), lambda: ref.criterion(crit, model, THETA, gaps))

    def efficiency():
        equi = np.full(gaps.size, 1.0 / gaps.size)
        return ref.criterion("imspe", "ordinary", THETA, equi) / on_network("imspe", "ordinary")

    net = ["--design", "network.txt"]
    kernel = ["--theta", repr(THETA)]
    prior = ["--theta1", repr(PRIOR[0]), "--theta2", repr(PRIOR[1])]
    ops = [Op("cli.ingest", "cli", cli("ingest", "--stations", "stations.csv"),
              _check_ingest(stations))]
    ops += [Op(f"cli.evaluate.{crit}.{model}", "cli",
               cli("evaluate", "--criterion", crit, "--model", model, *kernel, *net),
               _check_value(lambda c=crit, m=model: on_network(c, m)))
            for crit in ("smspe", "imspe") for model in MODELS]
    ops += [
        Op("cli.efficiency", "cli",
           cli("efficiency", "--criterion", "imspe", "--model", "ordinary", *kernel, *net),
           _check_value(efficiency, at_most=1.0)),
        Op("cli.risk", "cli", cli("risk", *prior, *net), _check_risk_table(ctx, gaps)),
        Op("cli.profile", "cli", cli("profile", "--grid", "512", *kernel, *net),
           _check_profile(gaps)),
        Op("cli.fit", "cli",
           cli("fit", "--observations", "obs.csv", *net, "--no-standardize"),
           _check_cli_fit(pts, z1, z2)),
    ]
    return ops


# --------------------------------------------------------------------------
# design-search
# --------------------------------------------------------------------------

def _reference_value(crit, model, gaps):
    if crit.startswith("risk_"):
        return ref.risk(crit[5:], model, *PRIOR, gaps)
    return ref.criterion(crit, model, THETA, gaps)


def _optimize_op(crit, model, n):
    def run(tracer):
        if crit.startswith("risk_"):
            problem = ck.OptimizationProblem(n, crit, model,
                                             prior=ck.ThetaPrior.uniform(*PRIOR))
        else:
            problem = ck.OptimizationProblem(n, crit, model,
                                             kernel=ck.ExponentialKernel(THETA))
        with tracer.span(f"optimizer.optimize.{crit}.{model}.n{n}"):
            res = ck.optimize(problem)
        return {"gaps": np.asarray(res.design.gaps), "value": res.value,
                "converged": res.converged, "evaluations": res.n_evaluations}

    def check(out):
        want = _reference_value(crit, model, out["gaps"])
        ref.check_optimum(n, out["gaps"], out["value"], want)

    return Op(f"optimize.{crit}.{model}.n{n}", "optimize", run, check)


def design_search(ctx: Context, rnd: int) -> list:
    """Every problem once; the problems are the paper's, so no input is seeded."""
    return [_optimize_op(*problem) for problem in PROBLEMS]


# --------------------------------------------------------------------------
# large-transect
# --------------------------------------------------------------------------

def _large_designs(ctx, n):
    def make():
        eq = np.full(n - 1, 1.0 / (n - 1))
        irr = irregular_large_gaps(n)
        return {"equispaced": (eq, tuple(eq.tolist())), "irregular": (irr, tuple(irr.tolist()))}
    return ctx.cached(("large-designs", n), make)


def _criterion_op(ctx, crit, model, dname, n):
    gaps, gap_tuple = _large_designs(ctx, n)[dname]
    risky = crit.startswith("risk_")
    prior = ck.ThetaPrior.uniform(*PRIOR)
    kernel = ck.ExponentialKernel(THETA)

    def run(tracer):
        with tracer.span("design.construct"):
            design = ck.Design(0.0, 1.0, gap_tuple)
        with tracer.span(f"criteria.{crit}.{model}.n{n}"):
            if risky:
                return getattr(ck, crit)(prior, design, model)
            return getattr(ck, crit)(kernel, design, model).value

    def check(out):
        want = ctx.cached((crit, model, dname, n), lambda: _reference_value(crit, model, gaps))
        ref.close(out, want, rtol=ref.CRITERION_RTOL, what=f"{crit}.{model}")

    if risky:
        return Op(f"risk.{crit}.{model}.{dname}", "risk", run, check)
    return Op(f"criterion.{crit}.{model}.{dname}", "criterion", run, check, units=n)


def _dense_inputs(ctx, rnd, sizes):
    """Seeded transect of ``sizes.dense`` sites with one draw of both processes."""
    def make():
        rng = ctx.rng(rnd)
        gaps = random_gaps(rng, sizes.dense)
        pts = points_of(gaps)
        z1, z2 = ref.sample_gm(pts, *TRUTH, 1, rng)
        sites = rng.choice(sizes.dense, SITE_TARGETS, replace=False)
        targets = np.concatenate([rng.uniform(0.0, 1.0, sizes.krige_targets), pts[sites]])
        co_targets = np.concatenate([rng.uniform(0.0, 1.0, sizes.cokrige_targets),
                                     pts[sites[:1]]])
        rz1, rz2 = ref.sample_gm(pts, *TRUTH, SIM_REPLICATES, rng)
        net = network_gaps()
        fit_rng = np.random.default_rng([FIT_DATA_SEED, rnd])
        f1, f2 = ref.sample_gm(points_of(net), *TRUTH, sizes.fit_replicates, fit_rng)
        long_gaps = random_gaps(fit_rng, sizes.long)
        l1, l2 = ref.sample_gm(points_of(long_gaps), *TRUTH, 1, fit_rng)
        return {
            "design": ck.Design(0.0, 1.0, tuple(gaps.tolist())), "points": pts,
            "z1": z1[0], "z2": z2[0], "targets": targets, "co_targets": co_targets,
            "rep": (rz1, rz2), "sim_seed": int(rng.integers(2**31)), "krige": {},
            "fits": {f"n17r{sizes.fit_replicates}":
                     (ck.Design(0.0, 1.0, tuple(net.tolist())), f1, f2),
                     "long": (ck.Design(0.0, 1.0, tuple(long_gaps.tolist())), l1, l2)},
        }
    ctx.cache.pop(("dense", rnd - 1, sizes), None)
    return ctx.cached(("dense", rnd, sizes), make)


def _krige_ops(inp):
    design, pts, z1, targets = inp["design"], inp["points"], inp["z1"], inp["targets"]
    kernel = ck.ExponentialKernel(THETA, GM["sigma11"])

    def dense(model):
        if model not in inp["krige"]:
            inp["krige"][model] = ref.krige(pts, THETA, GM["sigma11"], z1, targets, model)
        return inp["krige"][model]

    def krige_op(model):
        fn = getattr(ck, f"{model}_krige")

        def run(tracer):
            out = []
            for x0 in targets:
                with tracer.span(f"predict.{model}_krige"):
                    out.append(fn(kernel, design, z1, float(x0)))
            return out

        def check(out):
            values, mspe, weights = dense(model)
            for j, res in enumerate(out):
                ref.check_prediction(res, values[j], mspe[j], weights[:, j],
                                     f"{model}_krige at {targets[j]!r}")
            ref.check_site_error_zero([r.mspe for r in out[-SITE_TARGETS:]], f"{model}_krige")

        return Op(f"predict.{model}_krige", "predict", run, check, units=targets.size)

    def mspe_op(model):
        def run(tracer):
            out = []
            for x0 in targets:
                with tracer.span("predict.mspe_closed_form"):
                    out.append(ck.mspe_closed_form(kernel, design, float(x0), model))
            return np.array(out)

        def check(out):
            ref.close_array(out, dense(model)[1], ref.MSPE_ATOL, f"mspe_closed_form {model}")
            ref.check_site_error_zero(out[-SITE_TARGETS:], f"mspe_closed_form {model}")

        return Op(f"predict.mspe_closed_form.{model}", "predict", run, check, units=targets.size)

    return [krige_op(m) for m in MODELS] + [mspe_op(m) for m in MODELS]


def bivariate_models():
    return {
        "gm": ck.GeneralizedMarkov(GM["sigma11"], GM["sigma22"], GM["rho"],
                                   ck.ExponentialCorrelogram(THETA), ck.NuggetCorrelogram()),
        "ns2": ck.NS2(NS2["sigma11"], NS2["sigma22"], NS2["lam"], NS2["lamc"], NS2["alpha"]),
    }


def _cokrige_op(inp, family, params, model, bivariate):
    design, pts, targets = inp["design"], inp["points"], inp["co_targets"]
    obs = ck.ObservationVector(inp["z1"], inp["z2"])
    fn = getattr(ck, f"{model}_cokrige")

    def run(tracer):
        out = []
        for x0 in targets:
            with tracer.span(f"predict.{model}_cokrige.{family}"):
                out.append(fn(bivariate, design, obs, float(x0)))
        return out

    def check(out):
        values, mspe, weights = ref.cokrige(family, params, pts, inp["z1"], inp["z2"],
                                            targets, model)
        for j, res in enumerate(out):
            ref.check_prediction(res, values[j], mspe[j], weights[:, j],
                                 f"{model}_cokrige.{family} at {targets[j]!r}")
        ref.check_site_error_zero([out[-1].mspe], f"{model}_cokrige.{family}")
        if family == "gm":
            # C12 is proportional to C11: cokriging is kriging
            kv, km, _ = ref.krige(pts, THETA, GM["sigma11"], inp["z1"], targets, model)
            for j, res in enumerate(out):
                ref.close(res.value, kv[j], atol=ref.WEIGHT_ATOL, what="gm cokriging value")
                ref.close(res.mspe, km[j], atol=ref.MSPE_ATOL, what="gm cokriging error")
                ref.close_array(res.weights[pts.size:], np.zeros(pts.size),
                                ref.WEIGHT_ATOL, "gm secondary weights")

    return Op(f"cokrige.{model}.{family}", "cokrige", run, check, units=targets.size)


def _mle_ops(inp):
    design, pts = inp["design"], inp["points"]
    rz1, rz2 = inp["rep"]

    def simulate(tracer):
        with tracer.span("mle.simulate_observations"):
            return ck.simulate_observations(design, *TRUTH, replicates=SIM_REPLICATES,
                                            seed=inp["sim_seed"])

    def loglik(tracer):
        with tracer.span("mle.loglikelihood"):
            return ck.loglikelihood(design, rz1, rz2, *TRUTH)

    return [
        Op("mle.simulate_observations", "mle", simulate,
           lambda out: ref.check_simulation(pts, out[0], out[1], *TRUTH, "simulate")),
        Op("mle.loglikelihood", "mle", loglik,
           lambda out: ref.close(out, ref.loglik(pts, rz1, rz2, *TRUTH), rtol=1e-9,
                                 what="loglikelihood")),
    ]


def _fit_op(label, fdesign, f1, f2):
    def run(tracer):
        with tracer.span(f"mle.fit_mle.{label}"):
            return ck.fit_mle(fdesign, f1, f2, standardize=False)

    def check(fit):
        ref.check_fit(fit.loglik, (fit.theta_hat, fit.sigma11_hat, fit.sigma22_hat,
                                   fit.rho_hat), TRUTH, fdesign.points, f1, f2, label)

    return Op(f"fit.{label}", "fit", run, check)


def large_transect(ctx: Context, rnd: int, sizes: Sizes = FULL) -> list:
    """Few calls on large arrays: criteria, risks, dense prediction, fits."""
    ops = [_criterion_op(ctx, c, m, d, sizes.large)
           for d in ("equispaced", "irregular") for c in ("smspe", "imspe") for m in MODELS]
    ops += [_criterion_op(ctx, c, "ordinary", "equispaced", sizes.risk)
            for c in ("risk_smspe", "risk_imspe")]
    inp = _dense_inputs(ctx, rnd, sizes)
    ops += _krige_ops(inp)
    ops += [_cokrige_op(inp, family, params, model, bivariate)
            for (family, bivariate), params in zip(bivariate_models().items(), (GM, NS2))
            for model in MODELS]
    ops += _mle_ops(inp)
    return ops + [_fit_op(label, *fit) for label, fit in inp["fits"].items()]


def probe_slice(ctx: Context, kind: str, i: int) -> list:
    """The ``i``-th slice of small ``kind`` operations, for a workload that makes none.

    Every slice repeats the same work on inputs that do not depend on
    the seed, so the median over slices measures the code, not the data.
    """
    if kind == "cli":
        evaluate = [op for op in cli_session(ctx, 0) if op.name.startswith("cli.evaluate.")]
        return [evaluate[i % len(evaluate)]]
    if kind == "optimize":
        return [_optimize_op(*PROBE_PROBLEM)]
    fixed = ctx.cached("probe-context", lambda: Context(ctx.root, ctx.workdir, PROBE_SEED))
    return [op for op in large_transect(fixed, 0, PROBE_SIZES) if op.kind == kind]


WORKLOADS = {
    "cli-session": cli_session,
    "design-search": design_search,
    "large-transect": large_transect,
}


# --------------------------------------------------------------------------
# layer probes for the traced run
# --------------------------------------------------------------------------

def _repeat(tracer, name, count, fn):
    for _ in range(count):
        with tracer.span(name):
            fn()


def layer_probe(workload: str, ctx: Context, tracer) -> dict:
    """Time public calls that the operation list makes only indirectly.

    These calls are timed, not checked; returns extra layer values.
    """
    extra = {}
    if workload == "cli-session":
        text = (ctx.workdir / "stations.csv").read_text()
        _repeat(tracer, "stations.ingest", 20,
                lambda: ck.ingest_stations(ck.read_stations_csv(text)))
    elif workload == "design-search":
        design = ck.equispaced(8)
        kernel, prior = ck.ExponentialKernel(THETA), ck.ThetaPrior.uniform(*PRIOR)
        for crit in CRITERIA:
            for model in MODELS:
                arg = prior if crit.startswith("risk_") else kernel
                fn = getattr(ck, crit)
                _repeat(tracer, f"criteria.{crit}.{model}.n8", 20,
                        lambda: fn(arg, design, model))
    elif workload == "large-transect":
        gap_tuple = _large_designs(ctx, N_LARGE)["equispaced"][1]
        big = ck.Design(0.0, 1.0, gap_tuple)
        _repeat(tracer, "design.gap_array", 10, big.gap_array)
        _repeat(tracer, "design.points", 10, lambda: big.points)
        inp = _dense_inputs(ctx, 0, FULL)
        design, x0 = inp["design"], float(inp["targets"][0])
        _repeat(tracer, "kernel.precision_matrix", 10,
                lambda: ck.precision_matrix(design, THETA))
        _repeat(tracer, "kernel.quad_forms_at", 50, lambda: ck.quad_forms_at(design, THETA, x0))
        _repeat(tracer, "kernel.ones_quadratic_form", 50,
                lambda: ck.ones_quadratic_form(design, THETA))
        for family, model in bivariate_models().items():
            _repeat(tracer, f"covmodel.build_joint_covariance.{family}", 5,
                    lambda: ck.build_joint_covariance(model, design))
            _repeat(tracer, "covmodel.validate", 50, lambda: ck.validate(model))
        prior = ck.ThetaPrior.uniform(*PRIOR)
        for crit in ("risk_smspe", "risk_imspe"):
            fn = getattr(ck, crit)
            _repeat(tracer, f"criteria.{crit}.simple.n{N_LARGE}", 5,
                    lambda: fn(prior, big, "simple"))
        tracemalloc.start()
        try:
            ck.risk_imspe(prior, big, "ordinary")
            extra["risk_peak_mb"] = [tracemalloc.get_traced_memory()[1] / 2**20]
        finally:
            tracemalloc.stop()
    return extra
