"""Command-line interface.

Subcommands
-----------
``evaluate``
    Criterion value (``smspe`` or ``imspe``) for a design under an
    exponential kernel given by ``--theta``/``--sigma11`` or a
    ``--spec`` config file.
``optimize``
    Search for the criterion-minimizing design; prints the gaps one
    per line (a loadable design file) with the value, convergence flag,
    optimality residual, reason for stopping and deviation from
    equispaced as trailing ``#`` comments.
``efficiency``
    Ratio of the reference design's criterion value to a candidate's.
    The reference defaults to the equispaced design with the same
    number of points.
``risk``
    Prior-averaged criteria.  With ``--criterion`` prints one value;
    without it prints all four model/criterion combinations.
``fit``
    Maximum-likelihood fit of the shared-component model (exponential
    primary correlogram, white-noise residual) to collocated
    observations; ``--spec-out`` writes the fitted model as a config
    file.
``ingest``
    Stations CSV to a normalized design file (great-circle hop
    lengths, normalized to sum 1).
``profile``
    CSV of pointwise prediction error over the interval, for plotting.

File formats
------------
Design files carry one positive gap per line, ``#`` comments allowed;
the gaps must sum to 1 within 1e-6 (normalized on load, with a warning
on stderr when the correction exceeds 1e-12).  Stations CSV columns
are ``station_id,lat,lon,order`` with a header; observations CSV
columns are ``station_id,z1,z2``.  Prior files for ``--prior-file``
carry ``rate density`` pairs, one per line.

Config grammar (``--spec`` / ``--spec-out``)
--------------------------------------------
One ``key = value`` pair per line; ``#`` starts a comment; keys are
case-insensitive; unknown or duplicate keys are errors.  The family is
selected by ``family = ...``; its keys are the fields of its model
class, in order (``lam``, ``lamc`` and ``c_r`` are spelled ``lambda``,
``lambdac`` and ``cr``), and a missing one is reported first in that
order:

* ``generalized-markov``: ``sigma11``, ``sigma22``, ``rho``, plus two
  correlogram blocks ``c11.*`` and ``cr.*``.
* ``proportional``: ``sigma11``, ``sigma12``, ``sigma22``, plus one
  correlogram block ``base.*``.
* ``ns1`` | ``mat05`` | ``mat15`` | ``matinf`` | ``ns3``: ``sigma11``,
  ``sigma22``, ``lambda``, ``lambdac``.
* ``ns2``: the same four keys plus optional ``alpha`` (defaults to the
  standard pairing for ``lambdac`` in {0.2, 0.5, 0.8}).

A correlogram block ``<prefix>.*`` has ``<prefix>.kind`` in
{``exponential``, ``squared-exponential``, ``matern15``, ``nugget``},
and its other keys are the fields of that correlogram class: for
``exponential`` ``<prefix>.theta`` (decay rate) or ``<prefix>.lambda``
(decay base), for ``squared-exponential`` and ``matern15``
``<prefix>.lambda``, for ``nugget`` none.  A key the kind does not take
is reported as unknown, and one it needs as missing.

Exit codes: 0 success; 2 for invalid inputs (parse, domain,
validation, extrapolation, flags the subcommand would ignore); 3 for
numeric failures (conditioning, quadrature).
"""

import argparse
import sys

import numpy as np

from . import covmodel, criteria, design as design_mod, mle, optimizer, predict, stations
from .exceptions import (
    ConditioningError,
    DomainError,
    NumericError,
    ParseError,
    ValidationError,
)
from .kernel import ExponentialKernel

__all__ = ["main", "run_command"]

_FMT = "%.12g"


def _fmt(x: float) -> str:
    return _FMT % float(x)


# --------------------------------------------------------------------------
# input loading
# --------------------------------------------------------------------------

def _numeric_rows(text: str, width: int, what: str) -> list[list[float]]:
    """The rows of ``width`` numbers in ``text``, ``#`` starting a comment; a
    malformed row is a ``ParseError`` naming its line."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values = [float(part) for part in line.split()]
        except ValueError:
            values = []
        if len(values) != width:
            raise ParseError(f"expected {what} per line, got {line!r}", lineno)
        rows.append(values)
    return rows


def load_design_text(text: str) -> design_mod.Design:
    """Parse a design file: one positive gap per line, ``#`` comments."""
    gaps = [gap for (gap,) in _numeric_rows(text, 1, "one number")]
    if not gaps:
        raise ParseError("design file contains no gaps")
    try:
        design = design_mod.Design(0.0, 1.0, gaps)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc
    total = sum(gaps)
    if abs(total - 1.0) > 1e-12:
        print(f"warning: design gaps sum to {total!r}; normalizing", file=sys.stderr)
    return design


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load_design(path: str) -> design_mod.Design:
    return load_design_text(_read_text(path))


def _design_from_args(args) -> design_mod.Design:
    if args.design is not None:
        if args.n is not None:
            raise ParseError("--design and --n are mutually exclusive")
        return _load_design(args.design)
    if args.n is not None:
        return design_mod.equispaced(args.n)
    raise ParseError("provide either --design FILE or --n COUNT")


def kernel_from_model(model: covmodel.BivariateCovariance) -> ExponentialKernel:
    """Primary-variable kernel of a config model, when it is exponential."""
    corr = model.c11
    if not isinstance(corr, covmodel.ExponentialCorrelogram):
        raise DomainError(
            f"criteria need an exponential primary correlogram; family "
            f"'{model.family}' uses {corr.kind}"
        )
    return ExponentialKernel(corr.rate, model.sigma11)


def _kernel_from_args(args) -> ExponentialKernel:
    if args.spec is not None:
        if args.theta is not None or args.sigma11 is not None:
            raise ParseError("--spec and --theta/--sigma11 are mutually exclusive")
        model = covmodel.parse_config(_read_text(args.spec))
        covmodel._require_valid(model)
        return kernel_from_model(model)
    if args.theta is None:
        raise ParseError("provide either --theta or --spec FILE")
    return ExponentialKernel(args.theta, 1.0 if args.sigma11 is None else args.sigma11)


def _prior_from_args(args) -> criteria.ThetaPrior:
    e_sigma11 = 1.0 if args.e_sigma11 is None else args.e_sigma11
    prior_path = args.prior_file
    if prior_path is not None:
        if args.theta1 is not None or args.theta2 is not None:
            raise ParseError("--prior-file and --theta1/--theta2 are mutually exclusive")
        rows = _numeric_rows(_read_text(prior_path), 2, "'rate density'")
        return criteria.ThetaPrior(rows, e_sigma11)
    if args.theta1 is None or args.theta2 is None:
        raise ParseError("provide --theta1 and --theta2, or --prior-file")
    return criteria.ThetaPrior.uniform(args.theta1, args.theta2, e_sigma11=e_sigma11)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_evaluate(args) -> int:
    kernel = _kernel_from_args(args)
    design = _design_from_args(args)
    fn = criteria.smspe if args.criterion == "smspe" else criteria.imspe
    report = fn(kernel, design, args.model)
    if args.per_interval:
        for i, v in enumerate(report.per_interval):
            print(f"# interval {i}: {_fmt(v)}")
    print(_fmt(report.value))
    return 0


def _has_prior_flags(args) -> bool:
    return (args.theta1 is not None or args.theta2 is not None
            or args.prior_file is not None or args.e_sigma11 is not None)


def _has_kernel_flags(args) -> bool:
    return args.theta is not None or args.sigma11 is not None or args.spec is not None


def _cmd_optimize(args) -> int:
    if args.criterion in ("smspe", "imspe"):
        if _has_prior_flags(args):
            raise ParseError(
                f"criterion '{args.criterion}' takes --theta/--spec/--sigma11, not prior flags"
            )
        kernel = _kernel_from_args(args)
        problem = optimizer.OptimizationProblem(
            args.n, args.criterion, model=args.model, kernel=kernel,
            tolerance=args.tolerance,
        )
    else:
        if _has_kernel_flags(args):
            raise ParseError(
                f"criterion '{args.criterion}' takes prior flags, not --theta/--spec/--sigma11"
            )
        prior = _prior_from_args(args)
        problem = optimizer.OptimizationProblem(
            args.n, args.criterion, model=args.model, prior=prior,
            tolerance=args.tolerance,
        )
    result = optimizer.optimize(problem)
    for gap in result.design.gaps:
        print(_fmt(gap))
    print(f"# value = {_fmt(result.value)}")
    print(f"# converged = {'true' if result.converged else 'false'}")
    print(f"# residual = {_fmt(result.residual)}")
    print(f"# stopped = {result.message}")
    print(f"# gap_deviation = {_fmt(result.gap_deviation)}")
    if not result.converged:
        print("warning: optimizer did not converge; result is best iterate",
              file=sys.stderr)
    return 0


def _cmd_efficiency(args) -> int:
    candidate = _load_design(args.design)
    if args.reference is not None:
        reference = _load_design(args.reference)
    else:
        reference = design_mod.equispaced(candidate.n)
    if _has_prior_flags(args):
        if _has_kernel_flags(args):
            raise ParseError("give either --theta/--spec/--sigma11 or prior flags, not both")
        prior = _prior_from_args(args)
        fn = criteria.risk_smspe if args.criterion == "smspe" else criteria.risk_imspe
        ref_val = fn(prior, reference, args.model)
        cand_val = fn(prior, candidate, args.model)
    else:
        kernel = _kernel_from_args(args)
        fn = criteria.smspe if args.criterion == "smspe" else criteria.imspe
        ref_val = fn(kernel, reference, args.model).value
        cand_val = fn(kernel, candidate, args.model).value
    print(_fmt(criteria.relative_efficiency(ref_val, cand_val)))
    return 0


def _cmd_risk(args) -> int:
    prior = _prior_from_args(args)
    design = _design_from_args(args)
    if args.criterion is not None:
        fn = criteria.risk_smspe if args.criterion == "smspe" else criteria.risk_imspe
        print(_fmt(fn(prior, design, args.model or "simple")))
        return 0
    if args.model is not None:
        raise ParseError("--model needs --criterion; without it all four combinations print")
    for crit, fn in (("smspe", criteria.risk_smspe), ("imspe", criteria.risk_imspe)):
        for model in criteria.MODELS:
            print(f"risk.{crit}.{model} = {_fmt(fn(prior, design, model))}")
    return 0


def _cmd_fit(args) -> int:
    observations = stations.read_observations_csv(_read_text(args.observations))
    if args.stations is not None:
        if args.design is not None:
            raise ParseError("--stations and --design are mutually exclusive")
        recs = stations.read_stations_csv(_read_text(args.stations))
        design, _report = stations.ingest_stations(recs)
        z1, z2 = stations.align_observations(recs, observations)
    else:
        if args.design is None:
            raise ParseError("provide --stations FILE or --design FILE")
        design = _load_design(args.design)
        if len(observations) != design.n:
            raise ParseError(
                f"{len(observations)} observation rows for a design with "
                f"{design.n} points"
            )
        z1 = np.array([o.z1 for o in observations])
        z2 = np.array([o.z2 for o in observations])
    fit = mle.fit_mle(design, z1, z2, standardize=not args.no_standardize)
    print(f"theta = {_fmt(fit.theta_hat)}")
    print(f"sigma11 = {_fmt(fit.sigma11_hat)}")
    print(f"sigma22 = {_fmt(fit.sigma22_hat)}")
    print(f"rho = {_fmt(fit.rho_hat)}")
    print(f"loglik = {_fmt(fit.loglik)}")
    print(f"converged = {'true' if fit.converged else 'false'}")
    if fit.stderr is not None:
        for name in ("theta", "sigma11", "sigma22", "rho"):
            print(f"stderr.{name} = {_fmt(fit.stderr[name])}")
    if not fit.converged:
        print("warning: fit did not converge; theta reached the edge of its search bracket",
              file=sys.stderr)
    if args.spec_out is not None:
        model = covmodel.GeneralizedMarkov(
            fit.sigma11_hat, fit.sigma22_hat, fit.rho_hat,
            covmodel.ExponentialCorrelogram(fit.theta_hat),
            covmodel.NuggetCorrelogram(),
        )
        with open(args.spec_out, "w", encoding="utf-8") as fh:
            fh.write(covmodel.format_config(model))
    return 0


def _cmd_ingest(args) -> int:
    recs = stations.read_stations_csv(_read_text(args.stations))
    design, report = stations.ingest_stations(recs)
    lines = [f"# stations = {design.n}", f"# total_km = {_fmt(report.total_km)}"]
    lines += [_fmt(g) for g in design.gaps]
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}: {design.n} stations, "
              f"{_fmt(report.total_km)} km total")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_profile(args) -> int:
    if args.grid < 2:
        raise ParseError(f"--grid must be at least 2, got {args.grid}")
    kernel = _kernel_from_args(args)
    design = _design_from_args(args)
    grid = np.linspace(0.0, 1.0, args.grid)
    pts = design.points
    mids = (pts[:-1] + pts[1:]) / 2.0
    x0s = np.unique(np.concatenate([grid, pts, mids]))
    vals = predict.mspe_closed_form(kernel, design, x0s, args.model)
    rows = ["x0,mspe"] + [f"{_fmt(x0)},{_fmt(val)}" for x0, val in zip(x0s, vals)]
    text = "\n".join(rows) + "\n"
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _add_kernel_flags(p: argparse.ArgumentParser):
    p.add_argument("--theta", type=float, default=None,
                   help="exponential decay rate of the primary kernel")
    p.add_argument("--sigma11", type=float, default=None,
                   help="primary variance (default 1.0)")
    p.add_argument("--spec", default=None, metavar="FILE",
                   help="covariance config file; alternative to --theta")


def _add_prior_flags(p: argparse.ArgumentParser):
    p.add_argument("--theta1", type=float, default=None,
                   help="lower endpoint of the uniform decay-rate prior")
    p.add_argument("--theta2", type=float, default=None,
                   help="upper endpoint of the uniform decay-rate prior")
    p.add_argument("--prior-file", default=None, metavar="FILE",
                   help="tabulated prior ('rate density' rows)")
    p.add_argument("--e-sigma11", type=float, default=None, dest="e_sigma11",
                   help="prior mean of the primary variance (default 1.0)")


def _add_design_flags(p: argparse.ArgumentParser):
    p.add_argument("--design", default=None, metavar="FILE",
                   help="design file (one gap per line, sum 1)")
    p.add_argument("--n", type=int, default=None,
                   help="use the equispaced design with this many points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cokrig",
        description="Prediction-error design criteria and optimal sampling "
                    "designs for collocated bivariate processes on an interval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="criterion value for a design")
    p.add_argument("--criterion", choices=("smspe", "imspe"), required=True)
    p.add_argument("--model", choices=criteria.MODELS, default="simple")
    _add_kernel_flags(p)
    _add_design_flags(p)
    p.add_argument("--per-interval", action="store_true",
                   help="also print each interval's contribution as comments")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("optimize", help="search for the optimal design")
    p.add_argument("--criterion", choices=optimizer.CRITERIA, required=True)
    p.add_argument("--model", choices=criteria.MODELS, default="simple")
    p.add_argument("--n", type=int, required=True, help="number of design points")
    p.add_argument("--tolerance", type=float, default=1e-7,
                   help="largest optimality residual reported as converged; imspe "
                        "and risk_imspe searches also refine until it is met or "
                        "stops improving (default 1e-7)")
    _add_kernel_flags(p)
    _add_prior_flags(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("efficiency", help="reference/candidate criterion ratio")
    p.add_argument("--criterion", choices=("smspe", "imspe"), required=True)
    p.add_argument("--model", choices=criteria.MODELS, default="simple")
    p.add_argument("--design", required=True, metavar="FILE",
                   help="candidate design file")
    p.add_argument("--reference", default=None, metavar="FILE",
                   help="reference design file (default: equispaced, same n)")
    _add_kernel_flags(p)
    _add_prior_flags(p)
    p.set_defaults(func=_cmd_efficiency)

    p = sub.add_parser("risk", help="prior-averaged criteria")
    p.add_argument("--criterion", choices=("smspe", "imspe"), default=None,
                   help="omit to print all four model/criterion combinations")
    p.add_argument("--model", choices=criteria.MODELS, default=None,
                   help="model of --criterion (default simple)")
    _add_prior_flags(p)
    _add_design_flags(p)
    p.set_defaults(func=_cmd_risk)

    p = sub.add_parser("fit", help="maximum-likelihood covariance fit")
    p.add_argument("--observations", required=True, metavar="FILE",
                   help="observations CSV (station_id,z1,z2)")
    p.add_argument("--stations", default=None, metavar="FILE",
                   help="stations CSV (station_id,lat,lon,order)")
    p.add_argument("--design", default=None, metavar="FILE",
                   help="design file; observation rows align by position")
    p.add_argument("--no-standardize", action="store_true",
                   help="fit the raw data instead of centered/scaled")
    p.add_argument("--spec-out", default=None, metavar="FILE",
                   help="write the fitted model as a config file")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("ingest", help="stations CSV to a design file")
    p.add_argument("--stations", required=True, metavar="FILE")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the design here instead of stdout")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("profile", help="pointwise error curve as CSV")
    p.add_argument("--model", choices=criteria.MODELS, default="simple")
    p.add_argument("--grid", type=int, default=512,
                   help="grid size over [0, 1] (default 512); design points "
                        "and interval midpoints are always included")
    p.add_argument("--out", default=None, metavar="FILE")
    _add_kernel_flags(p)
    _add_design_flags(p)
    p.set_defaults(func=_cmd_profile)

    return parser


def run_command(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConditioningError, NumericError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
