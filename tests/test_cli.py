"""End-to-end CLI coverage through run_command; one test runs the
module as a script in a subprocess."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cokrig import (
    ExponentialKernel,
    GeneralizedMarkov,
    ExponentialCorrelogram,
    Mat05,
    Mat15,
    MatInf,
    NS1,
    NS2,
    NS3,
    NuggetCorrelogram,
    Proportional,
    ThetaPrior,
    equispaced,
    format_config,
    imspe,
    parse_config,
    risk_imspe,
    risk_smspe,
    simulate_observations,
    smspe,
)
from cokrig.cli import load_design_text, run_command
from conftest import XI0_GAPS

THETA = 17.12
S11 = 0.85


def write_design(tmp_path, gaps, name="design.txt"):
    path = tmp_path / name
    path.write_text("".join(f"{float(g)!r}\n" for g in gaps))
    return str(path)


def run_ok(capsys, argv):
    code = run_command(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    return out, err


# --------------------------------------------------------------------------
# evaluate
# --------------------------------------------------------------------------

def test_evaluate_equispaced(capsys):
    out, _ = run_ok(capsys, [
        "evaluate", "--criterion", "smspe",
        "--theta", str(THETA), "--sigma11", str(S11), "--n", "17",
    ])
    assert float(out) == pytest.approx(S11 * math.tanh(THETA / 32.0), rel=1e-12)


def test_evaluate_design_file(capsys, tmp_path):
    path = write_design(tmp_path, XI0_GAPS)
    out, _ = run_ok(capsys, [
        "evaluate", "--criterion", "smspe",
        "--theta", str(THETA), "--sigma11", str(S11), "--design", path,
    ])
    # widest interval dominates the supremum
    assert float(out) == pytest.approx(S11 * math.tanh(THETA * 0.20 / 2.0), rel=1e-12)


def test_evaluate_per_interval(capsys):
    out, _ = run_ok(capsys, [
        "evaluate", "--criterion", "imspe", "--model", "ordinary",
        "--theta", "4.0", "--n", "5", "--per-interval",
    ])
    lines = out.strip().splitlines()
    assert len(lines) == 5  # 4 interval comments plus the value
    assert all(l.startswith("# interval") for l in lines[:4])
    want = imspe(ExponentialKernel(4.0), equispaced(5), "ordinary").value
    assert float(lines[-1]) == pytest.approx(want, rel=1e-12)


def test_evaluate_flag_validation(capsys, tmp_path):
    spec = tmp_path / "m.cfg"
    spec.write_text(format_config(GeneralizedMarkov(
        S11, 0.94, 0.25, ExponentialCorrelogram(THETA), NuggetCorrelogram())))
    code = run_command(["evaluate", "--criterion", "smspe",
                        "--theta", "2.0", "--spec", str(spec), "--n", "5"])
    out, err = capsys.readouterr()
    assert code == 2 and "mutually exclusive" in err
    code = run_command(["evaluate", "--criterion", "smspe", "--n", "5"])
    out, err = capsys.readouterr()
    assert code == 2 and "--theta or --spec" in err
    code = run_command(["evaluate", "--criterion", "smspe", "--theta", "2.0"])
    out, err = capsys.readouterr()
    assert code == 2 and "--design FILE or --n COUNT" in err


def test_evaluate_from_config(capsys, tmp_path):
    model = GeneralizedMarkov(
        S11, 0.94, 0.25, ExponentialCorrelogram(THETA), NuggetCorrelogram())
    spec = tmp_path / "m.cfg"
    spec.write_text(format_config(model))
    out, _ = run_ok(capsys, [
        "evaluate", "--criterion", "smspe", "--spec", str(spec), "--n", "17",
    ])
    assert float(out) == pytest.approx(S11 * math.tanh(THETA / 32.0), rel=1e-12)


def test_evaluate_refuses_an_invalid_config(capsys, tmp_path):
    # residual variance 1 - 0.6^2 * 4 < 0: not a covariance model
    spec = tmp_path / "m.cfg"
    spec.write_text(format_config(GeneralizedMarkov(
        4.0, 1.0, 0.6, ExponentialCorrelogram(THETA), NuggetCorrelogram())))
    code = run_command(["evaluate", "--criterion", "smspe", "--n", "17",
                        "--spec", str(spec)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "residual variance" in err


def test_config_without_exponential_primary(capsys, tmp_path):
    spec = tmp_path / "m.cfg"
    spec.write_text(
        "family = generalized-markov\n"
        "sigma11 = 1.0\nsigma22 = 2.0\nrho = 0.3\n"
        "c11.kind = matern15\nc11.lambda = 0.5\n"
        "cr.kind = nugget\n"
    )
    code = run_command(["evaluate", "--criterion", "smspe",
                        "--spec", str(spec), "--n", "5"])
    _, err = capsys.readouterr()
    assert code == 2 and "exponential" in err


@pytest.mark.parametrize("model", [
    GeneralizedMarkov(S11, 0.94, 0.25, ExponentialCorrelogram(THETA), NuggetCorrelogram()),
    Proportional(S11, 0.3, 0.9, ExponentialCorrelogram(THETA)),
    NS1(0.7, 1.4, 0.3, 0.6),
    Mat05(1.0, 2.0, 0.3, 0.5),
    NS2(1.0, 1.0, 0.5, 0.5),
    NS3(1.0, 1.0, 1 / math.e, 0.2),
    Mat15(0.5, 1.5, 0.2, -0.4),
    MatInf(1.2, 0.8, 1e-4, 0.7),
], ids=lambda m: m.family)
def test_spec_kernel_is_the_primary_correlogram(capsys, tmp_path, model):
    spec = tmp_path / "m.cfg"
    spec.write_text(format_config(model))
    argv = ["evaluate", "--criterion", "imspe", "--model", "ordinary",
            "--per-interval", "--n", "17"]
    code = run_command(argv + ["--spec", str(spec)])
    out, err = capsys.readouterr()
    c11 = parse_config(spec.read_text()).c11
    if not isinstance(c11, ExponentialCorrelogram):
        assert code == 2 and out == "" and "exponential" in err
        return
    assert code == 0, err
    want, _ = run_ok(capsys, argv + ["--theta", repr(c11.rate), "--sigma11", repr(model.sigma11)])
    assert out == want


def test_config_error_carries_line_number(capsys, tmp_path):
    spec = tmp_path / "m.cfg"
    spec.write_text("family = ns1\nsigma11 = 1.0\nbogus = 3\n"
                    "sigma22 = 1.0\nlambda = 0.5\nlambdac = 0.4\n")
    code = run_command(["evaluate", "--criterion", "smspe",
                        "--spec", str(spec), "--n", "5"])
    _, err = capsys.readouterr()
    assert code == 2 and "line 3" in err


# --------------------------------------------------------------------------
# design files
# --------------------------------------------------------------------------

def test_design_file_normalization_warning(capsys, tmp_path):
    gaps = [0.5, 0.5 + 5e-7]
    path = write_design(tmp_path, gaps)
    _, err = run_ok(capsys, [
        "evaluate", "--criterion", "smspe", "--theta", "2.0", "--design", path,
    ])
    assert "normalizing" in err


def test_design_file_bad_sum(capsys, tmp_path):
    path = write_design(tmp_path, [0.4, 0.4])
    code = run_command(["evaluate", "--criterion", "smspe",
                        "--theta", "2.0", "--design", path])
    _, err = capsys.readouterr()
    assert code == 2 and "sum" in err


def test_design_file_parse_error(capsys, tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("0.5\nnot-a-number\n0.5\n")
    code = run_command(["evaluate", "--criterion", "smspe",
                        "--theta", "2.0", "--design", str(path)])
    _, err = capsys.readouterr()
    assert code == 2 and "line 2" in err


def test_missing_file(capsys, tmp_path):
    code = run_command(["evaluate", "--criterion", "smspe",
                        "--theta", "2.0", "--design", str(tmp_path / "nope")])
    _, err = capsys.readouterr()
    assert code == 2 and "cannot read" in err


# --------------------------------------------------------------------------
# optimize
# --------------------------------------------------------------------------

def test_optimize_output_roundtrips(capsys):
    out, _ = run_ok(capsys, [
        "optimize", "--criterion", "smspe", "--theta", str(THETA), "--n", "4",
    ])
    design = load_design_text(out)  # comments are ignored on load
    assert design.n == 4
    np.testing.assert_allclose(design.gaps, 1.0 / 3.0, atol=1e-3)
    value = float(next(l.split("=")[1] for l in out.splitlines()
                       if l.startswith("# value")))
    eq_val = smspe(ExponentialKernel(THETA), equispaced(4)).value
    assert value <= eq_val + 1e-9
    assert "# converged = true" in out


def test_optimize_reports_convergence_on_the_optimum(capsys):
    out, err = run_ok(capsys, [
        "optimize", "--criterion", "imspe", "--theta", str(THETA), "--n", "8",
    ])
    assert "# converged = true" in out
    assert err == ""


def test_optimize_paper_risk_problem_on_17_sites(capsys):
    out, err = run_ok(capsys, [
        "optimize", "--criterion", "risk_smspe", "--model", "ordinary",
        "--theta1", "12.12", "--theta2", "22.12", "--n", "17",
    ])
    assert "# converged = true" in out
    assert err == ""
    comments = dict(line[2:].split(" = ", 1) for line in out.splitlines()
                    if line.startswith("# "))
    assert float(comments["residual"]) <= 1e-7
    assert comments["stopped"]
    np.testing.assert_allclose(load_design_text(out).gaps, 1.0 / 16.0, atol=1e-6)


@pytest.mark.parametrize("tolerance", ["1e-7", "1e-12"])
def test_optimize_tolerance_bounds_the_reported_residual(capsys, tolerance):
    # --tolerance is the largest residual reported as converged; a tighter
    # one makes the imspe search refine further but finds the same design
    out, err = run_ok(capsys, [
        "optimize", "--criterion", "imspe", "--model", "ordinary",
        "--theta", str(THETA), "--n", "17", "--tolerance", tolerance,
    ])
    comments = dict(line[2:].split(" = ", 1) for line in out.splitlines()
                    if line.startswith("# "))
    assert float(comments["residual"]) <= float(tolerance)
    assert comments["converged"] == "true"
    assert err == ""
    np.testing.assert_allclose(load_design_text(out).gaps, 1.0 / 16.0, atol=1e-9)


def test_optimize_with_prior(capsys):
    out, _ = run_ok(capsys, [
        "optimize", "--criterion", "risk_smspe",
        "--theta1", "16.62", "--theta2", "17.62", "--n", "3",
    ])
    design = load_design_text(out)
    np.testing.assert_allclose(design.gaps, 0.5, atol=1e-3)


def test_optimize_is_deterministic(capsys):
    argv = ["optimize", "--criterion", "imspe", "--theta", "8.0", "--n", "4"]
    first, _ = run_ok(capsys, argv)
    second, _ = run_ok(capsys, argv)
    assert first == second


def test_optimize_flag_mismatch(capsys):
    code = run_command(["optimize", "--criterion", "risk_smspe",
                        "--theta", "2.0", "--n", "3"])
    _, err = capsys.readouterr()
    assert code == 2 and "prior flags" in err
    code = run_command(["optimize", "--criterion", "smspe",
                        "--theta1", "1.0", "--theta2", "2.0", "--n", "3"])
    _, err = capsys.readouterr()
    assert code == 2 and "--theta/--spec" in err


# --------------------------------------------------------------------------
# efficiency
# --------------------------------------------------------------------------

def test_efficiency_against_equispaced(capsys, tmp_path):
    path = write_design(tmp_path, XI0_GAPS)
    out, _ = run_ok(capsys, [
        "efficiency", "--criterion", "smspe",
        "--theta", str(THETA), "--design", path,
    ])
    want = math.tanh(THETA / 32.0) / math.tanh(THETA * 0.20 / 2.0)
    assert float(out) == pytest.approx(want, rel=1e-12)
    assert float(out) == pytest.approx(0.524, abs=0.002)


def test_efficiency_explicit_reference(capsys, tmp_path):
    cand = write_design(tmp_path, [0.25, 0.75], "cand.txt")
    ref = write_design(tmp_path, [0.5, 0.5], "ref.txt")
    out, _ = run_ok(capsys, [
        "efficiency", "--criterion", "imspe", "--theta", "3.0",
        "--design", cand, "--reference", ref,
    ])
    assert 0.0 < float(out) < 1.0


def test_efficiency_with_prior(capsys, tmp_path):
    path = write_design(tmp_path, XI0_GAPS)
    out, _ = run_ok(capsys, [
        "efficiency", "--criterion", "smspe",
        "--theta1", "16.62", "--theta2", "17.62", "--design", path,
    ])
    prior = ThetaPrior.uniform(16.62, 17.62)
    from cokrig import Design
    xi0 = Design(0.0, 1.0, XI0_GAPS)
    want = risk_smspe(prior, equispaced(17)) / risk_smspe(prior, xi0)
    assert float(out) == pytest.approx(want, rel=1e-9)


def test_efficiency_rejects_mixed_flags(capsys, tmp_path):
    path = write_design(tmp_path, [0.5, 0.5])
    code = run_command(["efficiency", "--criterion", "smspe",
                        "--theta", "2.0", "--theta1", "1.0", "--theta2", "2.0",
                        "--design", path])
    _, err = capsys.readouterr()
    assert code == 2 and "not both" in err


# --------------------------------------------------------------------------
# risk
# --------------------------------------------------------------------------

def test_risk_single_value(capsys, tmp_path):
    path = write_design(tmp_path, XI0_GAPS)
    out, _ = run_ok(capsys, [
        "risk", "--criterion", "imspe",
        "--theta1", "16.12", "--theta2", "18.12", "--design", path,
    ])
    from cokrig import Design
    want = risk_imspe(ThetaPrior.uniform(16.12, 18.12), Design(0.0, 1.0, XI0_GAPS))
    assert float(out) == pytest.approx(want, rel=1e-9)
    assert float(out) == pytest.approx(0.433, abs=0.002)


def test_risk_all_combinations(capsys):
    out, _ = run_ok(capsys, [
        "risk", "--theta1", "15.12", "--theta2", "19.12", "--n", "6",
    ])
    lines = out.strip().splitlines()
    assert len(lines) == 4
    parsed = dict(l.split(" = ") for l in lines)
    prior = ThetaPrior.uniform(15.12, 19.12)
    assert float(parsed["risk.smspe.simple"]) == pytest.approx(
        risk_smspe(prior, equispaced(6)), rel=1e-9)
    assert float(parsed["risk.imspe.ordinary"]) == pytest.approx(
        risk_imspe(prior, equispaced(6), "ordinary"), rel=1e-9)


def test_risk_prior_file(capsys, tmp_path):
    prior_path = tmp_path / "prior.txt"
    # flat tabulated density equals the uniform prior
    prior_path.write_text("# rate density\n16.62 1.0\n17.62 1.0\n")
    out, _ = run_ok(capsys, [
        "risk", "--criterion", "smspe", "--prior-file", str(prior_path), "--n", "17",
    ])
    want = risk_smspe(ThetaPrior.uniform(16.62, 17.62), equispaced(17))
    assert float(out) == pytest.approx(want, abs=1e-7)


def test_risk_flag_validation(capsys, tmp_path):
    code = run_command(["risk", "--criterion", "smspe", "--n", "5"])
    _, err = capsys.readouterr()
    assert code == 2 and "--theta1 and --theta2" in err
    prior_path = tmp_path / "prior.txt"
    prior_path.write_text("16.62 1.0\n17.62 1.0\n")
    code = run_command(["risk", "--criterion", "smspe", "--n", "5",
                        "--prior-file", str(prior_path), "--theta1", "16.0"])
    _, err = capsys.readouterr()
    assert code == 2 and "mutually exclusive" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("16.62 1.0 extra\n")
    code = run_command(["risk", "--criterion", "smspe", "--n", "5",
                        "--prior-file", str(bad)])
    _, err = capsys.readouterr()
    assert code == 2 and "line 1" in err


def test_risk_honours_model_and_prior_variance(capsys):
    out, _ = run_ok(capsys, [
        "risk", "--criterion", "smspe", "--model", "ordinary", "--e-sigma11", str(S11),
        "--theta1", "15.12", "--theta2", "19.12", "--n", "6",
    ])
    prior = ThetaPrior.uniform(15.12, 19.12, e_sigma11=S11)
    assert float(out) == pytest.approx(risk_smspe(prior, equispaced(6), "ordinary"), rel=1e-9)


# --------------------------------------------------------------------------
# flags a subcommand would ignore
# --------------------------------------------------------------------------

IGNORED_FLAGS = {
    "evaluate-design-and-n": (
        ["evaluate", "--criterion", "smspe", "--theta", "2.0", "--design", "{design}",
         "--n", "17"], "mutually exclusive"),
    "risk-design-and-n": (
        ["risk", "--theta1", "1.0", "--theta2", "2.0", "--design", "{design}", "--n", "17"],
        "mutually exclusive"),
    "profile-design-and-n": (
        ["profile", "--theta", "2.0", "--design", "{design}", "--n", "17"],
        "mutually exclusive"),
    "spec-and-sigma11": (
        ["evaluate", "--criterion", "smspe", "--spec", "{spec}", "--sigma11", "5", "--n", "17"],
        "mutually exclusive"),
    "fit-stations-and-design": (
        ["fit", "--observations", "{obs}", "--stations", "{stations}", "--design", "{design}"],
        "mutually exclusive"),
    "optimize-risk-with-sigma11": (
        ["optimize", "--criterion", "risk_smspe", "--n", "4", "--theta1", "1.0",
         "--theta2", "2.0", "--sigma11", "5"], "not --theta/--spec/--sigma11"),
    "optimize-kernel-with-e-sigma11": (
        ["optimize", "--criterion", "smspe", "--n", "4", "--theta", "2.0",
         "--e-sigma11", "5"], "not prior flags"),
    "efficiency-prior-with-sigma11": (
        ["efficiency", "--criterion", "smspe", "--theta1", "1.0", "--theta2", "2.0",
         "--sigma11", "5", "--design", "{design}"], "not both"),
    "risk-model-without-criterion": (
        ["risk", "--theta1", "1.0", "--theta2", "2.0", "--n", "17", "--model", "ordinary"],
        "--model needs --criterion"),
}


@pytest.mark.parametrize("case", sorted(IGNORED_FLAGS))
def test_cli_refuses_flags_it_would_ignore(capsys, tmp_path, case):
    argv, message = IGNORED_FLAGS[case]
    spec = tmp_path / "m.cfg"
    spec.write_text(format_config(GeneralizedMarkov(
        S11, 0.94, 0.25, ExponentialCorrelogram(THETA), NuggetCorrelogram())))
    stations = tmp_path / "stations.csv"
    stations.write_text("station_id,lat,lon,order\n"
                        + "".join(f"s{i},0.0,{0.3 * i},{i}\n" for i in range(3)))
    obs = tmp_path / "obs.csv"
    obs.write_text(obs_csv_text([0.1, -0.4, 0.3], [0.2, 0.1, -0.5]))
    files = {"design": write_design(tmp_path, [0.25, 0.75]), "spec": str(spec),
             "stations": str(stations), "obs": str(obs)}
    code = run_command([arg.format(**files) for arg in argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert message in err


# --------------------------------------------------------------------------
# fit / ingest
# --------------------------------------------------------------------------

def obs_csv_text(z1, z2, ids=None):
    ids = ids or [f"s{i}" for i in range(len(z1))]
    rows = ["station_id,z1,z2"]
    rows += [f"{i},{float(a)!r},{float(b)!r}" for i, a, b in zip(ids, z1, z2)]
    return "\n".join(rows) + "\n"


def test_fit_with_design_file(capsys, tmp_path):
    design = equispaced(8)
    z1, z2 = simulate_observations(
        design, 17.12, 0.85, 0.94, 0.25, replicates=1, seed=5)
    dpath = write_design(tmp_path, design.gaps)
    opath = tmp_path / "obs.csv"
    opath.write_text(obs_csv_text(z1[0], z2[0]))
    spec_out = tmp_path / "fit.cfg"
    out, _ = run_ok(capsys, [
        "fit", "--observations", str(opath), "--design", dpath,
        "--no-standardize", "--spec-out", str(spec_out),
    ])
    fields = dict(l.split(" = ") for l in out.strip().splitlines())
    assert float(fields["theta"]) > 0
    assert fields["converged"] in ("true", "false")
    # the written config must parse back to the fitted model
    model = parse_config(spec_out.read_text())
    assert isinstance(model, GeneralizedMarkov)
    assert model.c11.rate == pytest.approx(float(fields["theta"]), rel=1e-10)
    assert model.rho == pytest.approx(float(fields["rho"]), rel=1e-10)


def test_fit_warns_when_theta_reaches_the_bracket_edge(capsys, tmp_path):
    # white noise on 17 sites: theta runs to the top of its search bracket
    rng = np.random.default_rng(1)
    dpath = write_design(tmp_path, equispaced(17).gaps)
    opath = tmp_path / "obs.csv"
    opath.write_text(obs_csv_text(rng.standard_normal(17), rng.standard_normal(17)))
    out, err = run_ok(capsys, ["fit", "--observations", str(opath), "--design", dpath])
    fields = dict(l.split(" = ") for l in out.strip().splitlines())
    assert fields["converged"] == "false"
    assert float(fields["theta"]) == pytest.approx(20.0 * 16, rel=1e-5)
    assert "did not converge" in err and "edge of its search bracket" in err
    # a fit inside the bracket stays silent
    z1, z2 = simulate_observations(equispaced(17), 17.12, 0.85, 0.94, 0.25, seed=5)
    opath.write_text(obs_csv_text(z1[0], z2[0]))
    out, err = run_ok(capsys, ["fit", "--observations", str(opath), "--design", dpath])
    assert "converged = true" in out and err == ""


def test_fit_refuses_a_secondary_that_is_a_multiple_of_the_primary(capsys, tmp_path):
    z1, _ = simulate_observations(equispaced(17), 17.12, 0.85, 0.94, 0.25, seed=5)
    dpath = write_design(tmp_path, equispaced(17).gaps)
    opath = tmp_path / "obs.csv"
    opath.write_text(obs_csv_text(z1[0], 2.5 * z1[0]))
    code = run_command(["fit", "--observations", str(opath), "--design", dpath])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "constant multiple of z1" in err and "invalid model" not in err


def test_fit_observation_count_mismatch(capsys, tmp_path):
    dpath = write_design(tmp_path, equispaced(5).gaps)
    opath = tmp_path / "obs.csv"
    opath.write_text(obs_csv_text([0.1, 0.2], [0.3, 0.4]))
    code = run_command(["fit", "--observations", str(opath), "--design", dpath])
    _, err = capsys.readouterr()
    assert code == 2 and "observation rows" in err


def test_fit_via_stations(capsys, tmp_path):
    lons = [0.0, 0.2, 0.5, 0.7, 1.1, 1.6]
    spath = tmp_path / "stations.csv"
    spath.write_text(
        "station_id,lat,lon,order\n"
        + "".join(f"s{i},0.0,{lon},{i}\n" for i, lon in enumerate(lons)))
    z1, z2 = simulate_observations(
        equispaced(6), 17.12, 0.85, 0.94, 0.25, replicates=1, seed=6)
    opath = tmp_path / "obs.csv"
    # shuffled rows; alignment is by station id
    order = [3, 0, 5, 1, 4, 2]
    opath.write_text(obs_csv_text(
        [z1[0][i] for i in order], [z2[0][i] for i in order],
        ids=[f"s{i}" for i in order]))
    out, _ = run_ok(capsys, ["fit", "--observations", str(opath),
                             "--stations", str(spath)])
    assert "theta = " in out


def test_ingest_and_fit_refuse_duplicate_station_ids(capsys, tmp_path):
    spath = tmp_path / "stations.csv"
    spath.write_text("station_id,lat,lon,order\n"
                     + "".join(f"{sid},0.0,{0.3 * i},{i}\n" for i, sid in enumerate("abac")))
    opath = tmp_path / "obs.csv"
    opath.write_text(obs_csv_text([1, 3, 5], [0.5, 0.1, 0.9], ids=list("abc")))
    for argv in (["ingest", "--stations", str(spath)],
                 ["fit", "--observations", str(opath), "--stations", str(spath)]):
        code = run_command(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "duplicate station ids: ['a']" in err


def test_ingest_roundtrip(capsys, tmp_path):
    spath = tmp_path / "stations.csv"
    spath.write_text(
        "station_id,lat,lon,order\na,0,0.0,1\nb,0,0.3,2\nc,0,1.0,3\n")
    out, _ = run_ok(capsys, ["ingest", "--stations", str(spath)])
    assert out.startswith("# stations = 3")
    design = load_design_text(out)
    np.testing.assert_allclose(design.gaps, [0.3, 0.7], atol=1e-12)
    out_file = tmp_path / "design.txt"
    out, _ = run_ok(capsys, ["ingest", "--stations", str(spath),
                             "--out", str(out_file)])
    assert "wrote" in out
    assert load_design_text(out_file.read_text()).n == 3


@pytest.mark.parametrize("kind", ["design", "stations", "observations", "prior", "config"])
def test_input_files_may_start_with_a_byte_order_mark(capsys, tmp_path, kind):
    # spreadsheet exports often begin with a UTF-8 byte-order mark
    z1, z2 = simulate_observations(equispaced(6), 17.12, 0.85, 0.94, 0.25, seed=6)
    dpath = write_design(tmp_path, equispaced(6).gaps)
    text, argv = {
        "design": ("".join(f"{g!r}\n" for g in (0.1, 0.2, 0.3, 0.4)),
                   ["evaluate", "--criterion", "imspe", "--theta", "17.12", "--design"]),
        "stations": ("station_id,lat,lon,order\na,0,0.0,1\nb,0,0.3,2\nc,0,1.0,3\n",
                     ["ingest", "--stations"]),
        "observations": (obs_csv_text(z1[0], z2[0]),
                         ["fit", "--design", dpath, "--observations"]),
        "prior": ("16.62 1.0\n17.62 1.0\n",
                  ["risk", "--criterion", "smspe", "--n", "17", "--prior-file"]),
        "config": (format_config(GeneralizedMarkov(
            S11, 0.94, 0.25, ExponentialCorrelogram(THETA), NuggetCorrelogram())),
                   ["evaluate", "--criterion", "smspe", "--n", "17", "--spec"]),
    }[kind]
    outs = []
    for bom in ("", "\ufeff"):
        path = tmp_path / f"{kind}{len(bom)}.txt"
        path.write_text(bom + text, encoding="utf-8")
        outs.append(run_ok(capsys, argv + [str(path)])[0])
    assert outs[0] == outs[1] != ""


# --------------------------------------------------------------------------
# profile
# --------------------------------------------------------------------------

def test_profile_includes_midpoints(capsys):
    out, _ = run_ok(capsys, [
        "profile", "--theta", str(THETA), "--n", "3", "--grid", "16",
    ])
    lines = out.strip().splitlines()
    assert lines[0] == "x0,mspe"
    rows = {float(a): float(b) for a, b in (l.split(",") for l in lines[1:])}
    assert 0.25 in rows and 0.75 in rows
    # supremum sits at an interval midpoint
    mid = math.tanh(THETA * 0.5 / 2.0)
    assert max(rows.values()) == pytest.approx(mid, rel=1e-12)
    assert rows[0.5] == 0.0  # design point


def test_profile_out_and_validation(capsys, tmp_path):
    out_file = tmp_path / "profile.csv"
    run_ok(capsys, ["profile", "--theta", "2.0", "--n", "3",
                    "--grid", "8", "--out", str(out_file)])
    assert out_file.read_text().startswith("x0,mspe")
    code = run_command(["profile", "--theta", "2.0", "--n", "3", "--grid", "1"])
    _, err = capsys.readouterr()
    assert code == 2 and "--grid" in err


# --------------------------------------------------------------------------
# exit codes
# --------------------------------------------------------------------------

def test_numeric_failure_exit_code(capsys):
    # decay rate times gap below the conditioning floor
    code = run_command(["profile", "--theta", "1e-12", "--n", "3",
                        "--grid", "4"])
    _, err = capsys.readouterr()
    assert code == 3 and "numeric error" in err


def test_module_runs_as_a_script():
    import cokrig

    env = {**os.environ, "PYTHONPATH": str(Path(cokrig.__file__).resolve().parents[1])}
    ok = subprocess.run(
        [sys.executable, "-m", "cokrig.cli", "evaluate", "--criterion", "smspe",
         "--theta", str(THETA), "--n", "17"],
        capture_output=True, text=True, env=env, timeout=60)
    assert ok.returncode == 0, ok.stderr
    assert float(ok.stdout) == pytest.approx(math.tanh(THETA / 32.0), rel=1e-12)
    bad = subprocess.run([sys.executable, "-m", "cokrig.cli", "evaluate", "--criterion",
                          "smspe", "--n", "17"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert bad.returncode == 2 and "--theta or --spec" in bad.stderr
