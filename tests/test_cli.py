import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import diracmech
from diracmech import checks, dirac
from diracmech.checks import CheckResult
from diracmech.cli import RunConfig, cmd_check, cmd_inspect, cmd_simulate, main
from diracmech.systems import build


def run_main(argv):
    return main(argv)


# -- list -----------------------------------------------------------------------


def test_list_contains_catalog(capsys):
    assert run_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "skater_free" in out
    assert "ball_harmonic" in out
    assert "lambda=1" in out


# -- simulate ---------------------------------------------------------------------


def test_simulate_header_contract(tmp_path):
    path = tmp_path / "free.csv"
    code = run_main([
        "simulate", "--system", "skater_free", "--ic", "0,0,0,1,1",
        "--t-end", "0.05", "--out", str(path),
    ])
    assert code == 0
    header = path.read_text().splitlines()[0]
    assert header == "t,x,y,phi,eta1,eta2,eta_alpha_1,H,res_consistency,res_admissibility"


def test_simulate_ball_header_columns(tmp_path):
    path = tmp_path / "ball.csv"
    assert run_main([
        "simulate", "--system", "ball_harmonic", "--ic", "0,0,1,0,0",
        "--t-end", "0.05", "--out", str(path),
    ]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "t,x,y,eta1,eta2,eta3,eta_alpha_1,eta_alpha_2,H,res_consistency,res_admissibility"
    )
    assert all(len(line.split(",")) == 11 for line in lines)


def test_simulate_potential_matches_harmonic_bit_for_bit(tmp_path):
    a = tmp_path / "augmented.csv"
    b = tmp_path / "harmonic.csv"
    common = ["--ic", "0.3,-0.2,1,0.5,0.25", "--t-end", "0.4", "--out"]
    assert run_main(["simulate", "--system", "ball_magnetic",
                     "--potential", "0.5*(x^2+y^2)", *common, str(a)]) == 0
    assert run_main(["simulate", "--system", "ball_harmonic", *common, str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_csv_is_lossless(tmp_path):
    path = tmp_path / "round.csv"
    assert run_main([
        "simulate", "--system", "skater_slope", "--ic", "0.25,-1,0,1,1",
        "--t-end", "0.2", "--out", str(path),
    ]) == 0
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    rebuilt = [lines[0]]
    for line in lines[1:]:
        rebuilt.append(",".join(repr(float(cell)) for cell in line.split(",")))
    assert "\n".join(rebuilt) + "\n" == text
    assert "\r" not in text


def test_simulate_params_and_config(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        """
[run]
system = skater_slope
ic = 0.25,-1,0,1,1
t_end = 0.1
dt = 1e-3
stride = 10

[params]
lambda = 2.0
""".strip()
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run_main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
    # explicit flag overrides the config parameter
    assert run_main([
        "simulate", "--config", str(cfg), "--param", "lambda=2.0", "--out", str(out_b),
    ]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    direct = tmp_path / "c.csv"
    assert run_main([
        "simulate", "--system", "skater_slope", "--param", "lambda=2.0",
        "--ic", "0.25,-1,0,1,1", "--t-end", "0.1", "--out", str(direct),
    ]) == 0
    assert direct.read_bytes() == out_a.read_bytes()


def test_simulate_bad_usage_exit_codes(tmp_path, capsys):
    assert run_main(["simulate", "--system", "nosuch"]) == 1
    assert run_main(["simulate", "--system", "skater_free", "--ic", "1,2"]) == 1
    assert run_main(["simulate", "--system", "skater_free", "--param", "q=oops"]) == 1
    assert run_main(["simulate"]) == 1
    assert run_main(["simulate", "--config", str(tmp_path / "missing.ini")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "config, named",
    [
        ("[run]\nsystem = skater_free\nt_end = abc\n", "t_end"),
        ("[run]\nsystem = skater_free\nstride = 1.5\n", "stride"),
        ("[run]\nsystem = skater_slope\n[params]\nlambda = steep\n", "lambda"),
        ("system = skater_free\nt_end = 1\n", "no section headers"),
    ],
    ids=["t_end_not_a_number", "stride_not_an_integer", "param_not_a_number", "no_section_header"],
)
def test_simulate_malformed_config_is_a_usage_error(tmp_path, capsys, config, named):
    path = tmp_path / "bad.ini"
    path.write_text(config)
    assert run_main(["simulate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and named in err


def test_config_values_are_literal(tmp_path, capsys):
    out = tmp_path / "run%1.csv"
    path = tmp_path / "run.ini"
    path.write_text(f"[run]\nsystem = skater_free\nt_end = 0.01\nout = {out}\n")
    assert run_main(["simulate", "--config", str(path)]) == 0
    assert [p.name for p in tmp_path.iterdir() if p.suffix == ".csv"] == ["run%1.csv"]
    assert out.read_text().startswith("t,x,y,phi")
    assert capsys.readouterr().err == ""


def test_config_percent_in_potential_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nsystem = skater_free\nt_end = 0.01\npotential = 5%x\n")
    assert run_main(["simulate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--system", "skater_free", "--t-end", "0.01"], 0),
        (
            ["--system", "skater_free", "--potential", "0.001*log(x)",
             "--ic", "1,0," + repr(math.pi) + ",1,0.001", "--t-end", "5"],
            2,
        ),
    ],
    ids=["complete", "truncated"],
)
def test_simulate_unwritable_out_is_an_error(tmp_path, capsys, argv, code):
    path = tmp_path / "missing_dir" / "x.csv"
    assert run_main(["simulate", *argv]) == code
    capsys.readouterr()
    assert run_main(["simulate", *argv, "--out", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write {str(path)!r}: " in err
    assert all(line.startswith("error: ") for line in err.splitlines())
    assert not path.parent.exists()


@pytest.mark.parametrize("exponent", ["1.5", "2"])
def test_simulate_power_overflow_is_one_error_line(capsys, exponent):
    argv = ["simulate", "--system", "skater_free", "--ic", "0,0,0,1,1", "--t-end", "0.003",
            "--dt", "0.001", "--potential", f"x + 1e300^{exponent}"]
    assert run_main(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: integration of 'skater_free' failed near t=0: "
        f"power overflow for exponent {exponent}\n"
    )


@pytest.mark.parametrize(
    "window", [["--t-end", "1e300", "--dt", "1e-300"], ["--t-end", "inf"]], ids=["overflow", "inf"]
)
def test_simulate_non_finite_step_count_is_rejected(capsys, window):
    assert run_main(["simulate", "--system", "skater_free", *window]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["--system", "ball_free", "--ic", "0,0,1,0,nan", "--t-end", "0.01"],
        ["--system", "skater_free", "--t-end", "1e9", "--dt", "1e-12"],
        ["--system", "skater_free", "--t-end", "0.002", "--potential", "(" * 600 + "x" + ")" * 600],
    ],
    ids=["nan-ic", "above-max-steps", "deep-potential"],
)
def test_simulate_rejected_before_integration(tmp_path, capsys, argv):
    path = tmp_path / "never.csv"
    assert run_main(["simulate", *argv, "--out", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not path.exists()


@pytest.mark.parametrize("power", ["0^-1", "0^-0.5", "(-0)^-0.5"])
def test_zero_base_with_negative_exponent_is_an_error_line(capsys, power):
    argv = ["simulate", "--system", "skater_free", "--ic", "0,0,0,1,1",
            "--t-end", "0.003", "--dt", "0.001", "--potential", f"x + {power}"]
    assert run_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.rstrip().endswith("zero base with negative exponent")


def test_simulate_truncation_writes_partial_and_exits_2(tmp_path, capsys):
    path = tmp_path / "partial.csv"
    code = run_main([
        "simulate", "--system", "skater_free", "--potential", "0.001*log(x)",
        "--ic", "1,0," + repr(math.pi) + ",1,0.001",
        "--t-end", "5", "--out", str(path),
    ])
    assert code == 2
    lines = path.read_text().splitlines()
    assert lines[0].startswith("t,x,y,phi")
    assert len(lines) >= 2
    assert "error" in capsys.readouterr().err


def test_simulate_failure_in_a_sample_writes_the_samples_before_it(tmp_path, capsys, monkeypatch):
    # the third recorded sample's admissibility residual raises mid-run
    from diracmech.algebroid import SkewAlgebroid
    from diracmech.errors import SingularMatrixError

    calls = []

    def singular(self, q, qdot, k):
        calls.append(q)
        if len(calls) == 3:
            raise SingularMatrixError("singular constraint block")
        return 0.0

    monkeypatch.setattr(SkewAlgebroid, "admissibility_residual", singular)
    path = tmp_path / "partial.csv"
    config = RunConfig(system="skater_free", ic=[0.1, -0.2, 0.3, 1.0, 0.5], t_end=0.1, out=str(path))
    assert cmd_simulate(config) == 2
    err = capsys.readouterr().err
    assert err == "error: integration of 'skater_free' failed near t=0.02: singular constraint block\n"
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,y,phi,eta1,eta2,eta_alpha_1,H,res_consistency,res_admissibility"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "0.01"]


# -- check ------------------------------------------------------------------------


def test_check_single_system_output(capsys):
    code = cmd_check(scope="skater_free", seed=0)
    out = capsys.readouterr().out
    assert code == 0
    assert "CHECK isotropy_skater_free PASS" in out
    assert "CHECK oracle_mechanical_skater_free PASS" in out
    assert "CHECK energy_skater_free PASS" in out


def test_check_unknown_scope(capsys):
    assert cmd_check(scope="nosuch") == 1
    capsys.readouterr()


def test_check_reports_failures_with_nonzero_exit(monkeypatch, capsys):
    def broken(scope="all", seed=0):
        return [CheckResult("doctored_tolerance", False, "max_err=1 tol=0")]

    monkeypatch.setattr("diracmech.cli.run_checks", broken)
    assert cmd_check(scope="all", seed=0) == 1
    out = capsys.readouterr().out
    assert "CHECK doctored_tolerance FAIL" in out


def test_check_deliberately_broken_tolerance(monkeypatch, capsys):
    monkeypatch.setattr(checks, "ENERGY_DRIFT_TOL", -1.0)
    code = cmd_check(scope="skater_free", seed=0)
    out = capsys.readouterr().out
    assert code == 1
    assert "CHECK energy_skater_free FAIL" in out


# -- inspect -----------------------------------------------------------------------


def test_inspect_skater_structure_lines(capsys):
    assert cmd_inspect("skater_free", [0.0, 0.0, 0.0], [1.0, 1.0]) == 0
    out = capsys.readouterr().out
    assert "c[3][1][2]=1" in out
    assert "c[1][2][3]=1" in out
    assert "d(x)/dt=1" in out
    assert "eta_alpha_1=0" in out


def test_inspect_prints_the_field_program(capsys):
    argv = ["inspect", "--system", "ball_free", "--q", "0.1,0.2", "--eta", "1,0,0"]
    assert run_main(argv) == 0
    plain = capsys.readouterr().out
    assert run_main([*argv, "--program"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(plain)
    header, first, *program = out[len(plain) :].splitlines()
    assert header == "field program (14 lines):"
    assert first == "def traced(x0, x1, x2, x3, x4, x5, x6):"
    assert len(program) == 13 and program[-1] == "    return reference(x0, x1, x2, x3, x4, x5, x6)"


def test_inspect_ball_structure_value(capsys):
    assert cmd_inspect("ball_free", [0.0, 0.0], [1.0, 0.0, 0.0]) == 0
    out = capsys.readouterr().out
    assert "c[1][2][3]=0.5" in out


def test_inspect_seventeen_digit_output(capsys):
    assert cmd_inspect("skater_free", [0.0, 0.0, 0.3], [1.0, 1.0]) == 0
    out = capsys.readouterr().out
    assert f"{math.cos(0.3):.17g}" in out


def test_inspect_solves_consistency_once(monkeypatch, capsys):
    calls = []
    original = dirac._transverse

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # every consistency solve, solve_consistency's included, runs _transverse
    monkeypatch.setattr(dirac, "_transverse", counted)
    build("ball_magnetic")
    spot_checks = len(calls)  # the solves build's spot check makes
    calls.clear()
    assert cmd_inspect("ball_magnetic", [0.2, -0.1], [1.0, 0.3, -0.2]) == 0
    capsys.readouterr()
    assert len(calls) - spot_checks == 1


def test_inspect_at_an_infinite_heading_is_an_error(capsys):
    assert run_main(["inspect", "--system", "skater_free", "--q", "0,0,inf", "--eta", "1,1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: cos of inf\n"
    assert captured.out == ""


@pytest.mark.parametrize("params", [["k2=0"], ["k2=-1", "R=-1"], ["m=inf"]])
def test_simulate_rejects_degenerate_parameters(params, capsys):
    system = "skater_free" if params == ["k2=0"] else "ball_free"
    argv = ["simulate", "--system", system, "--t-end", "0.01"]
    for item in params:
        argv += ["--param", item]
    assert run_main(argv) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r"error: parameter '(k2|m)' of system '\w+' must be positive and finite, got \S+\n", captured.err)
    assert captured.out == ""


@pytest.mark.parametrize("value", ["abc", None])
def test_cmd_simulate_reports_a_non_numeric_parameter(value, capsys):
    assert cmd_simulate(RunConfig(system="skater_free", params={"m": value})) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: parameter 'm' of system 'skater_free' must be positive and finite, got {value!r}\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, out, err",
    [
        (
            ["simulate", "--system", "skater_free", "--ic", ""],
            "",
            "error: --ic needs 5 values for skater_free (x, y, phi, eta1, eta2), got 0\n",
        ),
        (
            ["simulate", "--system", "skater_free", "--ic", "1,a"],
            "",
            "error: expected comma-separated numbers, got '1,a'\n",
        ),
        (
            ["simulate", "--system", "skater_free", "--param", "m"],
            "",
            "error: --param expects name=value, got 'm'\n",
        ),
        (
            ["check", "--system", "nosuch"],
            "",
            "error: unknown system 'nosuch'; available: "
            "ball_free, ball_harmonic, ball_magnetic, skater_charged, skater_free, skater_slope\n",
        ),
    ],
)
def test_main_reports_bad_input_in_one_line(argv, out, err, capsys):
    assert run_main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


def test_inspect_errors(capsys):
    assert cmd_inspect("nosuch", [0.0], [0.0]) == 1
    assert cmd_inspect("skater_free", [0.0, 0.0], [1.0, 1.0]) == 1
    capsys.readouterr()


def test_usage_error_exit_code(capsys):
    assert run_main(["nosuchcommand"]) == 1
    capsys.readouterr()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


def test_check_ball_magnetic_contains_oracle_line(capsys):
    assert cmd_check(scope="ball_magnetic", seed=0) == 0
    assert "CHECK oracle_magnetic_ball PASS" in capsys.readouterr().out


# -- golden outputs ------------------------------------------------------------------

GOLDEN_IC = {
    "skater_free": "0.1,-0.2,0.3,1,0.5",
    "skater_slope": "0.25,-1,0,1,1",
    "skater_charged": "0.1,-0.2,0.3,1,0.5",
    "ball_free": "0.2,-0.1,1,0.3,-0.2",
    "ball_magnetic": "0.2,-0.1,1,0.3,-0.2",
    "ball_harmonic": "0.2,-0.1,1,0.3,-0.2",
}

# SHA-256 of (the CSV of a 20-step run at stride 1, the inspect output at
# the initial state), recorded before the reduced-field pipeline was
# merged into dirac.evaluate_reduced (CPython 3.11, numpy 2.4, x86-64
# Linux); the outputs must stay byte-identical.  The ball_free inspect
# digest was re-recorded when the element contraction became fixed-order
# float code: d(eta1)/dt, which cancels exactly, prints 0 where numpy's
# fused multiply-add left 1.6653345369377347e-18.
GOLDEN_DIGESTS = {
    "skater_free": ("b5ff69788921961d2ace881540fd331c5558890bfbbcbb02b7307fced552d483", "a80322cf000386cf347a0673fb226de01fa758db97bcfc6d2108e0d2506c5bbd"),
    "skater_slope": ("035bd92c3cae334d55160374279ba131c3934b0bc4e615f0a513cbebcf32d19b", "1d31876291edff8ce74a93653b9228e1146a50dd49b391f36382a55976bb7ce4"),
    "skater_charged": ("c26d87bcc83ce1d303178f72021b156b73bb32347c9b29992b582f80e7646d9f", "ccefdf11437e4bb9bf3f8135ec54e9169ae2b7d7636e5fe2434a3b7d17b1f77b"),
    "ball_free": ("0b562a508d3fbd529a2713e552208efd55ea4fec684f0c5849836866ddbc3d7e", "59d2c759b7b44c1bca3d2abcadff5cef96efe87be20617f04e2e90923fd4a50e"),
    "ball_magnetic": ("209fc553b7c7140213948734e84d90c95c89d16eb4d38b88d28e55bc43f1bccd", "a441b1532de9c86b0526aa14cf1afd1bced86a2b0924f4f4cdbcd97ac108f532"),
    "ball_harmonic": ("41a3922b28bf04e49e311aa7a88318fdb9e54aa16898d35f05f71ed83190e57d", "db7e3f3b4c3da72091b84af5255a84a14af1f915a508aaf9bbd01e1d2bce3b50"),
}
GOLDEN_POTENTIAL_DIGEST = "d091ac94bb9f833bfbc8d27fdb77f9dcff09c02d52444c8a0c3e1e6d249fa555"


def _csv_digest(tmp_path, argv):
    path = tmp_path / "golden.csv"
    assert run_main([
        "simulate", *argv, "--t-end", "0.02", "--dt", "1e-3", "--stride", "1", "--out", str(path),
    ]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_IC))
def test_golden_csv_and_inspect_digests(tmp_path, capsys, name):
    ic = GOLDEN_IC[name]
    csv_digest, inspect_digest = GOLDEN_DIGESTS[name]
    assert _csv_digest(tmp_path, ["--system", name, "--ic", ic]) == csv_digest
    m = 3 if name.startswith("skater") else 2
    values = ic.split(",")
    capsys.readouterr()
    assert run_main([
        "inspect", "--system", name, "--q", ",".join(values[:m]), "--eta", ",".join(values[m:]),
    ]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == inspect_digest


def test_golden_potential_csv_digest(tmp_path):
    argv = [
        "--system", "skater_charged", "--ic", GOLDEN_IC["skater_charged"],
        "--potential", "0.3*sin(x)+y^2/(2+cos(x))",
    ]
    assert _csv_digest(tmp_path, argv) == GOLDEN_POTENTIAL_DIGEST


# Regenerates every pinned output in a fresh interpreter and prints the
# digests as JSON: the six CSV and inspect outputs, the --potential CSV,
# and the four Newton trajectories of test_integrate.
_DIGEST_CHILD = r"""
import contextlib, hashlib, io, json, pathlib, sys, tempfile
sys.path[:0] = sys.argv[1:3]
import test_cli, test_integrate as ti
from diracmech import build, simulate

out = {}
with tempfile.TemporaryDirectory() as tmp:
    tmp = pathlib.Path(tmp)
    for name, ic in test_cli.GOLDEN_IC.items():
        m = 3 if name.startswith("skater") else 2
        values = ic.split(",")
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            test_cli.run_main(["inspect", "--system", name, "--q", ",".join(values[:m]),
                               "--eta", ",".join(values[m:])])
        out[name] = [test_cli._csv_digest(tmp, ["--system", name, "--ic", ic]),
                     hashlib.sha256(text.getvalue().encode()).hexdigest()]
    out["potential"] = test_cli._csv_digest(tmp, [
        "--system", "skater_charged", "--ic", test_cli.GOLDEN_IC["skater_charged"],
        "--potential", "0.3*sin(x)+y^2/(2+cos(x))"])
for name in sorted(ti.NEWTON_DIGESTS):
    if name == "quartic":
        spec, t_end, stride, ic = ti.quartic_skater(), 1.0, 10, ti.reduced((0.1, -0.2, 0.3), (1.0, 0.5))
    else:
        spec, t_end, stride = ti.newton_spec(build(name)), 0.5, 5
        ic = ti.reduced((0.1, -0.2, 0.3), (1.0, 0.5)) if spec.m == 3 else ti.reduced((0.2, -0.1), (1.0, 0.3, -0.2))
    out["newton_" + name] = ti.trajectory_digest(simulate(spec, ic, t_end=t_end, dt=1e-3, stride=stride))
print(json.dumps(out, sort_keys=True))
"""


def test_pinned_outputs_do_not_depend_on_the_blas_kernel():
    """The same bytes with OpenBLAS's Prescott kernel (no fused multiply-add)
    and its Haswell kernel (fused multiply-add), each set in a child's
    environment only, and the pinned digests in both."""
    src = str(Path(diracmech.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    digests = []
    for kernel in ("Prescott", "Haswell"):
        done = subprocess.run(
            [sys.executable, "-c", _DIGEST_CHILD, src, tests],
            env={**os.environ, "OPENBLAS_CORETYPE": kernel},
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        digests.append(json.loads(done.stdout))
    assert digests[0] == digests[1]
    from test_integrate import NEWTON_DIGESTS

    want = {name: list(pair) for name, pair in GOLDEN_DIGESTS.items()}
    want["potential"] = GOLDEN_POTENTIAL_DIGEST
    want.update({"newton_" + name: digest for name, digest in NEWTON_DIGESTS.items()})
    assert digests[0] == want


def test_every_check_line_carries_its_runtime(capsys):
    assert cmd_check(scope="skater_free", seed=0) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("CHECK ")]
    assert len(lines) == 6
    assert all(re.search(r" runtime=\d+\.\d\ds$", line) for line in lines), lines


def _cli_env(**extra):
    """The environment of a ``python -m diracmech`` child that imports this
    checkout."""
    src = str(Path(diracmech.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_python_dash_m_runs_the_cli(capsys):
    done = subprocess.run(
        [sys.executable, "-m", "diracmech", "list"], env=_cli_env(), capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert run_main(["list"]) == 0
    assert done.stdout == capsys.readouterr().out


def test_importing_the_main_module_runs_nothing(capsys):
    import diracmech.__main__ as entry

    assert entry.main is main
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_simulate_into_a_pipe_closed_after_one_line_exits_quietly(unbuffered):
    # about 500 kB of CSV, far more than a pipe holds, so writes fail once
    # the reader has gone, whether stdout is buffered or not
    argv = ["simulate", "--system", "skater_free", "--ic", "0,0,0,1,1", "--t-end", "5", "--stride", "1"]
    with subprocess.Popen(
        [sys.executable, "-m", "diracmech", *argv],
        env=_cli_env(PYTHONUNBUFFERED=unbuffered),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as child:
        assert child.stdout.readline().startswith(b"t,x,y,phi,")
        child.stdout.close()
        _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (1, b"")


def test_list_into_a_closed_pipe_exits_quietly():
    # buffered output that fits the buffer first meets the closed pipe when
    # it is flushed, which main does before returning
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "diracmech", "list"],
            env=_cli_env(PYTHONUNBUFFERED=""),
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")
