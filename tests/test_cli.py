import hashlib
import math

import pytest

from diracmech import checks, dirac
from diracmech.checks import CheckResult
from diracmech.cli import cmd_check, cmd_inspect, main


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


@pytest.mark.parametrize(
    "window", [["--t-end", "1e300", "--dt", "1e-300"], ["--t-end", "inf"]], ids=["overflow", "inf"]
)
def test_simulate_non_finite_step_count_is_rejected(capsys, window):
    assert run_main(["simulate", "--system", "skater_free", *window]) == 1
    assert capsys.readouterr().err.startswith("error: ")


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
    original = dirac.solve_consistency

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dirac, "solve_consistency", counted)
    # an engine that imports the function by name is counted too
    monkeypatch.setattr("diracmech.cli.solve_consistency", counted, raising=False)
    assert cmd_inspect("ball_magnetic", [0.2, -0.1], [1.0, 0.3, -0.2]) == 0
    capsys.readouterr()
    assert len(calls) == 1


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
# Linux); the outputs must stay byte-identical.
GOLDEN_DIGESTS = {
    "skater_free": ("b5ff69788921961d2ace881540fd331c5558890bfbbcbb02b7307fced552d483", "a80322cf000386cf347a0673fb226de01fa758db97bcfc6d2108e0d2506c5bbd"),
    "skater_slope": ("035bd92c3cae334d55160374279ba131c3934b0bc4e615f0a513cbebcf32d19b", "1d31876291edff8ce74a93653b9228e1146a50dd49b391f36382a55976bb7ce4"),
    "skater_charged": ("c26d87bcc83ce1d303178f72021b156b73bb32347c9b29992b582f80e7646d9f", "ccefdf11437e4bb9bf3f8135ec54e9169ae2b7d7636e5fe2434a3b7d17b1f77b"),
    "ball_free": ("0b562a508d3fbd529a2713e552208efd55ea4fec684f0c5849836866ddbc3d7e", "b678877cccfbd53e098d9402cc370df7594272ada29fa3bfb3773945bb33a466"),
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
