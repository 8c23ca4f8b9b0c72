"""Command-line front end.

Subcommands:
    list       catalog names, parameters with defaults, state variables
    simulate   integrate a system and write a CSV trajectory
    check      run the verification suites, one PASS/FAIL line each
    inspect    print frame/anchor, structure nonzeros, consistency
               solution, and the reduced field at one state; with
               --program, the compiled field program too

Numbers in CSV output are the shortest decimal strings that round-trip
the underlying binary values (the ``repr`` of each Python float, each
array column converted once), so files are bit-exact regression
baselines.  An optional config file (INI style, sections [run] and
[params]) mirrors the flags; explicit flags win.
"""

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, field

from . import exprparse
from .algebroid import PhaseState
from .checks import run_checks
from .dirac import evaluate_reduced, reduced_field
from .errors import EngineError, TruncatedTrajectoryError
from .integrate import OBSERVABLE_NAMES, simulate
from .systems import build, catalog_names, hamiltonian_with_potential
from .tracing import source_of

__all__ = ["RunConfig", "main", "cmd_list", "cmd_simulate", "cmd_check", "cmd_inspect"]


class UsageError(EngineError):
    pass


@dataclass
class RunConfig:
    """One simulation request; dimensions are validated against the chosen
    system before execution."""

    system: str
    params: dict = field(default_factory=dict)
    ic: list | None = None
    t_end: float = 10.0
    dt: float = 1e-3
    stride: int = 10
    potential: str | None = None
    out: str | None = None


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt17(value: float) -> str:
    return f"{float(value):.17g}"


def cmd_list(out=None) -> int:
    out = out if out is not None else sys.stdout
    for name in catalog_names():
        spec = build(name)
        params = ", ".join(f"{k}={v:g}" for k, v in sorted(spec.params.items()))
        states = ", ".join(spec.reduced_names)
        out.write(f"{name}\n")
        out.write(f"  params: {params}\n")
        out.write(f"  reduced state: {states}\n")
        if spec.transverse_names:
            out.write(f"  transverse momenta: {', '.join(spec.transverse_names)}\n")
    return 0


def _write_csv(stream, spec, traj):
    header = (
        ["t"]
        + list(spec.base_names)
        + list(spec.admissible_names)
        + list(spec.transverse_names)
        + ["H", "res_consistency", "res_admissibility"]
    )
    stream.write(",".join(header) + "\n")
    obs = [traj.observables[name].tolist() for name in OBSERVABLE_NAMES]
    columns = zip(traj.times.tolist(), traj.states, traj.eta_alpha.tolist(), *obs, strict=True)
    for t, state, eta_alpha, *diagnostics in columns:  # all floats: repr round-trips them
        row = (t, *state.q, *state.eta, *eta_alpha, *diagnostics)
        stream.write(",".join(map(repr, row)) + "\n")


def cmd_simulate(cfg: RunConfig, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        spec = build(cfg.system, cfg.params)
        if cfg.potential:
            spec = hamiltonian_with_potential(spec, exprparse.parse_text(cfg.potential))
        ic_values = cfg.ic
        if ic_values is None:
            ic_values = [0.0] * (spec.m + spec.k)
        if len(ic_values) != spec.m + spec.k:
            raise UsageError(
                f"--ic needs {spec.m + spec.k} values for {spec.name} "
                f"({', '.join(spec.reduced_names)}), got {len(ic_values)}"
            )
        ic = PhaseState(q=ic_values[: spec.m], eta=ic_values[spec.m :], full=False)
    except EngineError as exc:
        err.write(f"error: {exc}\n")
        return 1

    def emit(traj) -> bool:
        if not cfg.out:
            _write_csv(out, spec, traj)
            return True
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                _write_csv(fh, spec, traj)
        except OSError as exc:
            err.write(f"error: cannot write {cfg.out!r}: {exc.strerror or exc}\n")
            return False
        return True

    try:
        traj = simulate(spec, ic, t_end=cfg.t_end, dt=cfg.dt, stride=cfg.stride)
    except TruncatedTrajectoryError as exc:
        err.write(f"error: {exc}\n")
        return 2 if emit(exc.partial) else 1
    except (EngineError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return 1
    return 0 if emit(traj) else 1


def cmd_check(scope: str = "all", seed: int = 0, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        results = run_checks(scope=scope, seed=seed)
    except EngineError as exc:
        err.write(f"error: {exc}\n")
        return 1
    for result in results:
        out.write(result.line() + "\n")
    failed = sum(not r.passed for r in results)
    out.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 0 if failed == 0 else 1


def cmd_inspect(system: str, q_values, eta_values, out=None, err=None, program=False) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        spec = build(system)
        if len(q_values) != spec.m or len(eta_values) != spec.k:
            raise UsageError(
                f"{system} expects {spec.m} base coordinates and {spec.k} admissible momenta"
            )
        rs = PhaseState(q=q_values, eta=eta_values, full=False)
        alg = spec.dirac.alg
        rho = alg.anchor_array(rs.q)
        c = alg.structure(rs.q)
        eta_alpha, _, qdot, etadot = evaluate_reduced(
            spec.dirac, spec.hamiltonian, rs.q, rs.eta, solution=spec.consistency
        )
    except EngineError as exc:
        err.write(f"error: {exc}\n")
        return 1
    out.write(f"system {spec.name}\n")
    state_txt = ", ".join(
        f"{n}={_fmt17(v)}" for n, v in zip(spec.reduced_names, (*rs.q, *rs.eta))
    )
    out.write(f"state: {state_txt}\n")
    out.write("anchor matrix (rows: coordinates, columns: sections):\n")
    for row in rho:
        out.write("  [" + ", ".join(_fmt17(v) for v in row) + "]\n")
    out.write("structure nonzeros ([f_D, f_B] = c[A][B][D] f_A, 1-based):\n")
    n = c.shape[0]
    for a in range(n):
        for b in range(n):
            for d in range(b + 1, n):
                if c[a, b, d] != 0.0:
                    out.write(f"  c[{a + 1}][{b + 1}][{d + 1}]={_fmt17(c[a, b, d])}\n")
    out.write("consistency solution:\n")
    for name, v in zip(spec.transverse_names, eta_alpha):
        out.write(f"  {name}={_fmt17(v)}\n")
    out.write("reduced field:\n")
    for name, v in zip(spec.reduced_names, (*qdot, *etadot)):
        out.write(f"  d({name})/dt={_fmt17(v)}\n")
    if program:
        source = source_of(reduced_field(spec.dirac, spec.hamiltonian, spec.consistency))
        out.write(f"field program ({len(source.splitlines())} lines):\n{source}\n")
    return 0


def _parse_floats(text: str):
    text = text.strip()
    if not text:
        return []
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_param(item: str):
    if "=" not in item:
        raise UsageError(f"--param expects name=value, got {item!r}")
    name, _, value = item.partition("=")
    try:
        return name.strip(), float(value)
    except ValueError as exc:
        raise UsageError(f"parameter {name!r} needs a numeric value, got {value!r}") from exc


def _config_number(path: str, section: str, key: str, text: str, kind=float):
    try:
        return kind(text)
    except ValueError as exc:
        raise UsageError(
            f"config file {path!r}: [{section}] {key} = {text!r} is not a valid {kind.__name__}"
        ) from exc


def _load_config(path: str):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        detail = "; ".join(str(exc).splitlines())
        raise UsageError(f"cannot parse config file {path!r}: {detail}") from exc
    if not read:
        raise UsageError(f"cannot read config file {path!r}")
    cfg = {}
    if parser.has_section("run"):
        run = parser["run"]
        for key in ("system", "potential", "out"):
            if key in run:
                cfg[key] = run[key]
        for key, kind in (("t_end", float), ("dt", float), ("stride", int)):
            if key in run:
                cfg[key] = _config_number(path, "run", key, run[key], kind)
        if "ic" in run:
            cfg["ic"] = _parse_floats(run["ic"])
    if parser.has_section("params"):
        cfg["params"] = {
            k: _config_number(path, "params", k, v) for k, v in parser["params"].items()
        }
    return cfg


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="diracmech", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="catalog names, parameters, state variables")

    sim = sub.add_parser("simulate", help="integrate and write a CSV trajectory")
    sim.add_argument("--config", help="INI file with [run] and [params] sections")
    sim.add_argument("--system", help="catalog system name (see the list subcommand)")
    sim.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    sim.add_argument("--ic", help="comma-separated reduced state (base, then momenta)")
    sim.add_argument("--t-end", type=float, dest="t_end")
    sim.add_argument("--dt", type=float)
    sim.add_argument("--stride", type=int)
    sim.add_argument("--potential", help="expression in the base coordinates added to H")
    sim.add_argument("--out", help="output CSV path (stdout when omitted)")

    chk = sub.add_parser("check", help="run the verification suites")
    chk.add_argument("--system", default="all", help="'all' or one catalog name")
    chk.add_argument("--seed", type=int, default=0)

    ins = sub.add_parser("inspect", help="print structure data at one state")
    ins.add_argument("--system", required=True)
    ins.add_argument("--q", required=True, help="comma-separated base coordinates")
    ins.add_argument("--eta", required=True, help="comma-separated admissible momenta")
    ins.add_argument("--program", action="store_true", help="print the compiled field program")

    return parser


def _run(args) -> int:
    if args.command == "list":
        return cmd_list()
    if args.command == "simulate":
        merged = _load_config(args.config) if args.config else {}
        if args.system:
            merged["system"] = args.system
        if "system" not in merged:
            raise UsageError("a system name is required (--system or config)")
        params = dict(merged.get("params") or {})
        for item in args.param:
            name, value = _parse_param(item)
            params[name] = value
        merged["params"] = params
        if args.ic is not None:
            merged["ic"] = _parse_floats(args.ic)
        for key in ("t_end", "dt", "stride", "potential", "out"):
            value = getattr(args, key)
            if value is not None:
                merged[key] = value
        return cmd_simulate(RunConfig(**merged))
    if args.command == "check":
        return cmd_check(scope=args.system, seed=args.seed)
    if args.command == "inspect":
        q, eta = _parse_floats(args.q), _parse_floats(args.eta)
        return cmd_inspect(args.system, q, eta, program=args.program)
    raise UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        code = _run(_build_parser().parse_args(argv))
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BrokenPipeError:
        # stdout's reader closed the pipe (``| head``): drop the rest, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
