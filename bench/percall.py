"""Per-call cost of the layers the engine's evaluation pipeline is built
from, at states sampled along catalog trajectories.

Figures per catalog system: the dual-number gradient of H, the
consistency solve, and one reduced-field evaluation; the assembly cost
(field minus gradient minus consistency, medians) is derived, not
measured.  Pooled over the six systems: one public ``rk4_step``, one
``observables`` call, and one CSV row.  Each figure is a median and a
p90 in microseconds over a fixed number of timed calls.
"""

import io
import time

import numpy as np

import workloads

SAMPLES = 200  # timed calls per figure and system
_CLOCK = time.perf_counter


def _percentiles(values_s):
    p50, p90 = np.percentile(np.asarray(values_s) * 1e6, [50, 90])
    return float(p50), float(p90)


def _sample_states(ctx, seed):
    """Recorded states of one catalog trajectory per system."""
    dm = ctx["dm"]
    out = {}
    for system, q, eta in workloads.inputs("catalog", seed):
        spec = ctx["specs"].get(system) or dm.build(system)
        traj = dm.simulate(
            spec,
            dm.PhaseState(q=q, eta=eta, full=False),
            t_end=workloads.CATALOG_STEPS * workloads.DT,
            dt=workloads.DT,
            stride=workloads.CATALOG_STRIDE,
        )
        out[system] = (spec, traj)
    return out


def figures(ctx, seed) -> dict:
    """name -> (value, unit) for every per-call figure."""
    dm, cli = ctx["dm"], ctx["cli"]
    sampled = _sample_states(ctx, seed)
    out = {}
    pooled = {"integrate.rk4_step_us": [], "integrate.observables_us": [], "cli.csv_row_us": []}
    for system, (spec, traj) in sampled.items():
        dirac, h, sol = spec.dirac, spec.hamiltonian, spec.consistency
        states = traj.states
        points = [
            dm.PhaseState(q=s.q, eta=s.eta + tuple(ea), full=True)
            for s, ea in zip(states, traj.eta_alpha)
        ]

        def field(rs, dirac=dirac, h=h, sol=sol):
            return dm.reduced_vector_field(dirac, h, rs, solution=sol)

        times = {"grad": [], "consistency": [], "field": []}
        for i in range(SAMPLES):
            rs = states[i % len(states)]
            p = points[i % len(points)]
            t0 = _CLOCK()
            dm.grad(h, p.q + p.eta)
            t1 = _CLOCK()
            dm.solve_consistency(dirac, h, rs.q, rs.eta, solution=sol)
            t2 = _CLOCK()
            field(rs)
            t3 = _CLOCK()
            dm.rk4_step(field, rs, workloads.DT)
            t4 = _CLOCK()
            dm.observables(spec, rs)
            t5 = _CLOCK()
            times["grad"].append(t1 - t0)
            times["consistency"].append(t2 - t1)
            times["field"].append(t3 - t2)
            pooled["integrate.rk4_step_us"].append(t4 - t3)
            pooled["integrate.observables_us"].append(t5 - t4)
        for _ in range(SAMPLES // 10):
            sink = io.StringIO()
            t0 = _CLOCK()
            cli._write_csv(sink, spec, traj)
            pooled["cli.csv_row_us"].append((_CLOCK() - t0) / len(traj))
        medians = {}
        for key, metric in (
            ("grad", "numcore.grad_us"),
            ("consistency", "dirac.consistency_us"),
            ("field", "dirac.field_us"),
        ):
            p50, p90 = _percentiles(times[key])
            medians[key] = p50
            out[f"{metric}.{system}.p50"] = (p50, "us")
            out[f"{metric}.{system}.p90"] = (p90, "us")
        derived = medians["field"] - medians["grad"] - medians["consistency"]
        out[f"dirac.assembly_us.derived.{system}.p50"] = (derived, "us")
    for metric in ("numcore.grad_us", "dirac.consistency_us", "dirac.field_us"):
        out[f"{metric}.n"] = (SAMPLES, "count")
    for metric, values in pooled.items():
        p50, p90 = _percentiles(values)
        out[f"{metric}.p50"] = (p50, "us")
        out[f"{metric}.p90"] = (p90, "us")
        out[f"{metric}.n"] = (len(values), "count")
    return out
