"""The compiled reduced field (``dirac.reduced_field``) against the float
reference it replaces (``dirac.evaluate_reduced``): equal numbers where
it runs, the reference's results and errors where it falls back, and the
element contraction it is generated from."""

import hashlib
import math
import operator
import re
from dataclasses import replace

import numpy as np
import pytest

from diracmech import checks, dirac, exprparse, numcore, tracing
from diracmech.algebroid import PhaseState, SkewAlgebroid, change_frame, from_tangent_frame
from diracmech.dirac import ConsistencySolution, DiracAlgebroid, evaluate_reduced, reduced_field
from diracmech.errors import (
    DegenerateHamiltonianError,
    DimensionError,
    NumericDomainError,
    TruncatedTrajectoryError,
)
from diracmech.integrate import simulate
from diracmech.numcore import ScalarField, hessian_block
from diracmech.systems import build, catalog_names, hamiltonian_with_potential, skater_frame

NEWTON = ConsistencySolution(kind="newton")


def quartic_skater():
    spec = build("skater_charged")
    base = spec.hamiltonian.fn

    def fn(x, y, phi, e1, e2, e3):
        return base(x, y, phi, e1, e2, e3) + 0.25 * e3**4

    h = ScalarField(spec.base_names, spec.fiber_names, fn)
    return replace(spec, hamiltonian=h, consistency=NEWTON)


def spec_named(name):
    if name == "skater_quartic":
        return quartic_skater()
    if name.startswith("newton_"):
        return replace(build(name[len("newton_"):]), consistency=NEWTON)
    return build(name)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def assert_equal_but_signed_zeros(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(got, want)
    differ = bits(got) != bits(want)
    assert not np.any(got[differ]), "a nonzero value differs in bits"


def count_reference_calls(monkeypatch):
    """Calls of the field function on floats: the compiled field traced it
    already, so only evaluate_reduced and a fallback call it again."""
    calls = []
    original = dirac._field_outputs

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dirac, "_field_outputs", counted)
    return calls


@pytest.mark.parametrize(
    "name",
    [
        *catalog_names(),
        "skater_quartic",
        "newton_skater_charged",
        "newton_ball_magnetic",
        "newton_ball_harmonic",
    ],
)
def test_compiled_field_equals_reference(name, monkeypatch):
    spec = spec_named(name)
    h, sol = spec.hamiltonian, spec.consistency
    field = reduced_field(spec.dirac, h, sol)
    calls = count_reference_calls(monkeypatch)
    n, nt = spec.m + spec.k, spec.n_fiber - spec.k
    rng = np.random.default_rng(21)
    for _ in range(200):
        q = rng.uniform(-1.5, 1.5, spec.m).tolist()
        eta_a = rng.uniform(-2.0, 2.0, spec.k).tolist()
        guess = rng.uniform(-1.0, 1.0, nt).tolist() if sol.kind == "newton" else None
        out = field(*q, *eta_a, *(guess or [0.0] * nt))
        eta_alpha, g, qdot, etadot = evaluate_reduced(
            spec.dirac, h, q, eta_a, guess=guess, solution=sol
        )
        assert_equal_but_signed_zeros(out[:n], [*qdot, *etadot])
        assert_equal_but_signed_zeros(out[n : n + nt], eta_alpha)
        assert bits(out[n + nt]) == bits(float(h(*q, *eta_a, *eta_alpha.tolist())))
        assert_equal_but_signed_zeros(out[n + nt + 1 :], g)
    # evaluate_reduced runs the reference once per point; the compiled
    # field never fell back to it
    assert len(calls) == 200


def test_compiled_field_is_cached_per_algebroid_and_consistency():
    spec = build("skater_charged")
    first = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
    assert reduced_field(spec.dirac, spec.hamiltonian, spec.consistency) is first
    forced = reduced_field(spec.dirac, spec.hamiltonian, NEWTON)
    assert forced is not first
    assert spec.hamiltonian._programs == {
        program_key(spec.dirac, spec.consistency): first,
        program_key(spec.dirac, NEWTON): forced,
    }


def program_key(dirac, solution):
    return (id(dirac), solution.kind, id(solution.affine_map))


def test_compiled_field_is_cached_by_the_consistency_value():
    """Equal consistency solutions share one program; a different affine
    map gets its own."""
    spec = build("skater_charged")
    h = spec.hamiltonian
    fields = [reduced_field(spec.dirac, h, ConsistencySolution(kind="newton")) for _ in range(3)]
    assert fields[1] is fields[0] and fields[2] is fields[0]
    declared = reduced_field(spec.dirac, h, spec.consistency)
    assert reduced_field(spec.dirac, h, replace(spec.consistency)) is declared
    shifted = ConsistencySolution(kind="affine", affine_map=lambda q: [0.0])
    assert reduced_field(spec.dirac, h, shifted) is not declared
    assert len(h._programs) == 3


class UnhashableMap:
    """A callable affine map that defines equality and so has no hash."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, q):
        return self.fn(q)

    def __eq__(self, other):
        return isinstance(other, UnhashableMap) and other.fn is self.fn


def test_compiled_field_takes_an_affine_map_that_cannot_be_hashed():
    spec = build("skater_charged")
    h = spec.hamiltonian
    wrapped = replace(spec.consistency, affine_map=UnhashableMap(spec.consistency.affine_map))
    with pytest.raises(TypeError):
        hash(wrapped)
    field = reduced_field(spec.dirac, h, wrapped)
    assert reduced_field(spec.dirac, h, wrapped) is field
    assert h._programs == {program_key(spec.dirac, wrapped): field}
    declared = reduced_field(spec.dirac, h, spec.consistency)
    y = [0.3, -0.2, 0.7, 1.1, -0.4]
    assert bits(field(*y, 0.0)).tolist() == bits(declared(*y, 0.0)).tolist()


@pytest.mark.parametrize("name", [*catalog_names(), "skater_quartic", "newton_ball_magnetic"])
def test_flat_field_is_the_cached_program_called_flat(name):
    spec = spec_named(name)
    args = (spec.dirac, spec.hamiltonian, spec.consistency)
    field = reduced_field(*args)
    assert reduced_field(*args) is field
    assert spec.hamiltonian._programs == {program_key(spec.dirac, spec.consistency): field}
    n, nt = spec.m + spec.k, spec.n_fiber - spec.k
    rng = np.random.default_rng(29)
    for _ in range(20):
        y = rng.uniform(-1.5, 1.5, n).tolist()
        guess = rng.uniform(-1.0, 1.0, nt).tolist()
        out = field(*y, *guess)
        assert type(out) is tuple and len(out) == 2 * (n + nt) + 1
        assert all(type(v) is float for v in out)
        if spec.consistency.kind != "newton":  # a closed form reads no guess
            assert bits(out).tolist() == bits(field(*y, *[0.0] * nt)).tolist()


def test_build_compiles_no_field():
    spec = build("ball_harmonic")
    assert spec.hamiltonian._programs == {}


def frame_skater():
    """skater_free on the algebroid of the skater frame: the anchor
    converts q to floats, so nothing traces."""
    spec = build("skater_free")
    return replace(spec, dirac=DiracAlgebroid(from_tangent_frame(skater_frame()), k=2))


def test_untraceable_anchor_falls_back_to_the_reference(monkeypatch):
    spec = frame_skater()
    field = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
    calls = count_reference_calls(monkeypatch)
    rng = np.random.default_rng(5)
    for _ in range(20):
        y = rng.uniform(-1.5, 1.5, 5).tolist()
        out = field(*y, 0.0)
        eta_alpha, g, qdot, etadot = evaluate_reduced(
            spec.dirac, spec.hamiltonian, y[:3], y[3:], solution=spec.consistency
        )
        assert list(out[:5]) == [*qdot, *etadot]
    assert len(calls) == 40
    ic = PhaseState(q=(0.1, -0.2, 0.3), eta=(1.0, 0.5), full=False)
    catalog = simulate(build("skater_free"), ic, t_end=0.2, dt=1e-3, stride=10)
    framed = simulate(spec, ic, t_end=0.2, dt=1e-3, stride=10)
    assert np.max(np.abs(framed.reduced_array() - catalog.reduced_array())) <= 1e-13


def branching_skater():
    """skater_free whose H branches on its argument, so it cannot be traced."""
    spec = build("skater_free")
    base = spec.hamiltonian.fn

    def fn(x, y, phi, e1, e2, e3):
        return base(x, y, phi, e1, e2, e3) + (0.001 * numcore.log(x) if x > 0.0 else 0.0 * x)

    return replace(spec, hamiltonian=ScalarField(spec.base_names, spec.fiber_names, fn))


def test_untraceable_hamiltonian_falls_back_with_the_same_results(monkeypatch):
    spec = branching_skater()
    field = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
    calls = count_reference_calls(monkeypatch)
    for y in ([0.5, 0.1, 0.2, 1.0, 0.5], [-0.5, 0.1, 0.2, 1.0, 0.5]):
        _, g, qdot, etadot = evaluate_reduced(
            spec.dirac, spec.hamiltonian, y[:3], y[3:], solution=spec.consistency
        )
        out = field(*y, 0.0)
        assert list(out[:5]) == [*qdot, *etadot]
        assert list(out[7:]) == g.tolist()
    assert len(calls) == 4


def test_field_gives_up_where_the_reference_raises():
    # the log wall records a guard; past it the reference raises its error
    spec = hamiltonian_with_potential(build("skater_free"), exprparse.parse_text("0.001*log(x)"))
    field = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
    assert len(field(0.5, 0.0, 0.0, 1.0, 0.5, 0.0)) == 5 + 1 + 1 + 6
    with pytest.raises(NumericDomainError) as compiled:
        field(-0.5, 0.0, 0.0, 1.0, 0.5, 0.0)
    with pytest.raises(NumericDomainError) as reference:
        evaluate_reduced(
            spec.dirac, spec.hamiltonian, [-0.5, 0.0, 0.0], [1.0, 0.5], solution=spec.consistency
        )
    assert str(compiled.value) == str(reference.value)
    with pytest.raises(TruncatedTrajectoryError) as info:
        simulate(spec, PhaseState(q=(1.0, 0.0, math.pi), eta=(1.0, 0.001), full=False), t_end=5.0)
    assert isinstance(info.value.__cause__, NumericDomainError)
    assert info.value.__cause__.stage_index in (0, 1, 2, 3)
    assert 0.0 < info.value.failed_time <= 5.0


def test_field_gives_up_on_a_non_finite_gradient():
    # H = 1e308 x^2 is finite at x = 1 and its gradient is not: the code
    # returns a non-finite sum, and the reference raises the dual sweep's
    # error
    spec = build("skater_free")
    base = spec.hamiltonian.fn
    h = ScalarField(spec.base_names, spec.fiber_names, lambda *a: base(*a) + 1e308 * a[0] * a[0])
    spec = replace(spec, hamiltonian=h)
    field = reduced_field(spec.dirac, h, spec.consistency)
    assert math.isfinite(h(1.0, 0.0, 0.0, 1.0, 0.5, 0.0))
    with pytest.raises(NumericDomainError, match="non-finite derivative"):
        field(1.0, 0.0, 0.0, 1.0, 0.5, 0.0)


def test_newton_field_raises_the_reference_errors():
    spec = replace(build("skater_free"), consistency=NEWTON)
    flat = ScalarField(
        spec.base_names, spec.fiber_names, lambda x, y, phi, e1, e2, e3: 0.5 * (e1 * e1 + e2 * e2)
    )
    spec = replace(spec, hamiltonian=flat)
    field = reduced_field(spec.dirac, flat, NEWTON)
    with pytest.raises(DegenerateHamiltonianError) as compiled:
        field(0.0, 0.0, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(DegenerateHamiltonianError) as reference:
        evaluate_reduced(spec.dirac, flat, [0.0] * 3, [1.0, 1.0], solution=NEWTON)
    assert str(compiled.value) == str(reference.value)
    assert type(compiled.value.__cause__) is type(reference.value.__cause__)


@pytest.mark.parametrize(
    "name, affine_map, message",
    [
        ("skater_charged", lambda q: [q[0], q[1]], "affine map returned (2,), expected (1,)"),
        ("skater_charged", lambda q: np.array([[q[0]]]), "affine map returned (1, 1), expected (1,)"),
        ("skater_charged", lambda q: None, "affine map returned (), expected (1,)"),
        ("ball_magnetic", lambda q: [1.0, [2.0]], "affine map returned [2.0] as entry 1, expected a number"),
    ],
)
def test_affine_map_of_the_wrong_shape_is_rejected(name, affine_map, message):
    spec = build(name)
    bad = ConsistencySolution(kind="affine", affine_map=affine_map)
    q, eta = [0.1, 0.2, 0.3][: spec.m], [1.0, 0.5, -0.5][: spec.k]
    with pytest.raises(DimensionError) as info:
        dirac.solve_consistency(spec.dirac, spec.hamiltonian, q, eta, solution=bad)
    assert str(info.value) == message
    with pytest.raises(DimensionError) as info:
        reduced_field(spec.dirac, spec.hamiltonian, bad)(*q, *eta, *[0.0] * spec.dirac.transverse)
    assert str(info.value) == message


# -- the element contraction -------------------------------------------------------


def as_maps(alg):
    """The same algebroid with its anchor and structure given as maps."""
    rho, c = alg.anchor, alg.structure
    return SkewAlgebroid(m=alg.m, rank=alg.rank, anchor=lambda q: rho(q), structure=lambda q: c(q))


def contraction_source(alg, k):
    """The source and constants of the contraction ``float_rates`` compiles
    at k, traced again from the function the program runs in its place."""
    alg.rates([0.1] * alg.m, [0.2] * alg.rank, [0.3] * k, [0.4] * alg.m, k)
    program = alg._cache[("rates", k)]
    return tracing._source(program.__globals__["reference"], program.__code__.co_argcount)[:2]


@pytest.mark.parametrize("name", ["skater_charged", "ball_magnetic"])
def test_maps_give_the_rates_of_constants(name):
    """A map and a constant are summed over the same terms, so every rate
    comes out as the same float."""
    alg = build(name).dirac.alg
    maps = as_maps(alg)
    rng = np.random.default_rng(13)
    for k in range(1, alg.rank + 1):
        for _ in range(50):
            args = (
                rng.uniform(-2.0, 2.0, alg.m).tolist(),
                rng.uniform(-3.0, 3.0, alg.rank).tolist(),
                rng.uniform(-3.0, 3.0, k).tolist(),
                rng.uniform(-3.0, 3.0, alg.m).tolist(),
            )
            constant_rates = alg.scalar_rates(*args, k)
            map_rates = maps.scalar_rates(*args, k)
            for got, want in zip(map_rates, constant_rates):
                assert bits(got).tolist() == bits(want).tolist()


@pytest.mark.parametrize("name", ["skater_charged", "ball_magnetic"])
def test_maps_generate_the_code_of_constants(name):
    alg = build(name).dirac.alg
    for k in range(1, alg.rank + 1):
        source, consts = contraction_source(alg, k)
        map_source, map_consts = contraction_source(as_maps(alg), k)
        assert map_source == source
        assert {n: repr(v) for n, v in map_consts.items()} == {n: repr(v) for n, v in consts.items()}


def test_skater_contraction_multiplies_by_no_zero():
    # the lines the trace records, before the program writes single-use values inline
    alg = build("skater_free").dirac.alg
    for k in range(1, alg.rank + 1):
        alg.rates([0.1] * alg.m, [0.2] * alg.rank, [0.3] * k, [0.4] * alg.m, k)
        program = alg._cache[("rates", k)]
        tape = tracing._Tape()
        args = [tracing.Tracer(tape, f"x{j}") for j in range(program.__code__.co_argcount)]
        program.__globals__["reference"](*args)
        zeros = {name for name, v in tape.consts.items() if v == 0.0}
        products = [line.reads for line in tape.lines if line.name and line.form == "{} * {}"]
        assert products
        assert not [p for p in products if zeros & set(p)]


@pytest.mark.parametrize("kind", ["tangent_frame", "change_frame"])
def test_frame_algebroid_rates_match_the_tensor_contraction(kind):
    if kind == "tangent_frame":
        alg = from_tangent_frame(skater_frame())
    else:
        alg = change_frame(build("ball_free").dirac.alg, lambda q: np.eye(5).tolist())
    rng = np.random.default_rng(17)
    for _ in range(20):
        q = rng.uniform(-1.0, 1.0, alg.m)
        eta = rng.uniform(-2.0, 2.0, alg.rank)
        x = rng.uniform(-2.0, 2.0, alg.rank)
        a = rng.uniform(-2.0, 2.0, alg.m)
        qdot, etadot = alg.rates(q, eta, x, a)
        rho, c = alg.anchor_array(q), alg.structure(q)
        assert np.allclose(qdot, rho @ x, rtol=0.0, atol=1e-14)
        want = np.einsum("abd,a,d->b", c, eta, x) - rho.T @ a
        assert np.allclose(etadot, want, rtol=0.0, atol=1e-13)
        loop = alg.scalar_rates(q.tolist(), eta.tolist(), x.tolist(), a.tolist())
        assert [qdot.tolist(), etadot.tolist()] == list(loop)


@pytest.mark.parametrize("name", ["skater_charged", "ball_magnetic"])
def test_compiled_rates_equal_the_loop(name):
    alg = build(name).dirac.alg
    rng = np.random.default_rng(19)
    for k in (1, alg.rank):
        for _ in range(50):
            args = (
                rng.uniform(-2.0, 2.0, alg.m).tolist(),
                rng.uniform(-3.0, 3.0, alg.rank).tolist(),
                rng.uniform(-3.0, 3.0, k).tolist(),
                rng.uniform(-3.0, 3.0, alg.m).tolist(),
            )
            qdot, etadot = alg.rates(*args, k)
            assert [bits(qdot).tolist(), bits(etadot).tolist()] == [
                bits(v).tolist() for v in alg.scalar_rates(*args, k)
            ]
        assert alg._cache[("rates", k)], "the contraction was not compiled"


@pytest.mark.parametrize("name", ["skater_charged", "ball_magnetic"])
def test_compiled_rates_never_fall_back_to_the_loop(name):
    from test_compiled import fallback_calls

    alg = build(name).dirac.alg
    rng = np.random.default_rng(19)  # the points of test_compiled_rates_equal_the_loop
    for k in (1, alg.rank):
        points = [
            (
                rng.uniform(-2.0, 2.0, alg.m).tolist(),
                rng.uniform(-3.0, 3.0, alg.rank).tolist(),
                rng.uniform(-3.0, 3.0, k).tolist(),
                rng.uniform(-3.0, 3.0, alg.m).tolist(),
            )
            for _ in range(50)
        ]
        alg.rates(*points[0], k)
        program = alg._cache[("rates", k)]
        assert fallback_calls(program, lambda: [alg.rates(*args, k) for args in points]) == []


def test_rates_reject_mismatched_lengths():
    alg = build("skater_free").dirac.alg
    with pytest.raises(DimensionError, match=r"element of lengths \(3, 3, 2, 3\)"):
        alg.rates([0.0] * 3, [0.0] * 3, [0.0] * 2, [0.0] * 3)


def test_no_zero_rate_is_negative():
    spec = build("skater_free")
    _, _, qdot, etadot = evaluate_reduced(
        spec.dirac, spec.hamiltonian, (0.1, -0.2, 0.3), (1.0, 0.5), solution=spec.consistency
    )
    assert etadot[1] == 0.0 and math.copysign(1.0, etadot[1]) == 1.0


# -- generated code ------------------------------------------------------------------


def test_liveness_pass_keeps_guards_and_lines_that_may_raise():
    tape = tracing._Tape()
    x0, x1 = tracing.Tracer(tape, "x0"), tracing.Tracer(tape, "x1")
    x0 * x1  # dead, pure: dropped
    x0.raw_pow(3.5)  # dead, may overflow: kept
    x1.guard(operator.eq)
    x0.call(math.sin)  # dead, may raise: kept
    out = (x0 + x1) * (x0 + x1)

    def text(ln):  # the line as written from its record
        return (f"{ln.name} = " if ln.name else "") + ln.form.format(*ln.reads)

    assert tracing._live_lines(tape.lines, [out.name]) == [text(line) for line in tape.lines[1:]]
    assert [line.may_raise for line in tape.lines] == [False, True, True, True, False, False]


def test_transverse_hessian_code_is_only_the_live_lines():
    h = build("ball_magnetic").hamiltonian
    source, _, _ = tracing._source(lambda *xs: numcore._hessian_sweep(h, xs, (5, 6))[1], h.arity)
    body = source.splitlines()[1:-1]
    assert len(body) <= 6, source
    hessian_block(h, [0.1] * 7, (5, 6))


def test_transverse_newton_program_is_only_the_live_lines():
    # with the first partials, ball_magnetic's transverse program computes
    # x5 + x5 and x6 - x0 doubled, each times 0.5 (the block is constant),
    # and a later line reads every assignment
    h = build("ball_magnetic").hamiltonian
    source, _, _ = tracing._source(lambda *xs: numcore._hessian_sweep(h, xs, (5, 6)), h.arity)
    body = [line.strip() for line in source.splitlines()]
    assigned = [(j, line.split(" = ")[0]) for j, line in enumerate(body) if re.match(r"v\d+ = ", line)]
    assert len(assigned) <= 5, source
    for j, name in assigned:
        assert any(re.search(rf"\b{name}\b", line) for line in body[j + 1 :]), (name, source)


def test_potential_is_evaluated_only_while_tracing(monkeypatch):
    calls = []
    depth = [0]
    original = exprparse.eval_expr

    def counted(*args, **kwargs):
        if depth[0] == 0:  # the expression's own recursion is not a call
            calls.append(args)
        depth[0] += 1
        try:
            return original(*args, **kwargs)
        finally:
            depth[0] -= 1

    potential = exprparse.parse_text("0.3*sin(x)+y^2/(2+cos(x))")
    spec = hamiltonian_with_potential(build("skater_charged"), potential)
    monkeypatch.setattr(exprparse, "eval_expr", counted)
    ic = PhaseState(q=(0.1, -0.2, 0.3), eta=(1.0, 0.5), full=False)
    traj = simulate(spec, ic, t_end=0.048, dt=1e-3, stride=1)
    assert len(traj) == 49
    # one trace of the field; recording H at every sample runs no expression
    assert 0 < len(calls) <= 4


# -- Newton unrolled into the field -----------------------------------------------

NEWTON_SYSTEMS = ["skater_quartic", "newton_skater_charged", "newton_ball_magnetic", "newton_ball_harmonic"]
Y = (0.1, -0.2, 0.3, 1.0, 0.5)


@pytest.mark.parametrize("name", NEWTON_SYSTEMS)
def test_unrolled_newton_field_equals_the_loop_bit_for_bit(name):
    from test_compiled import fallback_calls, is_generated

    spec = spec_named(name)
    field = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
    assert is_generated(field)
    # where the code gives up: the float loop, then the program traced
    # from the solved eta_alpha on
    loop = field.__globals__["reference"]
    n, nt = spec.m + spec.k, spec.n_fiber - spec.k
    rng = np.random.default_rng(31)
    points = []
    for _ in range(200):
        y = rng.uniform(-1.5, 1.5, spec.m).tolist() + rng.uniform(-2.0, 2.0, spec.k).tolist()
        points.append(y + [0.0] * nt)  # cold
        # warm, as simulate starts: from the solution at a nearby state
        near = [v + rng.uniform(-1e-3, 1e-3) for v in y]
        points.append(near + list(loop(*y, *[0.0] * nt)[n : n + nt]))
    outs = []
    assert fallback_calls(field, lambda: outs.extend(field(*p) for p in points)) == []
    for p, out in zip(points, outs):
        assert bits(out).tolist() == bits(loop(*p)).tolist()


def test_a_warm_newton_field_runs_one_sweep_more_than_the_loop_steps():
    from test_compiled import fallback_calls
    from test_numcore import executed

    spec = quartic_skater()
    h = spec.hamiltonian
    field = reduced_field(spec.dirac, h, spec.consistency)
    rng = np.random.default_rng(37)
    counts = []
    for _ in range(50):
        y = rng.uniform(-1.5, 1.5, 3).tolist() + rng.uniform(-2.0, 2.0, 2).tolist()
        near = [v + rng.uniform(-1e-3, 1e-3) for v in y]
        guess = list(field(*near, 0.0)[5:6])  # warm, as simulate starts
        calls = []

        def residual(x):
            calls.append(x)
            return numcore.grad_and_hessian_rows(h, [*y, *x], (5,))

        numcore.newton_iterate(residual, guess)
        assert fallback_calls(field, lambda: field(*y, *guess)) == []
        # each sweep ends in its finiteness guard
        assert executed(field, (*y, *guess), "if not isfinite(") == len(calls)
        counts.append(len(calls))
    assert max(counts) < numcore.NEWTON_UNROLLED + 1


def test_a_long_single_use_chain_compiles_to_the_reference_numbers():
    # the derivative of 400 nested sines is a chain of 400 products, each
    # read once: written into one expression it would pass the parser's
    # limit on nested parentheses
    spec = build("skater_free")
    base = spec.hamiltonian.fn

    def fn(x, y, phi, *eta):
        wave = x
        for _ in range(400):
            wave = numcore.sin(wave)
        return base(x, y, phi, *eta) + 0.01 * wave

    h = ScalarField(spec.base_names, spec.fiber_names, fn)
    field = reduced_field(spec.dirac, h, spec.consistency)
    from test_compiled import fallback_calls

    n, nt = spec.m + spec.k, spec.n_fiber - spec.k
    rng = np.random.default_rng(29)
    points = [(rng.uniform(-1.5, 1.5, 3).tolist(), rng.uniform(-2.0, 2.0, 2).tolist()) for _ in range(20)]
    outs = []
    assert fallback_calls(field, lambda: outs.extend(field(*q, *eta, *[0.0] * nt) for q, eta in points)) == []
    for (q, eta), out in zip(points, outs):
        eta_alpha, g, qdot, etadot = evaluate_reduced(spec.dirac, h, q, eta, solution=spec.consistency)
        want = [*qdot, *etadot, *eta_alpha, float(h(*q, *eta, *eta_alpha.tolist())), *g]
        assert bits(out).tolist() == bits(want).tolist()


def field_source(spec):
    """The source and constants of a system's field program, as compiled."""
    field = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
    consts = {name: v for name, v in field.__globals__.items() if re.fullmatch(r"c\d+", name)}
    return tracing.source_of(field), consts


def program_digest(spec):
    source, consts = field_source(spec)
    return hashlib.sha256((source + repr(sorted(consts.items()))).encode()).hexdigest()


# sha256(source + sorted constants) of each field program, as written with
# each single-use value inline in its reader, and with the lines only H and
# its partials read after the derivative-only return.
PROGRAM_DIGESTS = {
    "ball_free": "2fb1dcb37d63db7bb0b3c6d3103bce7fb9d617babd111cbc150aa6298a1d07fb",
    "ball_harmonic": "f0d01adef427cb045f208f55fd5486cef62d176c2da2e0ce62d6ebc32e7064cc",
    "ball_magnetic": "ee181645ea7791fd76d04f38912a894dc2e398284445155d1fcd11c694532e24",
    "skater_charged": "4f480ce40773779ffe1d77c3eb97a87794d6e40382c213619218c0cda8b34ff1",
    "skater_free": "a240e82acecf2b08846d61b3af8ceabd1323d9264fbf5a1d173d950476ef9718",
    "skater_slope": "75230fb2af58155e2b21ab5bd0bbef9e8cd0beece56d0d273f78dabf1e4d1185",
    "newton_ball_free": "d6e63be61ac63455e44714efcfaa883eb33056770106a166bf1ec049b8d75667",
    "newton_ball_harmonic": "fe80271d894fd54fd707be5bf320bbd0deed837e1e90d713fb9b66da6974d1d2",
    "newton_ball_magnetic": "837a6346c9106475e563f31d2049773873e8f2d1b45901f08064736e2962a143",
    "newton_skater_charged": "8f33b7e408ca7d154156d4ed7cea9c43805dc072348c4c82eaac1e9291661568",
    "newton_skater_free": "44ab3ab6c85b75a7350f9ad92c4876eb8e6851c7e259b946b915da4fbd34c30c",
    "newton_skater_slope": "2607485142c7eb30d39f081507099e540bac1bde620a183b8b4246094d1707c6",
    "skater_quartic": "552e54ab8bf91902fa1a4ff06c7cd765b53f6f5b959c1c9d32208eb613fef1ce",
}


@pytest.mark.parametrize("name", sorted(PROGRAM_DIGESTS))
def test_field_programs_are_pinned(name):
    assert program_digest(spec_named(name)) == PROGRAM_DIGESTS[name]


def generated_digest(program):
    """``program_digest`` of any program ``compile_traced`` generated."""
    assert program.__code__.co_filename == "<traced>"
    source, consts, _ = tracing._source(program.__globals__["reference"], program.__code__.co_argcount)
    return hashlib.sha256((source + repr(sorted(consts.items()))).encode()).hexdigest()


def catalog_programs(name, monkeypatch):
    """The other programs a catalog system's runs and checks compile, as
    they compile them: H's gradient, the contraction at the system's k and
    the isotropy pair program; and H's transverse Hessian sweep, compiled
    alone, as a Newton field program records it inline."""
    spec = build(name)
    h, alg, k = spec.hamiltonian, spec.dirac.alg, spec.k
    numcore.grad(h, [0.1] * h.arity)
    idx = tuple(range(alg.m + k, alg.m + alg.rank))
    alg.float_rates([0.1] * alg.m, [0.2] * alg.rank, [0.3] * k, [0.4] * alg.m, k)
    compiled = []

    def capture(fn, arity):
        compiled.append(tracing.compile_traced(fn, arity))
        return compiled[-1]

    monkeypatch.setattr(checks, "compile_traced", capture)
    checks.check_isotropy(spec, 0)
    (pairing,) = compiled
    return {
        "gradient": h._compiled,
        "hessian": tracing.compile_traced(lambda *xs: numcore._hessian_sweep(h, xs, idx), h.arity),
        "contraction": alg._cache[("rates", k)],
        "isotropy": pairing,
    }


# sha256(source + sorted constants) of the other generated programs of each
# catalog system, system/program
CATALOG_PROGRAM_DIGESTS = {
    "ball_free/gradient": "a5b720b0efb50a227467b1686a23f945b1a49e85c5971b3403ed8f1e3f97157a",
    "ball_free/hessian": "fb05c807f641b9c57bbf102b6a38d56e4de2936e7d3e187c312ed869b3737bf9",
    "ball_free/contraction": "535dbc565bcaf4703a6166674c32e1a63241cad6cc6b3bb7ca94aee7f3603f35",
    "ball_free/isotropy": "e854d8ec5fd0e9b512a179019514889c5f2de102a0eb3e2b1c45935505d3193e",
    "ball_harmonic/gradient": "5464c176567be7a08d1699104c455ce8949750d062c040048e85d9c8d0ef556f",
    "ball_harmonic/hessian": "917fa20db343beac8bafc6d97f6df2b2b1b644653c2e20a66f75951b322f97ef",
    "ball_harmonic/contraction": "535dbc565bcaf4703a6166674c32e1a63241cad6cc6b3bb7ca94aee7f3603f35",
    "ball_harmonic/isotropy": "e854d8ec5fd0e9b512a179019514889c5f2de102a0eb3e2b1c45935505d3193e",
    "ball_magnetic/gradient": "c9387e376350f18c0b19eb627dfb8915195eb7f0542f81ee9bd6d912f52eef76",
    "ball_magnetic/hessian": "9d6365319cb1f0ceb9a7258fc7a2de2d7c18260f8bd4910ec00c31a09559b782",
    "ball_magnetic/contraction": "535dbc565bcaf4703a6166674c32e1a63241cad6cc6b3bb7ca94aee7f3603f35",
    "ball_magnetic/isotropy": "e854d8ec5fd0e9b512a179019514889c5f2de102a0eb3e2b1c45935505d3193e",
    "skater_charged/gradient": "d001c2a2a57c2be56ab50a3beb8f822b3318e7113d67b2efe50661475f60c4c7",
    "skater_charged/hessian": "5f129c2ef93cfcb4fb32e707212f883dc51e6c9ca43fcfe030c0e8fcfba72752",
    "skater_charged/contraction": "33d78ddd32f00985ff4f218f7b3e089b70423f07844b2c0fea287e904a674b1e",
    "skater_charged/isotropy": "253cd8c558ed3542d1d1b4b17127bb9d2385dc2fdc91c8a0b20dccce0136d13c",
    "skater_free/gradient": "b11761ea2bf136b43e773f1bc276b54940dbf0a7748178ab2b384fe590794a35",
    "skater_free/hessian": "bb1fcf6cf047a01ef0efeb510fb6c3e43e123c0f9c4cb4602158acddb5eef18b",
    "skater_free/contraction": "33d78ddd32f00985ff4f218f7b3e089b70423f07844b2c0fea287e904a674b1e",
    "skater_free/isotropy": "253cd8c558ed3542d1d1b4b17127bb9d2385dc2fdc91c8a0b20dccce0136d13c",
    "skater_slope/gradient": "f7755fb94a35acd2879fc11ae4c2a17a4a808d97db4be11ec61c4c14b7e2bf65",
    "skater_slope/hessian": "bb1fcf6cf047a01ef0efeb510fb6c3e43e123c0f9c4cb4602158acddb5eef18b",
    "skater_slope/contraction": "33d78ddd32f00985ff4f218f7b3e089b70423f07844b2c0fea287e904a674b1e",
    "skater_slope/isotropy": "253cd8c558ed3542d1d1b4b17127bb9d2385dc2fdc91c8a0b20dccce0136d13c",
}


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_programs_are_pinned(name, monkeypatch):
    digests = {
        f"{name}/{kind}": generated_digest(program)
        for kind, program in catalog_programs(name, monkeypatch).items()
    }
    assert digests == {key: CATALOG_PROGRAM_DIGESTS.get(key) for key in digests}


@pytest.mark.parametrize("name", [f"newton_{name}" for name in catalog_names()] + ["skater_quartic"])
def test_a_newton_program_returns_the_residuals_its_loop_tests(name):
    # one loop, and the transverse partials it returns are the names its test reads,
    # so the tail reads the exit pass's sweep of H instead of sweeping again
    source, _ = field_source(spec_named(name))
    assert source.count("for _ in ") == 1 and source.count("else: raise give_up") == 1
    tested = re.findall(r"fabs\((v\d+)\)", re.search(r"if (fabs.*): break", source).group(1))
    returned = re.findall(r"return \((.*), \)", source)[-1].split(", ")
    assert returned[-len(tested) :] == tested


@pytest.mark.parametrize("name", sorted(PROGRAM_DIGESTS))
def test_a_flagged_call_returns_the_full_call_s_leading_outputs(name, monkeypatch):
    spec = spec_named(name)
    field = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
    calls = count_reference_calls(monkeypatch)
    n, nt = spec.m + spec.k, spec.n_fiber - spec.k
    rng = np.random.default_rng(23)
    for _ in range(100):
        y = [*rng.uniform(-1.5, 1.5, spec.m), *rng.uniform(-2.0, 2.0, spec.k)]
        guess = rng.uniform(-1.0, 1.0, nt).tolist()
        lead = field(*y, *guess, True)
        assert len(lead) == n + nt
        assert bits(lead).tolist() == bits(field(*y, *guess)[: n + nt]).tolist()
    assert calls == []


def test_source_of_is_the_text_the_program_was_compiled_from():
    for name in ("ball_magnetic", "skater_quartic"):
        spec = spec_named(name)
        field = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
        source = tracing.source_of(field)
        assert source.count("if lead and isfinite(") == 1
        namespace = dict(field.__globals__)
        exec(compile(source, "<traced>", "exec"), namespace)
        assert namespace["traced"].__code__ == field.__code__


def test_the_newton_loop_runs_no_line_only_h_and_its_partials_read():
    # H's value, its quartic term among it, runs once after the loop, on the
    # exit pass's values; every name the loop sets is read before the
    # derivative-only return
    source, consts = field_source(quartic_skater())
    lines = source.splitlines()
    start = next(i for i, line in enumerate(lines) if "for _ in " in line)
    end = lines.index("        else: raise give_up")
    early = next(i for i, line in enumerate(lines) if "if lead and isfinite(" in line)
    head = "\n".join(lines[start:early + 1])
    for line in lines[start + 1 : end]:
        assigned = re.match(r" *(v\d+) = ", line)
        if assigned:
            assert len(re.findall(rf"\b{assigned.group(1)}\b", head)) > 1, line
    four = next(name for name, v in consts.items() if v == 4.0)
    power = [i for i, line in enumerate(lines) if re.search(rf"\*\* {four}\b", line)]
    assert len(power) == 1 and power[0] > early > end


def test_a_flagged_call_does_not_give_up_where_only_h_fails():
    # 1e300*x^2 overflows at x = 1e5, while its partial 2e305 does not
    spec = hamiltonian_with_potential(build("skater_free"), exprparse.parse_text("1e300*x^2"))
    field = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
    y = (1e5, 0.0, 0.3, 1.0, 0.5, 0.0)
    with pytest.raises(NumericDomainError, match="non-finite derivative"):
        field(*y)
    lead = field(*y, True)
    # a potential with the same partial there and a finite value
    slope = exprparse.parse_text(f"{1e300 * 2e5!r}*(x - 100000.0)")
    same = hamiltonian_with_potential(build("skater_free"), slope)
    want = reduced_field(same.dirac, same.hamiltonian, same.consistency)(*y)
    assert bits(lead).tolist() == bits(want[:6]).tolist()
    # a domain guard is before the early return: the flagged call still raises
    wall = hamiltonian_with_potential(build("skater_free"), exprparse.parse_text("0.001*log(x)"))
    with pytest.raises(NumericDomainError, match="log of a non-positive value"):
        reduced_field(wall.dirac, wall.hamiltonian, wall.consistency)(-0.5, 0.0, 0.0, 1.0, 0.5, 0.0, True)


def test_an_untraceable_field_ignores_the_flag():
    spec = branching_skater()
    field = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
    for y in ([0.5, 0.1, 0.2, 1.0, 0.5, 0.0], [-0.5, 0.1, 0.2, 1.0, 0.5, 0.0]):
        assert bits(field(*y, True)).tolist() == bits(field(*y)).tolist()


def test_the_newton_loop_does_not_grow_with_its_steps(monkeypatch):
    source, consts = field_source(quartic_skater())
    loop = re.search(r"for _ in (c\d+):", source).group(1)
    assert consts[loop] == (None,) * (numcore.NEWTON_UNROLLED + 1)
    monkeypatch.setattr(numcore, "NEWTON_UNROLLED", 20)
    longer, longer_consts = field_source(quartic_skater())
    assert longer == source
    assert longer_consts == {**consts, loop: (None,) * 21}


def newton_workload():
    """bench/workloads.py, whose ``newton`` inputs the benchmark times."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2])
def test_newton_workload_never_falls_back_to_the_loop(seed):
    from test_compiled import fallback_calls

    wl = newton_workload()
    op_inputs = wl.inputs("newton", seed)
    specs = wl.setup("newton", op_inputs)["specs"]
    for system, q, eta in op_inputs:
        spec = specs[system]
        if spec.consistency.kind != "newton":
            spec = replace(spec, consistency=NEWTON)
        field = reduced_field(spec.dirac, spec.hamiltonian, spec.consistency)
        ic = PhaseState(q=q, eta=eta, full=False)

        def run():
            simulate(spec, ic, t_end=wl.NEWTON_STEPS * wl.DT, dt=wl.DT, stride=wl.NEWTON_STRIDE)

        assert fallback_calls(field, run) == [], system


# the quartic skater's field at Y from eta_alpha = 50, as the float loop gives it
FAR_START = [
    "0x1.daad6c6339343p-1", "0x1.25ab7cef529b5p-2", "0x1.f637a488e6b53p-2", "0x1.7525f8467f0c8p-2",
    "-0x1.3ad5c5b503780p-11", "0x1.83d430264c636p-4", "0x1.2eae5d4d555c5p-1", "-0x1.54d16fe017c75p-2",
    "0x0.0p+0", "-0x1.75e8783860b17p-4", "0x1.f0de8ebb6a9e4p-1", "0x1.f637a488e6b53p-2",
    "-0x1.f000000000000p-59",
]


def test_a_start_needing_more_steps_than_unrolled_falls_back_to_the_loop():
    from test_compiled import fallback_calls

    spec = quartic_skater()
    h = spec.hamiltonian
    iterates = []

    def residual(x):
        iterates.append(x)
        return numcore.grad_and_hessian_rows(h, [*Y, *x], (5,))

    numcore.newton_iterate(residual, [50.0])
    assert len(iterates) - 1 > numcore.NEWTON_UNROLLED
    field = reduced_field(spec.dirac, h, NEWTON)
    out = []
    assert len(fallback_calls(field, lambda: out.append(field(*Y, 50.0)))) == 1
    assert [v.hex() for v in out[0]] == FAR_START


def test_a_start_the_loop_cannot_solve_raises_the_loops_error():
    # dH/deta3 = eta3^3 - 2 eta3 + 2 cycles 0 -> 1 -> 0 under Newton
    spec = build("skater_free")

    def fn(x, y, phi, e1, e2, e3):
        return 0.5 * (e1 * e1 + e2 * e2) + 0.25 * e3**4 - e3 * e3 + 2.0 * e3

    h = ScalarField(spec.base_names, spec.fiber_names, fn)
    field = reduced_field(spec.dirac, h, NEWTON)
    assert field.__code__.co_filename == "<traced>"
    with pytest.raises(Exception) as compiled:
        field(*Y, 0.0)
    with pytest.raises(Exception) as reference:
        evaluate_reduced(spec.dirac, h, Y[:3], Y[3:], guess=[0.0], solution=NEWTON)
    assert type(compiled.value).__name__ == "NonConvergenceError"
    assert type(compiled.value) is type(reference.value)
    assert str(compiled.value) == str(reference.value)


def test_a_transverse_block_flat_at_the_solution_raises_the_degenerate_error():
    # dH/deta3 = eta3^3: eta3 = 0 solves it, where the traced 1 x 1 block is 0
    spec = build("skater_free")

    def fn(x, y, phi, e1, e2, e3):
        return 0.5 * (e1 * e1 + e2 * e2) + 0.25 * e3**4

    h = ScalarField(spec.base_names, spec.fiber_names, fn)
    field = reduced_field(spec.dirac, h, NEWTON)
    assert field.__code__.co_filename == "<traced>"
    with pytest.raises(DegenerateHamiltonianError) as compiled:
        field(*Y, 0.0)
    with pytest.raises(DegenerateHamiltonianError) as reference:
        evaluate_reduced(spec.dirac, h, Y[:3], Y[3:], guess=[0.0], solution=NEWTON)
    assert str(compiled.value) == str(reference.value)
    assert type(compiled.value.__cause__) is type(reference.value.__cause__)


def test_a_comparing_hamiltonian_stays_untraceable_under_newton(monkeypatch):
    spec = replace(branching_skater(), consistency=NEWTON)
    field = reduced_field(spec.dirac, spec.hamiltonian, NEWTON)
    assert field.__code__.co_filename != "<traced>"
    for y in ([0.5, 0.1, 0.2, 1.0, 0.5], [-0.5, 0.1, 0.2, 1.0, 0.5]):
        eta_alpha, g, qdot, etadot = evaluate_reduced(
            spec.dirac, spec.hamiltonian, y[:3], y[3:], guess=[0.3], solution=NEWTON
        )
        out = field(*y, 0.3)
        assert list(out[:5]) == [*qdot, *etadot] and list(out[5:6]) == eta_alpha.tolist()


# -- the program cache ---------------------------------------------------------------


@pytest.mark.parametrize("kind", ["zero", "affine", "newton"])
def test_a_cached_program_keeps_its_consistency_solution_alive(kind):
    import gc
    import weakref

    spec = build("skater_charged")
    solution = ConsistencySolution(kind=kind, affine_map=spec.consistency.affine_map)
    alive = weakref.ref(solution)
    reduced_field(spec.dirac, spec.hamiltonian, solution)
    del solution
    gc.collect()
    assert alive() is not None  # so no later solution can take its id, and its program


def test_a_new_solution_never_runs_the_program_of_a_dead_one():
    spec = build("skater_charged")
    for _ in range(20):
        reduced_field(spec.dirac, spec.hamiltonian, ConsistencySolution(kind="newton"))(*Y, 0.0)
        zero = reduced_field(spec.dirac, spec.hamiltonian, ConsistencySolution(kind="zero"))
        assert zero(*Y, 0.0)[5] == 0.0
