"""Lax flows: right-hand sides against kron oracles, the operator's
triplets against its basis-vector build, both step forms (the dense RK4
propagator and the Horner triplet products) against the RK4 stage form,
the triplet steps kept when the propagator overflows, stacked observers
against per-sample ones, RK4 against the closed-form conjugation
solution, and the file loaders.
"""

import json
import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from operadics import dynamics
from operadics.braces import bracket, mu_squared
from operadics.dynamics import (
    MAX_CELLS,
    LaxSystem,
    _rhs_triplets,
    conjugation_oracle,
    evaluate_observer,
    integrate,
    load_initial_op,
    load_lax_system,
    matrix_exp,
)
from operadics.bundled import bundled_path
from operadics.errors import (
    ConfigError,
    DegreeMismatchError,
    DimMismatchError,
    NonFiniteError,
    ParseError,
    ShapeMismatchError,
    VarianceMismatchError,
)
from operadics.multiop import (
    COENDO,
    ENDO,
    FLOAT,
    MultiOp,
    identity_op,
    max_abs_diff,
    op_norm,
    random_op,
    sub,
)


def _float_op(dim, degree, coeffs):
    return MultiOp(dim, degree, ENDO, np.asarray(coeffs, dtype=np.float64))


def _rotation_m():
    return _float_op(2, 1, [0.0, -1.0, 1.0, 0.0])


# --- right-hand sides -------------------------------------------------------


def test_degree_one_rhs_is_the_matrix_commutator():
    rng = random.Random(0)
    for d in (2, 3):
        m = random_op(rng, d, 1, ENDO, FLOAT)
        l = random_op(rng, d, 1, ENDO, FLOAT)
        mm = m.coeffs.reshape(d, d)
        lm = l.coeffs.reshape(d, d)
        want = mm @ lm - lm @ mm
        assert np.allclose(bracket(m, l).coeffs.reshape(d, d), want, atol=1e-14)


def test_rhs_of_identity_like_l_vanishes():
    m = _rotation_m()
    assert op_norm(bracket(m, identity_op(2, ENDO, FLOAT))) == 0.0


def test_degree_two_rhs_matches_kron_oracle():
    # M.L - L.M with deg L = 2 reduces to M L - L (M x 1) - L (1 x M)
    # on the (d, d^2) coefficient matrices
    rng = random.Random(1)
    d = 2
    for _ in range(20):
        m = random_op(rng, d, 1, ENDO, FLOAT)
        l = random_op(rng, d, 2, ENDO, FLOAT)
        mm = m.coeffs.reshape(d, d)
        lm = l.coeffs.reshape(d, d * d)
        eye = np.eye(d)
        want = mm @ lm - lm @ np.kron(mm, eye) - lm @ np.kron(eye, mm)
        got = bracket(m, l).coeffs.reshape(d, d * d)
        assert np.allclose(got, want, atol=1e-13)


def rhs_matrix_oracle(m, degree):
    """Matrix of L -> M.L - L.M, one bracket call per basis vector."""
    d = m.dim
    size = d ** (degree + 1)
    out = np.empty((size, size), dtype=np.float64)
    basis = np.zeros(size, dtype=np.float64)
    for c in range(size):
        basis[c] = 1.0
        out[:, c] = bracket(m, MultiOp(d, degree, ENDO, basis)).coeffs
        basis[c] = 0.0
    return out


def densify(rows, cols, vals, width):
    """The dense matrix of triplets; repeated pairs would add up."""
    out = np.zeros((width, width))
    np.add.at(out, (rows, cols), vals)
    return out


def assert_pairs_distinct(rows, cols, width):
    flat = rows * width + cols
    assert len(np.unique(flat)) == len(flat)


def test_rhs_operator_matches_the_basis_vector_build():
    # random M, not only antisymmetric; dim 3 stops at degree 6 (2187
    # coefficients), since the two dense matrices of degree 8 take 6 GiB
    rng = random.Random(3)
    for d in (1, 2, 3):
        m = random_op(rng, d, 1, ENDO, FLOAT)
        for degree in range(1, 9):
            if d ** (degree + 1) > 2187:
                break
            want = rhs_matrix_oracle(m, degree)
            rows, cols, vals, width = _rhs_triplets(m, degree)
            assert width == len(want)
            # one merged diagonal entry and (degree + 1)(d - 1) others a row
            assert len(rows) == width * (1 + (degree + 1) * (d - 1))
            assert_pairs_distinct(rows, cols, width)
            got = densify(rows, cols, vals, width)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_rhs_operator_of_huge_degree_in_dim_one():
    # the output slot adds m and each of the 60000 input slots subtracts it,
    # merged into one diagonal entry; a loop over slots would take most of a
    # second here
    m = _float_op(1, 1, [0.7])
    rows, cols, vals, width = _rhs_triplets(m, 60000)
    assert width == 1 and rows.tolist() == cols.tolist() == [0]
    assert vals[0] == pytest.approx(0.7 * (1 - 60000), rel=1e-12)


def test_rhs_operator_places_the_state_block_first():
    m = _rotation_m()
    state = ((0.0, 1.0), (-4.0, 0.0))
    rows, cols, vals, width = _rhs_triplets(m, 2, state)
    assert width == 10
    assert_pairs_distinct(rows, cols, width)
    # the four state entries lead, then the L block shifted by two
    assert (rows[:4] < 2).all() and (cols[:4] < 2).all()
    assert (rows[4:] >= 2).all() and (cols[4:] >= 2).all()
    got = densify(rows, cols, vals, width)
    assert got[:2, :2].tolist() == [list(r) for r in state]
    assert not got[:2, 2:].any() and not got[2:, :2].any()
    assert np.array_equal(got[2:, 2:], densify(*_rhs_triplets(m, 2)))


def rk4_stage_oracle(op, y, dt, steps):
    """Classical four-stage RK4 on y' = op @ y; returns every sample."""
    out = [y]
    for _ in range(steps):
        k1 = op @ y
        k2 = op @ (y + dt / 2.0 * k1)
        k3 = op @ (y + dt / 2.0 * k2)
        k4 = op @ (y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


def test_horner_steps_match_the_rk4_stage_form():
    # on a constant linear field both step forms, the dense propagator and
    # the four triplet products, are the stage form up to rounding
    rng = random.Random(4)
    state0, state_matrix = (0.3, -1.2), ((0.1, 1.0), (-2.0, 0.4))
    dense = set()
    for d, degree in ((1, 3), (2, 1), (2, 3), (3, 2), (2, 4), (2, 5)):
        m = random_op(rng, d, 1, ENDO, FLOAT)
        l0 = random_op(rng, d, degree, ENDO, FLOAT)
        oracle = rhs_matrix_oracle(m, degree)
        for ns in (0, 2):
            rows, _, _, width = _rhs_triplets(m, degree, state_matrix[:ns])
            dense.add(width * width <= 4 * len(rows))
            system = LaxSystem(
                m=m, l0=l0, dt=0.05, t_end=0.25,
                state0=state0[:ns], state_matrix=state_matrix[:ns],
            )
            op = np.zeros((ns + len(oracle),) * 2)
            op[:ns, :ns] = state_matrix[:ns]
            op[ns:, ns:] = oracle
            y0 = np.concatenate([state0[:ns], l0.coeffs])
            want = rk4_stage_oracle(op, y0, 0.05, 5)
            traj = integrate(system)
            got = np.hstack([traj.state, traj.coeffs])
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert dense == {True, False}


# --- observers ---------------------------------------------------------------


def test_observers_on_a_known_matrix():
    stack = np.array([[1.0, 2.0, 3.0, 4.0]])
    assert evaluate_observer("trace1", stack, 2)[0] == pytest.approx(5.0)
    # tr(L^2) for [[1,2],[3,4]] is 1 + 6 + 6 + 16
    assert evaluate_observer("trace2", stack, 2)[0] == pytest.approx(29.0)
    assert evaluate_observer("norm", stack, 2)[0] == pytest.approx(4.0)
    with pytest.raises(ConfigError):
        evaluate_observer("nope", stack, 2)
    with pytest.raises(DegreeMismatchError):
        evaluate_observer("assoc_defect", stack, 2)
    with pytest.raises(DegreeMismatchError):
        evaluate_observer("trace2", np.zeros((1, 8)), 2)


@pytest.mark.parametrize("name", ["norm", "trace1", "trace2", "assoc_defect"])
def test_observers_need_a_stack_of_samples(name):
    # one sample given as a bare row, or a stack with a stray axis
    for coeffs in (np.zeros(4), np.zeros((1, 1, 4))):
        with pytest.raises(ShapeMismatchError, match="2-D stack") as info:
            evaluate_observer(name, coeffs, 2)
        assert "\n" not in str(info.value)


def test_associator_observer_vanishes_for_coordinatewise_product():
    stack = np.array([[1.0, 0, 0, 0, 0, 0, 0, 1.0]])
    assert evaluate_observer("assoc_defect", stack, 2)[0] == 0.0


@pytest.mark.parametrize("block", [dynamics._ASSOC_BLOCK, 100])
def test_stacked_observers_match_per_sample_oracles(monkeypatch, block):
    # a block of 100 coefficients splits the associators into many blocks
    monkeypatch.setattr(dynamics, "_ASSOC_BLOCK", block)
    rng = np.random.default_rng(8)
    for d in (1, 2, 3):
        # random degree-2 L is not associative: the defect is of order 1
        stack = rng.uniform(-1.0, 1.0, size=(40, d**3))
        want = [op_norm(mu_squared(_float_op(d, 2, row))) for row in stack]
        got = evaluate_observer("assoc_defect", stack, d)
        assert np.abs(got - want).max() <= 1e-15
        want = [op_norm(_float_op(d, 2, row)) for row in stack]
        assert np.abs(evaluate_observer("norm", stack, d) - want).max() <= 1e-15
        stack = rng.uniform(-1.0, 1.0, size=(40, d**2))
        for k in (1, 2, 3):
            want = [
                np.trace(np.linalg.matrix_power(row.reshape(d, d), k))
                for row in stack
            ]
            got = evaluate_observer(f"trace{k}", stack, d)
            assert np.abs(got - want).max() <= 1e-15


# --- matrix exponential --------------------------------------------------------


def test_matrix_exp_rotation_closed_form():
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    for theta in (0.0, 0.3, 1.7, math.pi, 11.0):
        want = np.array(
            [
                [math.cos(theta), -math.sin(theta)],
                [math.sin(theta), math.cos(theta)],
            ]
        )
        assert np.allclose(matrix_exp(theta * j), want, atol=1e-13)


def test_matrix_exp_nilpotent_and_zero():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(matrix_exp(n), np.eye(2) + n, atol=1e-15)
    assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))


def test_matrix_exp_cross_checked_against_scipy():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.uniform(-2.0, 2.0, size=(4, 4))
        assert np.allclose(matrix_exp(a), scipy_expm(a), atol=1e-10)


# --- conjugation oracle ----------------------------------------------------------


def test_oracle_at_time_zero_is_the_initial_op():
    rng = random.Random(5)
    m = random_op(rng, 2, 1, ENDO, FLOAT)
    for deg in (1, 2, 3):
        l0 = random_op(rng, 2, deg, ENDO, FLOAT)
        assert max_abs_diff(conjugation_oracle(m, l0, 0.0), l0) < 1e-15


def test_oracle_satisfies_the_lax_equation():
    rng = random.Random(6)
    m = random_op(rng, 2, 1, ENDO, FLOAT)
    for deg in (1, 2):
        l0 = random_op(rng, 2, deg, ENDO, FLOAT)
        for t in (0.0, 0.4, 1.3):
            step = 1e-5
            deriv = (1.0 / (2.0 * step)) * sub(
                conjugation_oracle(m, l0, t + step),
                conjugation_oracle(m, l0, t - step),
            )
            rhs = bracket(m, conjugation_oracle(m, l0, t))
            # central differences with step 1e-5 leave O(1e-10) truncation
            assert op_norm(sub(deriv, rhs)) < 1e-8


def test_oracle_group_property():
    m = _rotation_m()
    l0 = _float_op(2, 2, [0.3, -1.0, 0.2, 0.7, 1.1, 0.0, -0.4, 0.5])
    once = conjugation_oracle(m, l0, 0.7)
    twice = conjugation_oracle(m, once, 0.5)
    assert max_abs_diff(twice, conjugation_oracle(m, l0, 1.2)) < 1e-12


def test_oracle_reads_an_exact_l0_as_floats():
    m = _rotation_m()
    exact = MultiOp(2, 2, ENDO, [3, -1, 0, 2, 1, 0, -2, 5])
    floats = _float_op(2, 2, [3, -1, 0, 2, 1, 0, -2, 5])
    assert conjugation_oracle(m, exact, 0.7) == conjugation_oracle(m, floats, 0.7)


def test_oracle_errors():
    l0 = _float_op(2, 1, [1.0, 0.0, 0.0, 1.0])
    with pytest.raises(DegreeMismatchError, match="needs a degree-1 M"):
        conjugation_oracle(_float_op(2, 2, [0.0] * 8), l0, 1.0)
    # exp(800) overflows; numpy's own overflow warnings are not under test
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="conjugation oracle"):
            conjugation_oracle(_float_op(2, 1, [800.0, 0.0, 0.0, 0.0]), l0, 1.0)


# --- integration -------------------------------------------------------------


def test_zero_generator_keeps_l_constant():
    l0 = _float_op(2, 1, [1.0, 2.0, 3.0, 4.0])
    system = LaxSystem(
        m=_float_op(2, 1, [0.0] * 4), l0=l0, dt=0.01, t_end=0.5
    )
    traj = integrate(system)
    assert max_abs_diff(_float_op(2, 1, traj.coeffs[-1]), l0) == 0.0


def test_rk4_matches_oracle_at_tenth_of_a_unit():
    m = _rotation_m()
    for deg, size in ((1, 4), (2, 8)):
        rng = random.Random(deg)
        l0 = _float_op(2, deg, [rng.uniform(-1, 1) for _ in range(size)])
        system = LaxSystem(m=m, l0=l0, dt=1e-3, t_end=0.2)
        traj = integrate(system)
        want = conjugation_oracle(m, l0, 0.2)
        assert max_abs_diff(_float_op(2, deg, traj.coeffs[-1]), want) < 1e-9


def test_rk4_error_scales_as_fourth_order():
    m = _rotation_m()
    l0 = _float_op(2, 2, [1.0, 0, 0, 0, 0, 0, 0, 1.0])
    want = conjugation_oracle(m, l0, 1.0)
    errs = []
    for dt in (0.1, 0.05):
        traj = integrate(LaxSystem(m=m, l0=l0, dt=dt, t_end=1.0))
        errs.append(max_abs_diff(_float_op(2, 2, traj.coeffs[-1]), want))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_sampling_grid_and_observers():
    system = load_lax_system(bundled_path("lax_deg1.json"))
    system = LaxSystem(
        m=system.m,
        l0=system.l0,
        dt=0.1,
        t_end=0.5,
        observe=("trace1", "trace2"),
    )
    traj = integrate(system)
    assert [round(t, 10) for t in traj.t] == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    assert set(traj.invariants) == {"trace1", "trace2"}
    assert traj.coeffs.shape == (6, 4)
    assert traj.invariants["trace2"].shape == (6,)


def test_trajectory_length_is_steps_plus_one():
    m, l0 = _rotation_m(), _float_op(2, 1, [1.0, 0, 0, 1.0])
    for dt, t_end, steps in ((0.1, 0.5, 5), (0.3, 1.0, 3), (1e-3, 1e-3, 1)):
        traj = integrate(LaxSystem(m=m, l0=l0, dt=dt, t_end=t_end))
        assert len(traj) == steps + 1 == len(traj.coeffs)
    system = LaxSystem(
        m=m, l0=l0, dt=0.25, t_end=1.0, state0=(1.0, 0.0),
        state_matrix=((0.0, 1.0), (-1.0, 0.0)),
    )
    traj = integrate(system)
    assert len(traj) == 5 and traj.state.shape == (5, 2)


def test_divergent_run_raises_non_finite():
    m = _float_op(2, 1, [1e200, 0.0, 0.0, -1e200])
    l0 = _float_op(2, 1, [0.0, 1e200, 1e-200, 0.0])
    with pytest.raises(NonFiniteError) as info:
        integrate(LaxSystem(m=m, l0=l0, dt=1.0, t_end=5.0))
    assert str(info.value) == "non-finite coefficients at t = 1.0"
    # the first bad row is step 3, reported as 3 * dt
    m = _float_op(2, 1, [5e11, 0.0, 0.0, -5e11])
    with pytest.raises(NonFiniteError) as info:
        integrate(LaxSystem(m=m, l0=l0, dt=0.1, t_end=1.0))
    assert str(info.value) == "non-finite coefficients at t = 0.30000000000000004"
    # dim 1, degree 4, M = 1: the operator is 1 - 4 = -3, so each RK4 step
    # multiplies L by 1.375; the scalar Horner recursion finds the first bad
    # step, which lies past the first two blocks of steps the integrator
    # checks
    step, y = 0, 1.0
    while math.isfinite(y):
        u = y
        for w in (-3.0 / 4.0, -3.0 / 3.0, -3.0 / 2.0, -3.0):
            u = y + w * u
        y = u
        step += 1
    assert 2 * dynamics._CHECK_STEPS < step < 3 * dynamics._CHECK_STEPS
    m, l0 = _float_op(1, 1, [1.0]), _float_op(1, 4, [1.0])
    system = LaxSystem(m=m, l0=l0, dt=1.0, t_end=5000.0)
    with pytest.raises(NonFiniteError) as info:
        integrate(system)
    assert str(info.value) == f"non-finite coefficients at t = {float(step)}"


def test_non_finite_observer_raises_without_warnings():
    # the bundled degree-2 system with L0 scaled by 1e160: the coefficients
    # stay finite, but L.L overflows, so assoc_defect is nan from t = 0
    system = load_lax_system(bundled_path("lax_deg2.json"))
    big = _float_op(2, 2, system.l0.coeffs * 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError) as info:
            integrate(replace(system, l0=big, dt=0.001, t_end=0.003))
    assert str(info.value) == "non-finite observer 'assoc_defect' at t = 0.0"


def test_non_finite_propagator_keeps_the_triplet_steps():
    # (hA)^4 overflows, so the dense propagator has infinite entries and
    # would turn the zero rows into nan; the triplet steps keep them zero
    m = _float_op(2, 1, [0.0, -1e100, 1e100, 0.0])
    l0 = _float_op(2, 1, [0.0] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(LaxSystem(m=m, l0=l0, dt=1e-3, t_end=0.01))
    assert len(traj) == 11 and not traj.coeffs.any()


def test_state_integration_rides_along():
    # dq/dt = p, dp/dt = -q alongside a frozen L
    system = LaxSystem(
        m=_float_op(2, 1, [0.0] * 4),
        l0=_float_op(2, 1, [1.0, 0, 0, 1.0]),
        dt=1e-3,
        t_end=1.0,
        state0=(1.0, 0.0),
        state_matrix=((0.0, 1.0), (-1.0, 0.0)),
    )
    traj = integrate(system)
    q, p = traj.state[-1]
    assert q == pytest.approx(math.cos(1.0), abs=1e-10)
    assert p == pytest.approx(-math.sin(1.0), abs=1e-10)


# --- validation and loaders -----------------------------------------------------


def test_lax_system_validation():
    m = _rotation_m()
    l0 = _float_op(2, 1, [1.0, 0, 0, 1.0])
    with pytest.raises(ConfigError):
        LaxSystem(m=m, l0=l0, dt=0.0, t_end=1.0)
    with pytest.raises(ConfigError):
        LaxSystem(m=m, l0=l0, dt=0.5, t_end=0.1)
    with pytest.raises(ConfigError):
        LaxSystem(m=m, l0=l0, dt=0.1, t_end=1.0, observe=("bogus",))
    with pytest.raises(DegreeMismatchError):
        LaxSystem(m=_float_op(2, 2, [0.0] * 8), l0=l0, dt=0.1, t_end=1.0)
    with pytest.raises(DegreeMismatchError, match="L0 must have degree >= 1"):
        LaxSystem(m=m, l0=_float_op(2, 0, [1.0, 0.0]), dt=0.1, t_end=1.0)
    with pytest.raises(DimMismatchError, match="dim 2 vs 3"):
        LaxSystem(m=m, l0=_float_op(3, 1, [0.0] * 9), dt=0.1, t_end=1.0)
    coendo = MultiOp(2, 1, COENDO, np.array([1.0, 0.0, 0.0, 1.0]))
    with pytest.raises(VarianceMismatchError):
        LaxSystem(m=m, l0=coendo, dt=0.1, t_end=1.0)
    with pytest.raises(DegreeMismatchError):
        LaxSystem(m=m, l0=l0, dt=0.1, t_end=1.0, observe=("assoc_defect",))
    with pytest.raises(ConfigError):
        LaxSystem(m=m, l0=l0, dt=0.1, t_end=1.0, state0=(1.0, 0.0))
    with pytest.raises(ConfigError):
        LaxSystem(
            m=m, l0=l0, dt=0.1, t_end=1.0, state0=(1.0,), state_matrix=((0.0, 1.0),)
        )


def test_cell_cap_counts_state_observers_and_coefficients():
    m = _rotation_m()
    l0 = _float_op(2, 4, [0.5] * 32)
    state = {"state0": (1.0, 0.0), "state_matrix": ((0.0, 1.0), (-1.0, 0.0))}
    # (steps + 1) * (2 + 1 + 32) cells, with steps inside MAX_STEPS
    steps = MAX_CELLS // 35 - 1
    LaxSystem(m=m, l0=l0, dt=1.0, t_end=float(steps), observe=("norm",), **state)
    with pytest.raises(ConfigError, match="cells"):
        LaxSystem(
            m=m, l0=l0, dt=1.0, t_end=float(steps + 1), observe=("norm",), **state
        )


def test_bundled_lax_files_load(tmp_path):
    s1 = load_lax_system(bundled_path("lax_deg1.json"))
    assert s1.l0.degree == 1 and s1.observe == ("trace1", "trace2", "trace3")
    s2 = load_lax_system(bundled_path("lax_deg2.json"))
    assert s2.l0.degree == 2 and "assoc_defect" in s2.observe


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("M"),
        lambda d: d.__setitem__("M", [0.0, 1.0]),
        lambda d: d.__setitem__("dim", "two"),
        lambda d: d.__setitem__("dt", "fast"),
        lambda d: d["L0"].__setitem__("coeffs", [1.0]),
        lambda d: d.__setitem__("observe", ["bogus"]),
        lambda d: d.__setitem__("M", [0.0, True, 1.0, 0.0]),
        lambda d: d.__setitem__("dt", 0.0),
        lambda d: d.__setitem__("dt", -0.1),
        lambda d: d.__setitem__("t_end", d["dt"] / 2),
        lambda d: d.__setitem__("observe", "norm"),
        lambda d: d.__setitem__("observe", ["norm", 1]),
    ],
)
def test_malformed_lax_documents_raise(tmp_path, mutate):
    doc = json.loads(bundled_path("lax_deg1.json").read_text())
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_lax_system(path)


def test_load_initial_op(tmp_path):
    path = tmp_path / "l.json"
    path.write_text(json.dumps({"degree": 2, "coeffs": [0.5] * 8}))
    op = load_initial_op(path, 2)
    assert op.degree == 2 and op.backend == FLOAT
    path.write_text(json.dumps({"degree": 2, "coeffs": [0.5] * 7}))
    with pytest.raises(ParseError):
        load_initial_op(path, 2)
    with pytest.raises(ParseError):
        load_initial_op(tmp_path / "missing.json", 2)
