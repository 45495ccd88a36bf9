"""Harmonic oscillator model: frozen matrices, conserved quantities,
and period-transport behavior by degree.
"""

import math
import random
import warnings

import numpy as np
import pytest

from operadics.braces import bracket
from operadics.dynamics import evaluate_observer, integrate, matrix_exp
from operadics.errors import (
    ConfigError,
    DegreeMismatchError,
    DimMismatchError,
    NonFiniteError,
)
from operadics.multiop import (
    ENDO,
    FLOAT,
    MultiOp,
    max_abs_diff,
    op_norm,
    random_op,
    scale,
    sub,
)
from operadics.oscillator import (
    OscillatorParams,
    canonical_flow,
    classical_lax,
    hamiltonian,
    m_matrix,
    monodromy_report,
    oscillator_system,
    resolve_l_init,
    transport_solution,
)

from oracles import classical_lax_time_derivative, exact_flow

STANDARD = OscillatorParams(omega=2.0, q0=1.0, p0=0.0)


def _float_op(degree, coeffs):
    return MultiOp(2, degree, ENDO, np.asarray(coeffs, dtype=np.float64))


# --- frozen building blocks -----------------------------------------------


def test_matrices_frozen():
    assert classical_lax(1.0, 0.0, 2.0).coeffs.tolist() == [0.0, 2.0, 2.0, 0.0]
    assert classical_lax(0.5, 3.0, 2.0).coeffs.tolist() == [3.0, 1.0, 1.0, -3.0]
    assert m_matrix(2.0).coeffs.tolist() == [0.0, -1.0, 1.0, 0.0]
    assert hamiltonian(1.0, 0.0, 2.0) == pytest.approx(2.0)
    assert canonical_flow(1.0, 0.5, 2.0) == (0.5, -4.0)


def test_trace_of_l_squared_is_four_h():
    rng = random.Random(2)
    for _ in range(20):
        q, p, w = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 3)
        l = classical_lax(q, p, w)
        assert evaluate_observer("trace2", l.coeffs[None], 2)[0] == pytest.approx(
            4.0 * hamiltonian(q, p, w), abs=1e-12
        )


def test_one_period_exponential_is_minus_identity():
    for omega in (0.5, 1.0, 2.0, 3.7):
        params = OscillatorParams(omega=omega, q0=1.0, p0=0.0)
        mm = m_matrix(omega).coeffs.reshape(2, 2)
        full = matrix_exp(params.period * mm)
        assert np.allclose(full, -np.eye(2), atol=1e-12)


# --- exact flow --------------------------------------------------------------


def test_exact_flow_initial_conditions_and_period():
    q, p = exact_flow(STANDARD, 0.0)
    assert (q, p) == (1.0, 0.0)
    q, p = exact_flow(STANDARD, STANDARD.period)
    assert q == pytest.approx(1.0, abs=1e-12)
    assert p == pytest.approx(0.0, abs=1e-12)


def test_exact_flow_satisfies_the_canonical_equations():
    step = 1e-6
    for t in (0.0, 0.3, 1.9):
        q0, p0 = exact_flow(STANDARD, t - step)
        q1, p1 = exact_flow(STANDARD, t + step)
        dq, dp = canonical_flow(*exact_flow(STANDARD, t), STANDARD.omega)
        assert (q1 - q0) / (2 * step) == pytest.approx(dq, abs=1e-6)
        assert (p1 - p0) / (2 * step) == pytest.approx(dp, abs=1e-6)


def test_energy_is_constant_along_the_exact_flow():
    for t in np.linspace(0.0, 10.0, 101):
        q, p = exact_flow(STANDARD, float(t))
        assert hamiltonian(q, p, 2.0) == pytest.approx(2.0, abs=1e-12)


# --- Lax residual -------------------------------------------------------------


def lax_residual_classical(params, t):
    """Norm of dL/dt - (ML - LM) along the exact trajectory (analytically 0)."""
    q, p = exact_flow(params, t)
    rhs = bracket(m_matrix(params.omega), classical_lax(q, p, params.omega))
    return float(op_norm(sub(classical_lax_time_derivative(params, t), rhs)))


def test_lax_residual_vanishes_along_the_exact_trajectory():
    for t in np.linspace(0.0, 10.0, 201):
        assert lax_residual_classical(STANDARD, float(t)) <= 1e-12


def test_wrong_sign_generator_breaks_the_residual():
    # negative control: flipping M makes the defect comparable to ||L||
    for t in (0.1, 0.7, 2.3):
        q, p = exact_flow(STANDARD, t)
        wrong = bracket(scale(-1.0, m_matrix(2.0)), classical_lax(q, p, 2.0))
        deriv = classical_lax_time_derivative(STANDARD, t)
        assert op_norm(sub(deriv, wrong)) > 1.0


# --- transport and monodromy ---------------------------------------------------


def test_degree_one_transport_tracks_the_classical_matrix():
    for t in (0.0, 0.37, 1.0, 2.9):
        q, p = exact_flow(STANDARD, t)
        got = transport_solution(STANDARD, t)
        assert max_abs_diff(got, classical_lax(q, p, 2.0)) < 1e-10


def test_monodromy_by_degree():
    # odd degrees return to l_init, even degrees to -l_init
    r1 = monodromy_report(STANDARD)
    assert r1.degree == 1 and r1.periodic and r1.defect < 1e-10

    l2 = _float_op(2, [1.0, 0, 0, 0, 0, 0, 0, 1.0])
    p2 = OscillatorParams(omega=2.0, q0=1.0, p0=0.0, degree=2, l_init=l2)
    r2 = monodromy_report(p2)
    assert not r2.periodic
    assert r2.defect == pytest.approx(2.0 * op_norm(l2), abs=1e-10)
    transported = transport_solution(p2, p2.period)
    assert max_abs_diff(transported, scale(-1.0, l2)) < 1e-10

    rng = random.Random(4)
    l3 = random_op(rng, 2, 3, ENDO, FLOAT)
    p3 = OscillatorParams(omega=2.0, q0=1.0, p0=0.0, degree=3, l_init=l3)
    r3 = monodromy_report(p3)
    assert r3.periodic and r3.defect < 1e-10
    assert r3.period == pytest.approx(math.pi)


def test_non_finite_monodromy_defect_raises_without_warnings():
    # exp(TM) = -identity sends 1e308 to -1e308, and their difference overflows
    huge = _float_op(2, [1e308, 0, 0, 0, 0, 0, 0, 1e308])
    params = OscillatorParams(omega=2.0, q0=1.0, p0=0.0, degree=2, l_init=huge)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            monodromy_report(params)


# --- parameter validation --------------------------------------------------------


def test_params_validation():
    with pytest.raises(ConfigError):
        OscillatorParams(omega=0.0, q0=1.0, p0=0.0)
    with pytest.raises(ConfigError):
        OscillatorParams(omega=1.0, q0=1.0, p0=0.0, degree=2)  # needs l_init
    with pytest.raises(DegreeMismatchError):
        OscillatorParams(
            omega=1.0,
            q0=1.0,
            p0=0.0,
            degree=2,
            l_init=_float_op(1, [1.0, 0, 0, 1.0]),
        )
    with pytest.raises(DimMismatchError):
        OscillatorParams(
            omega=1.0,
            q0=1.0,
            p0=0.0,
            degree=1,
            l_init=MultiOp(3, 1, ENDO, np.zeros(9)),
        )


def test_degree_one_default_l_init_is_the_classical_matrix():
    assert resolve_l_init(STANDARD) == classical_lax(1.0, 0.0, 2.0)


# --- assembled system --------------------------------------------------------------


def test_state_matrix_is_the_canonical_flow():
    rng = random.Random(9)
    for _ in range(10):
        q, p, w = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 3)
        params = OscillatorParams(omega=w, q0=q, p0=p)
        mat = np.array(oscillator_system(params, 0.1, 1.0).state_matrix)
        assert tuple(mat @ [q, p]) == canonical_flow(q, p, w)


def test_integrated_oscillator_conserves_h_and_trace():
    # dt = 1e-2 keeps this quick; RK4 drift stays a few 1e-9 over 300 steps
    traj = integrate(oscillator_system(STANDARD, 1e-2, 3.0))
    q, p = traj.state.T
    assert hamiltonian(q, p, 2.0) == pytest.approx(np.full(len(traj), 2.0), abs=1e-8)
    assert traj.invariants["trace2"] == pytest.approx(np.full(len(traj), 8.0), abs=1e-8)


def test_integrated_state_matches_the_exact_flow():
    traj = integrate(oscillator_system(STANDARD, 1e-3, 2.0))
    q, p = traj.state[-1]
    qe, pe = exact_flow(STANDARD, 2.0)
    assert q == pytest.approx(qe, abs=1e-10)
    assert p == pytest.approx(pe, abs=1e-10)
