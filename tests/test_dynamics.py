"""Lax flows: right-hand sides against kron oracles, RK4 against the
closed-form conjugation solution, and the file loaders.
"""

import json
import math
import random

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from operadics.dynamics import (
    LaxSystem,
    conjugation_oracle,
    evaluate_observer,
    integrate,
    lax_rhs,
    load_initial_op,
    load_lax_system,
    matrix_exp,
    monitor_associator,
    monitor_trace_power,
)
from operadics.bundled import bundled_path
from operadics.errors import (
    ConfigError,
    DegreeMismatchError,
    NonFiniteError,
    ParseError,
)
from operadics.multiop import (
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
        assert np.allclose(lax_rhs(m, l).coeffs.reshape(d, d), want, atol=1e-14)


def test_rhs_of_identity_like_l_vanishes():
    m = _rotation_m()
    assert op_norm(lax_rhs(m, identity_op(2, ENDO, FLOAT))) == 0.0


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
        got = lax_rhs(m, l).coeffs.reshape(d, d * d)
        assert np.allclose(got, want, atol=1e-13)


def test_lax_rhs_requires_degree_one_generator():
    rng = random.Random(2)
    with pytest.raises(DegreeMismatchError):
        lax_rhs(random_op(rng, 2, 2, ENDO, FLOAT), random_op(rng, 2, 1, ENDO, FLOAT))


# --- observers ---------------------------------------------------------------


def test_observers_on_a_known_matrix():
    l = _float_op(2, 1, [1.0, 2.0, 3.0, 4.0])
    assert monitor_trace_power(l, 1) == pytest.approx(5.0)
    # tr(L^2) for [[1,2],[3,4]] is 1 + 6 + 6 + 16
    assert monitor_trace_power(l, 2) == pytest.approx(29.0)
    assert evaluate_observer("trace2", l) == pytest.approx(29.0)
    assert evaluate_observer("norm", l) == pytest.approx(4.0)
    with pytest.raises(ConfigError):
        evaluate_observer("nope", l)
    with pytest.raises(DegreeMismatchError):
        monitor_associator(l)


def test_associator_observer_vanishes_for_coordinatewise_product():
    l = _float_op(2, 2, [1.0, 0, 0, 0, 0, 0, 0, 1.0])
    assert monitor_associator(l) == 0.0


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
            rhs = lax_rhs(m, conjugation_oracle(m, l0, t))
            # central differences with step 1e-5 leave O(1e-10) truncation
            assert op_norm(sub(deriv, rhs)) < 1e-8


def test_oracle_group_property():
    m = _rotation_m()
    l0 = _float_op(2, 2, [0.3, -1.0, 0.2, 0.7, 1.1, 0.0, -0.4, 0.5])
    once = conjugation_oracle(m, l0, 0.7)
    twice = conjugation_oracle(m, once, 0.5)
    assert max_abs_diff(twice, conjugation_oracle(m, l0, 1.2)) < 1e-12


# --- integration -------------------------------------------------------------


def test_zero_generator_keeps_l_constant():
    l0 = _float_op(2, 1, [1.0, 2.0, 3.0, 4.0])
    system = LaxSystem(
        m=_float_op(2, 1, [0.0] * 4), l0=l0, dt=0.01, t_end=0.5
    )
    samples = integrate(system)
    assert max_abs_diff(samples[-1].l, l0) == 0.0


def test_rk4_matches_oracle_at_tenth_of_a_unit():
    m = _rotation_m()
    for deg, size in ((1, 4), (2, 8)):
        rng = random.Random(deg)
        l0 = _float_op(2, deg, [rng.uniform(-1, 1) for _ in range(size)])
        system = LaxSystem(m=m, l0=l0, dt=1e-3, t_end=0.2)
        samples = integrate(system)
        want = conjugation_oracle(m, l0, 0.2)
        assert max_abs_diff(samples[-1].l, want) < 1e-9


def test_rk4_error_scales_as_fourth_order():
    m = _rotation_m()
    l0 = _float_op(2, 2, [1.0, 0, 0, 0, 0, 0, 0, 1.0])
    want = conjugation_oracle(m, l0, 1.0)
    errs = []
    for dt in (0.1, 0.05):
        samples = integrate(LaxSystem(m=m, l0=l0, dt=dt, t_end=1.0))
        errs.append(max_abs_diff(samples[-1].l, want))
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
    samples = integrate(system)
    assert [round(s.t, 10) for s in samples] == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    assert set(samples[0].invariants) == {"trace1", "trace2"}
    assert np.stack([s.l.coeffs for s in samples]).shape == (6, 4)


def test_divergent_run_raises_non_finite():
    m = _float_op(2, 1, [1e200, 0.0, 0.0, -1e200])
    l0 = _float_op(2, 1, [0.0, 1e200, 1e-200, 0.0])
    with pytest.raises(NonFiniteError):
        integrate(LaxSystem(m=m, l0=l0, dt=1.0, t_end=5.0))


def test_state_integration_rides_along():
    # dq/dt = p, dp/dt = -q alongside a frozen L
    system = LaxSystem(
        m=_float_op(2, 1, [0.0] * 4),
        l0=_float_op(2, 1, [1.0, 0, 0, 1.0]),
        dt=1e-3,
        t_end=1.0,
        state0=(1.0, 0.0),
        state_rhs=lambda t, y: np.array([y[1], -y[0]]),
    )
    samples = integrate(system)
    q, p = samples[-1].state
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
