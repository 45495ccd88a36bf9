"""Acceptance gate: one test per release criterion, at the published
tolerances.  Run with -v to get one pass/fail line per criterion.

Criterion 2 states the cup-product associator in its signed form

    (f ~ g) ~ h - f ~ (g ~ h) = (-1)**deg(g) {mu.mu; f, g, h}

The factor is forced by the sign conventions of operadics.braces, which
criterion 1 pins: the slots the tetrabrace fills carry Koszul signs that
differ from those of the two cup products by (-1)**deg(g).  The form without
the factor therefore fails only when deg(g) is odd.  README.md ("Sign of the
cup associator") explains this, and tests/test_braces.py derives one case by
hand.
"""

import json
import random
import subprocess
import sys
import time

import numpy as np

from operadics.braces import bracket, cup, mu_squared, tetrabrace
from operadics.bundled import bundled_path
from operadics.cohomology import betti_table, load_algebra
from operadics.dynamics import LaxSystem, conjugation_oracle, integrate
from operadics.multiop import (
    COENDO,
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
    classical_lax,
    hamiltonian,
    m_matrix,
    oscillator_system,
    transport_solution,
)
from operadics.scalars import sign_pow
from operadics.verify import SuiteConfig, run_suite

from oracles import classical_lax_time_derivative, exact_flow


def _run(name, **overrides):
    cfg = SuiteConfig(**{"cases": 200, **overrides})
    return run_suite(name, cfg)


def test_criterion_1_operad_axioms():
    # >= 200 exact random cases per (dim, variance), zero tolerance, < 30 s
    start = time.perf_counter()
    failures = []
    for dim in (1, 2, 3):
        for variance in (ENDO, COENDO):
            for name in ("composition-relations", "unit-laws"):
                r = _run(name, dim=dim, variance=variance, max_degree=3)
                if not r.passed:
                    failures.append(
                        f"{name} dim={dim} {variance}: {r.counterexample}"
                    )
    elapsed = time.perf_counter() - start
    assert not failures, "; ".join(failures)
    assert elapsed < 30.0, f"axiom sweep took {elapsed:.1f}s"


def test_criterion_2_brace_layer():
    # six identities, >= 200 exact cases each, zero tolerance
    failed = []
    for name in (
        "getzler",
        "gerstenhaber-symmetry",
        "bracket-antisymmetry",
        "bracket-jacobi",
        "cup-right-translation",
    ):
        r = _run(name)
        if not r.passed:
            failed.append(f"{name} ({r.failures}/200): {r.counterexample}")

    # cup associator: (f~g)~h - f~(g~h) = (-1)**deg(g) {mu.mu; f, g, h}
    bad_cases = []
    rng = random.Random(2024)
    for case in range(200):
        d = rng.randint(1, 2)
        mu = random_op(rng, d, 2, ENDO)
        f, g, h = (random_op(rng, d, rng.randint(0, 3), ENDO) for _ in range(3))
        lhs = sub(cup(mu, cup(mu, f, g), h), cup(mu, f, cup(mu, g, h)))
        rhs = scale(sign_pow(g.degree), tetrabrace(mu_squared(mu), f, g, h))
        if lhs != rhs:
            bad_cases.append(case)
    if bad_cases:
        failed.append(
            "cup-associator (f~g)~h - f~(g~h) = (-1)**deg(g) {mu.mu; f, g, h} "
            f"({len(bad_cases)}/200, first at case {bad_cases[0]})"
        )
    assert not failed, "brace-layer identities failing: " + "; ".join(failed)


def test_criterion_3_coboundary_layer():
    failed = []
    checks = [
        ("coboundary-forms-agree", {"max_degree": 4}),
        ("bracket-right-derivation", {}),
        ("adjoint-commutation", {}),
        ("coboundary-square-action", {}),
        ("cup-derivation-deviation", {}),
        ("total-derivation-deviation", {}),
        ("tribrace-derivation-deviation", {}),
        ("bracket-leibniz-deviation", {}),
        ("coboundary-square-zero", {}),  # d*d = 0 under an associative mu
    ]
    for name, overrides in checks:
        r = _run(name, **overrides)
        if not r.passed:
            failed.append(f"{name} ({r.failures}/200): {r.counterexample}")
    assert not failed, "coboundary identities failing: " + "; ".join(failed)


def test_criterion_4_cohomology():
    field = load_algebra(bundled_path("field.json"))
    assert betti_table(field, 3).betti == (1, 0, 0, 0)

    dual = load_algebra(bundled_path("dual_numbers.json"))
    dual_betti = betti_table(dual, 1).betti
    assert dual_betti == (2, 1), f"dual numbers gave {dual_betti}"

    start = time.perf_counter()
    mat2 = load_algebra(bundled_path("mat2.json"))
    mat2_betti = betti_table(mat2, 1).betti
    elapsed = time.perf_counter() - start
    assert mat2_betti == (1, 0), f"matrix algebra gave {mat2_betti}"
    assert elapsed < 60.0, f"matrix algebra table took {elapsed:.1f}s"

    # chain-level exactness with explicit preimages, 50 cases each
    for name in ("cocycle-cup-commutator", "cocycle-leibniz"):
        r = run_suite(name, SuiteConfig(cases=50))
        assert r.passed, f"{name}: {r.counterexample}"


def test_criterion_5_classical_oscillator():
    start = time.perf_counter()
    params = OscillatorParams(omega=2.0, q0=1.0, p0=0.0)
    traj = integrate(oscillator_system(params, 1e-3, 10.0))
    q, p = traj.state.T
    drift = np.abs(hamiltonian(q, p, 2.0) - 2.0)
    assert drift.max() <= 1e-8, f"H drift at t={traj.t[drift.argmax()]}"
    mats = traj.coeffs.reshape(-1, 2, 2)
    drift = np.abs(np.trace(mats @ mats, axis1=1, axis2=2) - 8.0)
    assert drift.max() <= 1e-8, f"trace drift at t={traj.t[drift.argmax()]}"
    m = m_matrix(2.0)
    for t in np.linspace(0.0, 10.0, 1001):
        # dL/dt = ML - LM along the exact trajectory
        q, p = exact_flow(params, float(t))
        rhs = bracket(m, classical_lax(q, p, 2.0))
        dl = classical_lax_time_derivative(params, float(t))
        assert float(op_norm(sub(dl, rhs))) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oscillator run took {elapsed:.1f}s"


def test_criterion_6_operadic_oscillator():
    m = m_matrix(2.0)
    # coordinatewise product: an associative degree-2 initial operation
    l2 = MultiOp(2, 2, ENDO, np.array([1.0, 0, 0, 0, 0, 0, 0, 1.0]))

    traj = integrate(
        LaxSystem(m=m, l0=l2, dt=1e-3, t_end=1.0, observe=("assoc_defect",))
    )
    want = conjugation_oracle(m, l2, 1.0)
    endpoint_err = max_abs_diff(MultiOp(2, 2, ENDO, traj.coeffs[-1]), want)
    assert endpoint_err <= 1e-6, f"endpoint error {endpoint_err:.3e}"
    worst_defect = traj.invariants["assoc_defect"].max()
    assert worst_defect <= 1e-8, f"associativity defect {worst_defect:.3e}"

    errs = []
    for dt in (0.1, 0.05):
        run = integrate(LaxSystem(m=m, l0=l2, dt=dt, t_end=1.0))
        errs.append(max_abs_diff(MultiOp(2, 2, ENDO, run.coeffs[-1]), want))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0, f"halving ratio {ratio:.2f}"

    # period transport: sign flip in even degree, return in odd degrees
    p2 = OscillatorParams(omega=2.0, q0=1.0, p0=0.0, degree=2, l_init=l2)
    assert (
        max_abs_diff(transport_solution(p2, p2.period), scale(-1.0, l2)) <= 1e-10
    )
    p1 = OscillatorParams(omega=2.0, q0=1.0, p0=0.0)
    l1 = classical_lax(1.0, 0.0, 2.0)
    assert max_abs_diff(transport_solution(p1, p1.period), l1) <= 1e-10
    l3 = random_op(random.Random(6), 2, 3, ENDO, FLOAT)
    p3 = OscillatorParams(omega=2.0, q0=1.0, p0=0.0, degree=3, l_init=l3)
    assert max_abs_diff(transport_solution(p3, p3.period), l3) <= 1e-10


def test_criterion_7_cli_determinism(tmp_path):
    l2 = tmp_path / "l2.json"
    l2.write_text(json.dumps({"degree": 2, "coeffs": [1.0, 0, 0, 0, 0, 0, 0, 1.0]}))
    commands = [
        ("verify", "--cases", "3", "--seed", "5"),
        ("verify", "--cases", "3", "--seed", "5", "--format", "machine"),
        ("cohomology", "--algebra", str(bundled_path("dual_numbers.json"))),
        (
            "cohomology",
            "--algebra",
            str(bundled_path("mat2.json")),
            "--format",
            "machine",
        ),
        ("lax", "--system", str(bundled_path("lax_deg1.json")), "--t-end", "0.05"),
        (
            "oscillator",
            "--omega",
            "2",
            "--t-end",
            "0.05",
            "--format",
            "machine",
        ),
        (
            "oscillator",
            "--degree",
            "2",
            "--l-init",
            str(l2),
            "--omega",
            "2",
            "--t-end",
            "0.02",
        ),
    ]
    for args in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "operadics.cli", *args],
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout, f"nondeterministic: {args}"
        assert runs[0].returncode == 0, (args, runs[0].stderr)
