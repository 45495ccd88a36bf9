"""Coboundary operator: frozen low-degree values and derivation identities."""

import random

import numpy as np
import pytest

import oracles
from operadics.braces import bracket, mu_squared
from operadics.coboundary import (
    adjoint_action,
    brace_deviation,
    coboundary,
    coboundary_square,
    coboundary_via_unit,
    compose_deviation,
    cup_deviation,
)
from operadics.errors import OperadError
from operadics.cohomology import load_algebra
from operadics.bundled import bundled_path
from operadics.multiop import (
    ENDO,
    EXACT,
    FLOAT,
    MultiOp,
    apply,
    identity_op,
    is_zero,
    random_op,
    scale,
    sub,
)
from operadics.scalars import sign_pow
from operadics.verify import diagonal_mu


def _scalar(value, degree):
    return MultiOp(1, degree, ENDO, np.array([value], dtype=np.int64))


# --- frozen values -------------------------------------------------------


def test_coboundary_of_unit_is_minus_mu():
    for d in (1, 2, 3):
        rng = random.Random(d)
        mu = random_op(rng, d, 2, ENDO)
        assert coboundary(mu, identity_op(d)) == scale(-1, mu)


def test_coboundary_square_of_unit_is_minus_two_mu_squared():
    rng = random.Random(9)
    mu = random_op(rng, 2, 2, ENDO)
    got = coboundary_square(mu, identity_op(2))
    assert got == scale(-2, mu_squared(mu))


def test_adjoint_action_of_unit_is_reduced_degree():
    rng = random.Random(4)
    unit = identity_op(2)
    for deg in range(4):
        x = random_op(rng, 2, deg, ENDO)
        assert adjoint_action(unit, x) == scale(deg - 1, x)


def test_scalar_degree_one_coboundary_frozen():
    # dim 1, mu = 1: d c = -c for a degree-1 scalar, 0 in degrees 0 and 2
    mu = _scalar(1, 2)
    assert coboundary(mu, _scalar(5, 1)).coeffs[0] == -5
    assert is_zero(coboundary(mu, _scalar(5, 0)))
    assert is_zero(coboundary(mu, _scalar(5, 2)))


def test_degree_zero_coboundary_evaluates_to_a_commutator():
    # (d c)(a) = c a - a c in the algebra defined by mu
    spec = load_algebra(bundled_path("mat2.json"))
    mu = spec.mu
    rng = random.Random(12)
    for _ in range(10):
        c = random_op(rng, 4, 0, ENDO)
        a = [rng.randint(-2, 2) for _ in range(4)]
        dc = coboundary(mu, c)
        want = apply(mu, [list(c.coeffs), a]) - apply(mu, [a, list(c.coeffs)])
        assert apply(dc, [a]).tolist() == want.tolist()


# --- the two formulas agree ----------------------------------------------


def test_both_coboundary_forms_agree_through_degree_four():
    for seed in range(120):
        rng = random.Random(seed)
        d = rng.randint(1, 2)
        mu = random_op(rng, d, 2, ENDO)
        f = random_op(rng, d, seed % 5, ENDO)  # degrees 0..4
        assert coboundary(mu, f) == coboundary_via_unit(mu, f), f"seed {seed}"


# --- derivation structure --------------------------------------------------


def test_bracket_right_derivation():
    # d[f,g] = (-1)**|g| [d f, g] + [f, d g]
    for seed in range(100):
        rng = random.Random(seed)
        d = rng.randint(1, 2)
        mu = random_op(rng, d, 2, ENDO)
        deg_f = rng.randint(0, 3)
        deg_g = rng.randint(max(0, 1 - deg_f), 3)
        f = random_op(rng, d, deg_f, ENDO)
        g = random_op(rng, d, deg_g, ENDO)
        lhs = coboundary(mu, bracket(f, g))
        rhs = scale(
            sign_pow(g.reduced_degree), bracket(coboundary(mu, f), g)
        ) + bracket(f, coboundary(mu, g))
        assert lhs == rhs, f"seed {seed}"


def test_adjoint_actions_commute_into_the_reversed_bracket():
    # [ad_f, ad_g] x = ad_[g,f] x
    for seed in range(100):
        rng = random.Random(seed)
        d = rng.randint(1, 2)
        f = random_op(rng, d, rng.randint(1, 3), ENDO)
        g = random_op(rng, d, rng.randint(1, 3), ENDO)
        x = random_op(rng, d, rng.randint(0, 3), ENDO)
        sign = sign_pow(f.reduced_degree * g.reduced_degree)
        lhs = sub(
            adjoint_action(f, adjoint_action(g, x)),
            scale(sign, adjoint_action(g, adjoint_action(f, x))),
        )
        assert lhs == adjoint_action(bracket(g, f), x), f"seed {seed}"


def test_coboundary_square_is_the_mu_squared_action():
    for seed in range(100):
        rng = random.Random(seed)
        d = rng.randint(1, 2)
        mu = random_op(rng, d, 2, ENDO)
        f = random_op(rng, d, rng.randint(0, 3), ENDO)
        assert coboundary_square(mu, f) == adjoint_action(
            mu_squared(mu), f
        ), f"seed {seed}"


def test_coboundary_squares_to_zero_for_associative_mu():
    for d in (1, 2, 3):
        mu = diagonal_mu(d)
        assert is_zero(mu_squared(mu))
        rng = random.Random(d)
        for deg in range(4):
            f = random_op(rng, d, deg, ENDO)
            assert is_zero(coboundary_square(mu, f))
    spec = load_algebra(bundled_path("dual_numbers.json"))
    rng = random.Random(0)
    for deg in range(4):
        f = random_op(rng, 2, deg, ENDO)
        assert is_zero(coboundary_square(spec.mu, f))


def test_cup_deviation_is_the_signed_tribrace_of_mu_squared():
    from operadics.braces import tribrace

    for seed in range(100):
        rng = random.Random(seed)
        d = rng.randint(1, 2)
        mu = random_op(rng, d, 2, ENDO)
        f = random_op(rng, d, rng.randint(0, 3), ENDO)
        g = random_op(rng, d, rng.randint(0, 3), ENDO)
        lhs = cup_deviation(mu, f, g)
        rhs = scale(sign_pow(g.degree), tribrace(mu_squared(mu), f, g))
        assert lhs == rhs, f"seed {seed}"


def test_compose_deviation_is_the_cup_commutator():
    # (-1)**deg(g) (d(f.g) - f.d g - (-1)**|g| d f.g) = f~g - (-1)**(fg) g~f
    from operadics.braces import cup

    for seed in range(100):
        rng = random.Random(seed)
        d = rng.randint(1, 2)
        mu = random_op(rng, d, 2, ENDO)
        deg_f = rng.randint(0, 3)
        deg_g = rng.randint(max(0, 1 - deg_f), 3)
        f = random_op(rng, d, deg_f, ENDO)
        g = random_op(rng, d, deg_g, ENDO)
        lhs = scale(sign_pow(g.degree), compose_deviation(mu, f, g))
        # cup commutativity carries the full-degree sign, not the reduced one
        rhs = sub(
            cup(mu, f, g),
            scale(sign_pow(f.degree * g.degree), cup(mu, g, f)),
        )
        assert lhs == rhs, f"seed {seed}"


def test_cup_deviation_vanishes_when_mu_is_associative():
    # the other two deviations stay nonzero even then: they measure the
    # non-commutativity of the cup product, not the failure of mu
    mu = diagonal_mu(2)
    rng = random.Random(21)
    for _ in range(40):
        f = random_op(rng, 2, rng.randint(0, 3), ENDO)
        g = random_op(rng, 2, rng.randint(0, 3), ENDO)
        assert is_zero(cup_deviation(mu, f, g))


def _outcome(deviation, *ops):
    """(coeffs, degree, backend) of a deviation, or the error it raises; the
    coefficients by repr, so that -0.0 and 0.0 or 1 and Fraction(1) differ."""
    try:
        out = deviation(*ops)
    except OperadError as exc:
        return type(exc), str(exc)
    return repr(out.coeffs.tolist()), out.degree, out.backend


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_deviations_equal_their_term_by_term_oracles(backend):
    # bit for bit: the same terms are added in the same order, so float
    # results and the errors of underflowing degrees agree exactly too
    for seed in range(120):
        rng = random.Random(seed)
        d = rng.randint(1, 3)
        mu = random_op(rng, d, 2, ENDO, backend)
        h, f, g = (random_op(rng, d, rng.randint(0, 3), ENDO, backend) for _ in range(3))
        for deviation, oracle, ops in [
            (compose_deviation, oracles.compose_deviation, (mu, f, g)),
            (brace_deviation, oracles.brace_deviation, (mu, h, f, g)),
            (cup_deviation, oracles.cup_deviation, (mu, f, g)),
        ]:
            assert _outcome(deviation, *ops) == _outcome(oracle, *ops), f"seed {seed}"
