"""Closed-form oracles shared by the oscillator and acceptance tests, the
derivation deviations of the coboundary written out term by term, and the
random draws of random_op one library call per value."""

import math
import random

import numpy as np

from operadics.braces import cup, total_compose, tribrace
from operadics.coboundary import coboundary
from operadics.multiop import ENDO, FLOAT, MultiOp, scale, sub
from operadics.oscillator import OscillatorParams
from operadics.scalars import sign_pow


def exact_flow(params: OscillatorParams, t: float) -> tuple[float, float]:
    """Closed-form trajectory (q(t), p(t)) of the canonical equations."""
    w = params.omega
    c = math.cos(w * t)
    s = math.sin(w * t)
    q = params.q0 * c + (params.p0 / w) * s
    p = params.p0 * c - w * params.q0 * s
    return (q, p)


def classical_lax_time_derivative(params: OscillatorParams, t: float) -> MultiOp:
    """d/dt of L(q(t), p(t)) by exact differentiation of the closed form.

    Entrywise this is [[-w^2 q, w p], [w p, w^2 q]].
    """
    q, p = exact_flow(params, t)
    w = params.omega
    dp = -(w * w) * q
    dq_w = w * p
    return MultiOp(2, 1, ENDO, np.array([dp, dq_w, dq_w, -dp], dtype=np.float64))


def compose_deviation(mu: MultiOp, f: MultiOp, g: MultiOp) -> MultiOp:
    """d(f . g) - f . d g - (-1)**|g| d f . g"""
    return sub(
        sub(
            coboundary(mu, total_compose(f, g)),
            total_compose(f, coboundary(mu, g)),
        ),
        scale(sign_pow(g.reduced_degree), total_compose(coboundary(mu, f), g)),
    )


def brace_deviation(mu: MultiOp, h: MultiOp, f: MultiOp, g: MultiOp) -> MultiOp:
    """d{h,f,g} - {h,f,dg} - (-1)**|g| {h,df,g} - (-1)**(|g|+|f|) {dh,f,g}"""
    out = sub(
        coboundary(mu, tribrace(h, f, g)),
        tribrace(h, f, coboundary(mu, g)),
    )
    out = sub(
        out,
        scale(sign_pow(g.reduced_degree), tribrace(h, coboundary(mu, f), g)),
    )
    return sub(
        out,
        scale(
            sign_pow(g.reduced_degree + f.reduced_degree),
            tribrace(coboundary(mu, h), f, g),
        ),
    )


def cup_deviation(mu: MultiOp, f: MultiOp, g: MultiOp) -> MultiOp:
    """d(f ~ g) - f ~ d g - (-1)**deg(g) d f ~ g"""
    return sub(
        sub(coboundary(mu, cup(mu, f, g)), cup(mu, f, coboundary(mu, g))),
        scale(sign_pow(g.degree), cup(mu, coboundary(mu, f), g)),
    )


def drawn_coefficients(rng: random.Random, size: int, backend: str) -> list:
    """The coefficients random_op draws for size entries: rng.randint(-3, 3)
    per exact entry, rng.uniform(-1.0, 1.0) per float entry."""
    if backend == FLOAT:
        return [rng.uniform(-1.0, 1.0) for _ in range(size)]
    return [rng.randint(-3, 3) for _ in range(size)]
