"""Closed-form oracles shared by the oscillator and acceptance tests."""

import math

import numpy as np

from operadics.multiop import ENDO, MultiOp
from operadics.oscillator import OscillatorParams


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
