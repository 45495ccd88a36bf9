"""Closed-form oracles shared by the oscillator and acceptance tests."""

import numpy as np

from operadics.multiop import ENDO, MultiOp
from operadics.oscillator import OscillatorParams, exact_flow


def classical_lax_time_derivative(params: OscillatorParams, t: float) -> MultiOp:
    """d/dt of L(q(t), p(t)) by exact differentiation of the closed form.

    Entrywise this is [[-w^2 q, w p], [w p, w^2 q]].
    """
    q, p = exact_flow(params, t)
    w = params.omega
    dp = -(w * w) * q
    dq_w = w * p
    return MultiOp(2, 1, ENDO, np.array([dp, dq_w, dq_w, -dp], dtype=np.float64))
