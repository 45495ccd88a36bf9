"""Harmonic-oscillator Lax pair and transported higher-degree solutions.

The classical pair on the plane is

    L = [[p, w q], [w q, -p]],     M = [[0, -w/2], [w/2, 0]],

with Hamiltonian H = (p^2 + w^2 q^2) / 2 and canonical flow dq/dt = p,
dp/dt = -w^2 q.  Along the exact trajectory L satisfies dL/dt = ML - LM
identically, and trace(L^2) = 4H, so the flow is isospectral.

A degree-n operadic variable rides the same flow by conjugation with
exp(tM) (transport along characteristics).  One period T = 2 pi / w gives
exp(TM) = -identity, so the transported solution returns to (-1)^(n+1)
times its initial value: odd degrees are periodic, even degrees are
anti-periodic.  That obstruction is reported, never hidden.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .dynamics import LaxSystem, conjugation_oracle
from .errors import (
    ConfigError,
    DegreeMismatchError,
    DimMismatchError,
    MissingInitialOpError,
    NonFiniteError,
)
from .multiop import ENDO, MultiOp, max_abs_diff

# A monodromy defect at most this large reports the solution as periodic.
_PERIODIC_TOL = 1e-8


def classical_lax(q: float, p: float, omega: float) -> MultiOp:
    """The plane Lax matrix [[p, w q], [w q, -p]] as a degree-1 operation."""
    wq = omega * q
    return MultiOp(2, 1, ENDO, np.array([p, wq, wq, -p], dtype=np.float64))


def m_matrix(omega: float) -> MultiOp:
    """The constant rotation generator [[0, -w/2], [w/2, 0]]."""
    half = omega / 2.0
    return MultiOp(2, 1, ENDO, np.array([0.0, -half, half, 0.0], dtype=np.float64))


def hamiltonian(q, p, omega: float):
    """(p^2 + w^2 q^2) / 2, elementwise when q and p are arrays."""
    return 0.5 * (p * p + omega * omega * q * q)


def canonical_flow(q: float, p: float, omega: float) -> tuple[float, float]:
    """(dq/dt, dp/dt) from the canonical equations."""
    return (p, -(omega * omega) * q)


@dataclass(frozen=True)
class OscillatorParams:
    """Frequency, initial phase-space point, and the operadic variable."""

    omega: float
    q0: float
    p0: float
    degree: int = 1
    l_init: MultiOp | None = None

    def __post_init__(self):
        if self.degree >= 2 and self.l_init is None:
            raise MissingInitialOpError(
                "degree >= 2 needs an explicit initial operation (--l-init FILE); "
                "no canonical one exists"
            )
        for name, value in (("omega", self.omega), ("q0", self.q0), ("p0", self.p0)):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not self.omega > 0:
            raise ConfigError(f"omega must be positive, got {self.omega}")
        if self.degree < 1:
            raise ConfigError(f"degree must be >= 1, got {reprlib.repr(self.degree)}")
        if self.l_init is not None:
            if self.l_init.dim != 2:
                raise DimMismatchError("the oscillator lives on a 2-dim module")
            if self.l_init.degree != self.degree:
                raise DegreeMismatchError(
                    f"l_init degree {self.l_init.degree} != declared {self.degree}"
                )

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega


def resolve_l_init(params: OscillatorParams) -> MultiOp:
    """The initial operadic variable; degree 1 defaults to the classical L."""
    if params.l_init is not None:
        return params.l_init
    return classical_lax(params.q0, params.p0, params.omega)


def transport_solution(params: OscillatorParams, t: float) -> MultiOp:
    """The degree-n solution at time t: conjugation transport of l_init."""
    return conjugation_oracle(m_matrix(params.omega), resolve_l_init(params), t)


@dataclass(frozen=True)
class MonodromyReport:
    degree: int
    period: float
    defect: float
    periodic: bool


def monodromy_report(params: OscillatorParams) -> MonodromyReport:
    """Mismatch between the transported solution after one period and l_init.

    Even degrees pick up the sign (-1)^(n+1) = -1 from exp(TM) = -identity,
    so their defect is 2 * op_norm(l_init) for generic initial data.
    """
    l_init = resolve_l_init(params)
    with np.errstate(over="ignore"):
        defect = float(max_abs_diff(transport_solution(params, params.period), l_init))
    if not math.isfinite(defect):
        raise NonFiniteError(f"non-finite monodromy defect {defect}")
    return MonodromyReport(
        degree=params.degree,
        period=params.period,
        defect=defect,
        periodic=defect <= _PERIODIC_TOL,
    )


def oscillator_system(params: OscillatorParams, dt: float, t_end: float) -> LaxSystem:
    """Bundle the oscillator into an integrable system with its (q, p) flow.

    The canonical flow is linear, (dq/dt, dp/dt) = [[0, 1], [-w^2, 0]] (q, p),
    so it rides along as a constant block of the integrator's operator.
    """
    omega = params.omega
    return LaxSystem(
        m=m_matrix(omega),
        l0=resolve_l_init(params),
        dt=dt,
        t_end=t_end,
        observe={1: ("trace2",), 2: ("assoc_defect",)}.get(params.degree, ()),
        state0=(params.q0, params.p0),
        state_matrix=((0.0, 1.0), (-(omega * omega), 0.0)),
    )
