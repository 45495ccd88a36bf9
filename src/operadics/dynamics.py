"""Time evolution of operations driven by a constant degree-1 generator.

The evolution equation for an operadic observable f is df/dt = [H, f]; when
the generator is a degree-1 operation M (reduced degree 0) every Koszul sign
collapses and the equation becomes the Lax form dL/dt = M.L - L.M.  This
module provides the right-hand sides, a fixed-step RK4 integrator for the
coupled (classical state, L) system, a closed-form conjugation oracle for
constant M, and the invariant monitors used to check isospectrality.

The integrator works on the float backend throughout.  Since the Lax
right-hand side is linear in L, it is applied as a precomputed matrix on the
coefficient vector; the matrix is built once per run from the same partial
compositions, so the result is deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .braces import mu_squared, total_compose
from .errors import (
    ConfigError,
    DegreeMismatchError,
    DimMismatchError,
    NonFiniteError,
    ParseError,
    VarianceMismatchError,
)
from .multiop import ENDO, MAX_STEPS, SIZE_CAP, MultiOp, op_norm, partial_compose, sub

OBSERVER_NAMES = ("norm", "trace1", "trace2", "trace3", "assoc_defect")


def lax_rhs(m: MultiOp, l: MultiOp) -> MultiOp:
    """dL/dt for a Lax pair: M.L - L.M, valid because |M| = 0.

    For degree-1 L this is the ordinary matrix commutator ML - LM.
    """
    if m.degree != 1:
        raise DegreeMismatchError(f"Lax generator must have degree 1, got {m.degree}")
    return sub(total_compose(m, l), total_compose(l, m))


def monitor_trace_power(l: MultiOp, k: int) -> float:
    """Trace of the k-th matrix power of a degree-1 operation."""
    if l.degree != 1:
        raise DegreeMismatchError("trace powers need a degree-1 operation")
    mat = np.asarray(l.coeffs, dtype=np.float64).reshape(l.dim, l.dim)
    return float(np.trace(np.linalg.matrix_power(mat, k)))


def monitor_associator(l: MultiOp) -> float:
    """Norm of the associator tensor of a degree-2 operation."""
    if l.degree != 2:
        raise DegreeMismatchError("the associator monitor needs a degree-2 operation")
    return float(op_norm(mu_squared(_as_float(l))))


def evaluate_observer(name: str, l: MultiOp) -> float:
    if name == "norm":
        return float(op_norm(l))
    if name in ("trace1", "trace2", "trace3"):
        return monitor_trace_power(l, int(name[-1]))
    if name == "assoc_defect":
        return monitor_associator(l)
    raise ConfigError(f"unknown observer {name!r}")


@dataclass(frozen=True)
class LaxSystem:
    """A constant generator M, an initial operation L0, and run parameters.

    The optional classical state (q, p) is integrated alongside L using the
    supplied vector field; L itself only couples to M.
    """

    m: MultiOp
    l0: MultiOp
    dt: float
    t_end: float
    observe: tuple[str, ...] = ()
    state0: tuple[float, float] | None = None
    state_rhs: Callable[[float, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.m.degree != 1:
            raise DegreeMismatchError("the generator M must have degree 1")
        if self.l0.degree < 1:
            raise DegreeMismatchError("L0 must have degree >= 1")
        if self.m.dim != self.l0.dim:
            raise DimMismatchError(f"dim {self.m.dim} vs {self.l0.dim}")
        if self.m.variance != ENDO or self.l0.variance != ENDO:
            raise VarianceMismatchError("Lax systems use the endomorphism variance")
        if not 0 < self.dt < math.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not self.dt <= self.t_end < math.inf:
            raise ConfigError(
                f"t_end must be finite and at least dt, got {self.t_end}"
            )
        if self.t_end / self.dt > MAX_STEPS:
            raise ConfigError(
                f"t_end / dt = {self.t_end / self.dt:g} exceeds the cap of "
                f"{MAX_STEPS} steps"
            )
        for name in self.observe:
            if name not in OBSERVER_NAMES:
                raise ConfigError(f"unknown observer {name!r}")
        if (self.state0 is None) != (self.state_rhs is None):
            raise ConfigError("state0 and state_rhs must be supplied together")


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    state: tuple[float, float] | None
    l: MultiOp
    invariants: dict[str, float] = field(default_factory=dict)


def _as_float(op: MultiOp) -> MultiOp:
    if op.coeffs.dtype == np.float64:
        return op
    return MultiOp(op.dim, op.degree, op.variance, op.coeffs.astype(np.float64))


def _rhs_matrix(m: MultiOp, degree: int) -> np.ndarray:
    """Matrix of L -> M.L - L.M on the flat coefficient space."""
    d = m.dim
    size = d ** (degree + 1)
    out = np.empty((size, size), dtype=np.float64)
    basis = np.zeros(size, dtype=np.float64)
    for c in range(size):
        basis[c] = 1.0
        e = MultiOp(d, degree, ENDO, basis)
        out[:, c] = lax_rhs(m, e).coeffs
        basis[c] = 0.0
    return out


def integrate(system: LaxSystem) -> list[TrajectorySample]:
    """Fixed-step RK4 on the coupled (state, L) system, sampling every step."""
    mf = _as_float(system.m)
    degree = system.l0.degree
    rhs_mat = _rhs_matrix(mf, degree)
    y = np.array(system.l0.coeffs, dtype=np.float64)
    state = None if system.state0 is None else np.array(system.state0, np.float64)
    srhs = system.state_rhs
    dt = system.dt
    # LaxSystem guarantees 1 <= steps <= MAX_STEPS
    steps = int(round(system.t_end / dt))

    def snapshot(t: float, state_vec, coeffs) -> TrajectorySample:
        l = MultiOp._wrap(mf.dim, degree, ENDO, coeffs.copy())
        invariants = {name: evaluate_observer(name, l) for name in system.observe}
        state_out = None if state_vec is None else (state_vec[0], state_vec[1])
        return TrajectorySample(t=t, state=state_out, l=l, invariants=invariants)

    samples = [snapshot(0.0, state, y)]
    half = dt / 2.0
    # overflow surfaces as the NonFiniteError below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            t0 = (k - 1) * dt
            k1 = rhs_mat @ y
            k2 = rhs_mat @ (y + half * k1)
            k3 = rhs_mat @ (y + half * k2)
            k4 = rhs_mat @ (y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if state is not None:
                s1 = srhs(t0, state)
                s2 = srhs(t0 + half, state + half * s1)
                s3 = srhs(t0 + half, state + half * s2)
                s4 = srhs(t0 + dt, state + dt * s3)
                state = state + (dt / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
            t = k * dt
            if not np.isfinite(y).all() or (
                state is not None and not np.isfinite(state).all()
            ):
                raise NonFiniteError(f"non-finite coefficients at t = {t}")
            samples.append(snapshot(t, state, y))
    return samples


def matrix_exp(a: np.ndarray, tol: float = 1e-13) -> np.ndarray:
    """Dense matrix exponential by scaling-and-squaring of the Taylor series."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    norm = float(np.abs(a).sum(axis=1).max()) if a.size else 0.0
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm))) + 1
    b = a / (2.0**squarings)
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, 64):
        term = term @ b / k
        out = out + term
        if float(np.abs(term).max()) <= tol:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def conjugation_oracle(m: MultiOp, l0: MultiOp, t: float) -> MultiOp:
    """Closed-form solution exp(tM) o L0 o exp(-tM) on every input slot.

    Valid for constant degree-1 M; differentiating in t reproduces lax_rhs.
    All the composition signs are +1 because |M| = 0.
    """
    if m.degree != 1:
        raise DegreeMismatchError("the conjugation oracle needs a degree-1 M")
    d = m.dim
    mat = np.asarray(m.coeffs, dtype=np.float64).reshape(d, d)
    forward = MultiOp(d, 1, l0.variance, matrix_exp(t * mat).reshape(-1))
    backward = MultiOp(d, 1, l0.variance, matrix_exp(-t * mat).reshape(-1))
    out = partial_compose(forward, _as_float(l0), 0)
    for i in range(l0.degree):
        out = partial_compose(out, backward, i)
    if not np.isfinite(out.coeffs).all():
        raise NonFiniteError("non-finite coefficients in the conjugation oracle")
    return out


def load_initial_op(path, dim: int) -> MultiOp:
    """Read a float operation from a JSON file {"degree": n, "coeffs": [...]}."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # also Python's limit on integer literal digits
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
    return _op_from_doc(doc, dim, "initial operation")


def _op_from_doc(doc, dim: int, what: str) -> MultiOp:
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    try:
        degree = doc["degree"]
        coeffs = doc["coeffs"]
    except KeyError as exc:
        raise ParseError(f"{what} is missing key {exc}") from None
    if not isinstance(degree, int) or degree < 1:
        raise ParseError(f"{what} degree must be a positive integer")
    # bounded before dim ** (degree + 1) is computed or degree is printed
    if degree >= SIZE_CAP or dim ** (degree + 1) > SIZE_CAP:
        raise ParseError(f"{what} degree is too large for dim {dim} (cap {SIZE_CAP})")
    if not isinstance(coeffs, list) or len(coeffs) != dim ** (degree + 1):
        raise ParseError(
            f"{what} needs {dim ** (degree + 1)} coefficients for degree {degree}"
        )
    values = [_finite(v, what) for v in coeffs]
    return MultiOp(dim, degree, ENDO, np.array(values, dtype=np.float64))


def _finite(value, what: str) -> float:
    """A JSON number as a finite float; NaN, infinities and overflow are errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{what}: {value!r} is not a number")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ParseError(f"{what}: {out} is not finite")
    return out


def load_lax_system(path) -> LaxSystem:
    """Read a Lax run description from JSON.

    Expected shape: {"dim": d, "M": [d*d floats], "L0": {"degree", "coeffs"},
    "dt": h, "t_end": T, "observe": [names]}.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # also Python's limit on integer literal digits
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("system file must contain a JSON object")
    for key in ("dim", "M", "L0", "dt", "t_end"):
        if key not in doc:
            raise ParseError(f"system file is missing key '{key}'")
    dim = doc["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ParseError("'dim' must be a positive integer")
    if dim * dim > SIZE_CAP:
        raise ParseError(f"'M' for this 'dim' needs more than {SIZE_CAP} coefficients")
    raw_m = doc["M"]
    if not isinstance(raw_m, list) or len(raw_m) != dim * dim:
        raise ParseError(f"'M' must list {dim * dim} coefficients")
    m = MultiOp(dim, 1, ENDO, np.array([_finite(v, "'M'") for v in raw_m], np.float64))
    l0 = _op_from_doc(doc["L0"], dim, "'L0'")
    dt = _finite(doc["dt"], "'dt'")
    t_end = _finite(doc["t_end"], "'t_end'")
    if not dt > 0:
        raise ParseError("'dt' must be a positive number")
    if t_end < dt:
        raise ParseError("'t_end' must be a number >= dt")
    observe = doc.get("observe", [])
    if not isinstance(observe, list) or not all(isinstance(s, str) for s in observe):
        raise ParseError("'observe' must be a list of observer names")
    for name in observe:
        if name not in OBSERVER_NAMES:
            raise ParseError(f"unknown observer {name!r} in system file")
    return LaxSystem(m=m, l0=l0, dt=dt, t_end=t_end, observe=tuple(observe))
