"""Time evolution of operations driven by a constant degree-1 generator.

The evolution equation for an operadic observable f is df/dt = [H, f]; when
the generator is a degree-1 operation M (reduced degree 0) every Koszul sign
collapses and the equation becomes the Lax form dL/dt = M.L - L.M.  This
module provides the right-hand sides, a fixed-step RK4 integrator for the
coupled (classical state, L) system, a closed-form conjugation oracle for
constant M, and the invariant observers used to check isospectrality.

The integrator works on the float backend throughout.  The Lax right-hand
side is linear in L and the classical state follows a constant linear field,
so the whole right-hand side is one sparse linear map on a sample row
(state, L): (row, column, value) triplets, one per (row, column) pair,
built once per run by index arithmetic on M.  On a constant linear field
RK4 is its stability polynomial, so each step is that polynomial in
Horner form.  Small systems, where a dense matrix-vector product costs no
more than four triplet products, apply it as one dense propagator matrix
built once per run; the rest step with four triplet products, the only
form that fits every system under the caps.  A run fills one
preallocated array, a row per sample, and each observer then runs once
over all rows.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .braces import total_compose
from .errors import (
    ConfigError,
    DegreeMismatchError,
    DimMismatchError,
    NonFiniteError,
    ParseError,
    ShapeMismatchError,
    VarianceMismatchError,
)
from .multiop import (
    ENDO,
    MultiOp,
    partial_compose,
    sub,
)
from .scalars import fields, finite, op_values, positive_int, read_json

OBSERVER_NAMES = ("norm", "trace1", "trace2", "trace3", "assoc_defect")

# Hard cap on RK4 steps per run (t_end / dt); every step keeps one sample.
MAX_STEPS = 1_000_000

# Hard cap on the values a run keeps: (steps + 1) samples times (state +
# observers + coefficients).  It admits `oscillator --degree 1` at MAX_STEPS
# (7 values a sample) and bounds the trajectory at 128 MiB of float64.
MAX_CELLS = 2**24

# Hard cap on the (row, column, value) triplets of a Lax right-hand side; at
# about 48 bytes an entry it keeps a run's triplet arrays near 400 MiB.
MAX_TRIPLETS = 2**23


def lax_rhs(m: MultiOp, l: MultiOp) -> MultiOp:
    """dL/dt for a Lax pair: M.L - L.M, valid because |M| = 0.

    For degree-1 L this is the ordinary matrix commutator ML - LM.
    """
    if m.degree != 1:
        raise DegreeMismatchError(f"Lax generator must have degree 1, got {m.degree}")
    return sub(total_compose(m, l), total_compose(l, m))


# Steps integrated between two finiteness checks: a diverging run stops
# within one block of its first non-finite row.
_CHECK_STEPS = 1024

# Degree of L each observer needs; norm takes any degree.
_OBSERVER_DEGREE = {"trace1": 1, "trace2": 1, "trace3": 1, "assoc_defect": 2}

# Coefficients in one block of stacked associators, which bounds the
# temporaries of assoc_defect however many samples a run keeps.
_ASSOC_BLOCK = 1 << 20

# matrix_exp ends its Taylor series at the first term with no entry above this.
_EXP_TOL = 1e-13


def evaluate_observer(name: str, coeffs: np.ndarray, dim: int) -> np.ndarray:
    """One observer over a stack of samples: row j of coeffs is L at sample j.

    norm is the max absolute coefficient, traceK the trace of the K-th matrix
    power of a degree-1 L, and assoc_defect the max absolute coefficient of
    the associator L.L of a degree-2 L.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if name not in OBSERVER_NAMES:
        raise ConfigError(f"unknown observer {reprlib.repr(name)}")
    if coeffs.ndim != 2:
        raise ShapeMismatchError(
            f"observer samples must be rows of a 2-D stack, got {coeffs.ndim}-D"
        )
    degree = _OBSERVER_DEGREE.get(name)
    if degree is not None and coeffs.shape[1] != dim ** (degree + 1):
        raise DegreeMismatchError(f"observer {name!r} needs degree-{degree} L")
    if name == "norm":
        return np.abs(coeffs).max(axis=1)
    if name == "assoc_defect":
        return _assoc_defect(coeffs, dim)
    power = np.linalg.matrix_power(coeffs.reshape(-1, dim, dim), int(name[-1]))
    return np.trace(power, axis1=1, axis2=2)


def _assoc_defect(coeffs: np.ndarray, d: int) -> np.ndarray:
    """max |L o_0 L - L o_1 L| per row, the two products batched over rows."""
    out = np.empty(len(coeffs))
    block = max(1, _ASSOC_BLOCK // d**5)
    for lo in range(0, len(coeffs), block):
        l = coeffs[lo : lo + block].reshape(-1, d, d, d)
        g = l.reshape(-1, 1, d, d * d)
        # L o_0 L at (a, c, b2) is sum_s L[a, s, b2] L[s, c]
        first = np.matmul(l.transpose(0, 1, 3, 2), g).transpose(0, 1, 3, 2)
        # L o_1 L at (a, b1, c) is sum_s L[a, b1, s] L[s, c], with sign -1
        second = np.matmul(l.reshape(-1, d * d, d), g[:, 0])
        diff = first.reshape(len(l), -1) - second.reshape(len(l), -1)
        out[lo : lo + block] = np.abs(diff).max(axis=1)
    return out


@dataclass(frozen=True)
class LaxSystem:
    """A constant generator M, an initial operation L0, and run parameters.

    An optional classical state rides along: state0 is its initial value and
    state_matrix the constant linear vector field on it (d state/dt =
    state_matrix @ state).  L itself only couples to M.
    """

    m: MultiOp
    l0: MultiOp
    dt: float
    t_end: float
    observe: tuple[str, ...] = ()
    state0: tuple[float, ...] = ()
    state_matrix: tuple[tuple[float, ...], ...] = ()

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
                raise ConfigError(f"unknown observer {reprlib.repr(name)}")
            degree = _OBSERVER_DEGREE.get(name, self.l0.degree)
            if degree != self.l0.degree:
                raise DegreeMismatchError(
                    f"observer {name!r} needs degree-{degree} L0, got {self.l0.degree}"
                )
        n = len(self.state0)
        if len(self.state_matrix) != n or any(len(r) != n for r in self.state_matrix):
            raise ConfigError(f"state_matrix must be {n} x {n}, matching state0")
        # checked before the operator or the trajectory is allocated
        per_row = 1 + (self.l0.degree + 1) * (self.m.dim - 1)
        entries = n * n + self.l0.coeffs.size * per_row
        if entries > MAX_TRIPLETS:
            raise ConfigError(f"Lax operator of {entries} triplets, cap is {MAX_TRIPLETS}")
        cells = (self.steps + 1) * (n + len(self.observe) + self.l0.coeffs.size)
        if cells > MAX_CELLS:
            raise ConfigError(
                f"{self.steps + 1} samples of {cells // (self.steps + 1)} values "
                f"are {cells} cells, over the cap of {MAX_CELLS}"
            )

    @property
    def steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True)
class Trajectory:
    """One run as arrays; sample j is at t[j] = j * dt and len() counts samples.

    state and coeffs are column blocks of the one array the integrator
    fills; state has no columns when the system has no classical state.
    invariants maps each observer to its value at every sample.
    """

    t: np.ndarray
    state: np.ndarray
    coeffs: np.ndarray
    invariants: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.t)


def _as_float(op: MultiOp) -> MultiOp:
    if op.coeffs.dtype == np.float64:
        return op
    return MultiOp(op.dim, op.degree, op.variance, op.coeffs.astype(np.float64))


def _rhs_triplets(m: MultiOp, degree: int, state_matrix=()):
    """The whole right-hand side on a sample row (state, L) as sparse triplets.

    Returns (rows, cols, vals, width): the operator maps a row v of width
    entries to np.bincount(rows, vals * v[cols], width), and no dense
    width x width array is made.  The state block, state_matrix, comes
    first.  The L block is L -> M.L - L.M by index arithmetic on the flat
    layout: the output slot takes M[x, y], and each input slot k takes
    -M[y, x], between flat indices that differ only in digit k (x in the
    row, y in the column).  Where y = x every slot lands on the diagonal,
    so each row holds one merged diagonal entry M[x0, x0] - sum_k M[xk, xk]
    and (degree + 1)(d - 1) off-diagonal ones: every (row, col) pair occurs
    once.  All three arrays are filled in place, row by row.
    """
    d = m.dim
    mat = np.asarray(m.coeffs, dtype=np.float64).reshape(d, d)
    ns, size = len(state_matrix), d ** (degree + 1)
    per_row, head = 1 + (degree + 1) * (d - 1), ns * ns
    rows = np.empty(head + size * per_row, dtype=np.intp)
    cols = np.empty_like(rows)
    vals = np.empty(len(rows))
    state = np.arange(ns)
    rows[:head] = np.repeat(state, ns)
    cols[:head] = np.tile(state, ns)
    vals[:head] = np.ravel(state_matrix)
    flat = np.arange(size)
    row = flat + ns
    rows[head:].reshape(size, per_row)[:] = row[:, None]
    col = cols[head:].reshape(size, per_row)
    val = vals[head:].reshape(size, per_row)
    # weight of digit k of a flat index; digit 0 is the output
    place = d ** np.arange(degree, -1, -1)
    x = flat[:, None] // place % d
    diag = np.diagonal(mat)
    col[:, 0] = row
    val[:, 0] = diag[x[:, 0]] - diag[x[:, 1:]].sum(axis=1)
    # slot k moves digit x to y = x + s mod d, s = 1 .. d - 1; y is built in
    # the column block and turned into the column index there
    y = col[:, 1:].reshape(size, degree + 1, d - 1)
    off = val[:, 1:].reshape(size, degree + 1, d - 1)
    np.add(x[:, :, None], np.arange(1, d), out=y)
    y %= d
    off[:, 0] = mat[x[:, :1], y[:, 0]]
    off[:, 1:] = -mat.T[x[:, 1:, None], y[:, 1:]]
    y -= x[:, :, None]
    y *= place[:, None]
    y += row[:, None, None]
    return rows, cols, vals, ns + size


def integrate(system: LaxSystem) -> Trajectory:
    """Fixed-step RK4 on the coupled (state, L) system, sampling every step.

    The right-hand side is a constant linear field y' = Ay, and on such a
    field the classical four-stage RK4 step is exactly its stability
    polynomial, y + hA y + (hA)^2 y / 2 + (hA)^3 y / 6 + (hA)^4 y / 24, in
    Horner form y + hA(y + hA/2 (y + hA/3 (y + hA/4 y))).  Where
    _dense_propagator builds that polynomial as a dense matrix (width^2 <=
    4 * len(rows) and every entry finite), each step is one product with
    it.  Otherwise each step is four products with the sparse triplets of
    _rhs_triplets, whose weights hA/j are scaled once per run: the only
    form that fits large systems, and one that keeps finite the runs whose
    dense matrix overflows.

    Sample j is row j of one preallocated array.  The rows are checked for
    finiteness once per block of _CHECK_STEPS steps, and each observer's
    samples once, under the same silenced overflow warnings.
    """
    rows, cols, vals, width = _rhs_triplets(
        _as_float(system.m), system.l0.degree, system.state_matrix
    )
    ns = len(system.state0)
    dt, steps = system.dt, system.steps
    vals *= dt
    # innermost factor first: hA/4, hA/3, hA/2, hA
    weights = (vals / 4.0, vals / 3.0, vals / 2.0, vals)
    traj = np.empty((steps + 1, width))
    traj[0, :ns] = system.state0
    traj[0, ns:] = system.l0.coeffs
    # overflow surfaces as a NonFiniteError, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        propagator = _dense_propagator(rows, cols, weights, width)
        for start in range(0, steps, _CHECK_STEPS):
            stop = min(start + _CHECK_STEPS, steps)
            if propagator is not None:
                for k in range(start, stop):
                    np.matmul(propagator, traj[k], out=traj[k + 1])
            else:
                for k in range(start, stop):
                    y = u = traj[k]
                    for w in weights:
                        terms = u[cols]
                        terms *= w
                        u = y + np.bincount(rows, terms, width)
                    traj[k + 1] = u
            require_finite(traj[start : stop + 1], dt, "coefficients", start)
        coeffs = traj[:, ns:]
        invariants = {
            n: evaluate_observer(n, coeffs, system.m.dim) for n in system.observe
        }
        for name, values in invariants.items():
            require_finite(values, dt, f"observer {name!r}")
    return Trajectory(
        t=np.arange(steps + 1) * dt,
        state=traj[:, :ns],
        coeffs=coeffs,
        invariants=invariants,
    )


def _dense_propagator(rows, cols, weights, width):
    """R = I + hA(I + hA/2 (I + hA/3 (I + hA/4))) from the Horner weights.

    R is built only when width^2 <= 4 * len(rows), where one dense product
    costs no more multiply-adds than the four triplet products; that keeps
    it to about 51 columns, while a dense operator of a system at the caps
    could take 32 GiB.  None otherwise, and None when R has a non-finite
    entry: the triplet steps keep such runs finite (an infinite entry times
    a zero coefficient would be nan).  Each (row, col) pair occurs once in
    the triplets, so the weights are placed rather than summed.
    """
    if width * width > 4 * len(rows):
        return None
    eye = np.eye(width)
    out = eye
    factor = np.zeros((width, width))
    for w in weights:
        factor[rows, cols] = w
        out = eye + factor @ out
    return out if np.isfinite(out).all() else None


def require_finite(samples: np.ndarray, dt: float, what: str, start: int = 0):
    """Raise NonFiniteError at the first sample with a non-finite value; row
    j of samples is sample start + j, at t = (start + j) * dt."""
    finite = np.isfinite(samples).reshape(len(samples), -1).all(axis=1)
    if not finite.all():
        first = start + int(finite.argmin())
        raise NonFiniteError(f"non-finite {what} at t = {first * dt}")


def matrix_exp(a: np.ndarray) -> np.ndarray:
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
        if float(np.abs(term).max()) <= _EXP_TOL:
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
    return _op_from_doc(read_json(path), dim, "initial operation")


def _op_from_doc(doc, dim: int, what: str) -> MultiOp:
    degree, coeffs = fields(doc, what, "degree", "coeffs")
    degree = positive_int(degree, f"{what} degree")
    values = op_values(coeffs, dim, degree, what, finite)
    return MultiOp(dim, degree, ENDO, np.array(values, dtype=np.float64))


def load_lax_system(path) -> LaxSystem:
    """Read a Lax run description from JSON.

    Expected shape: {"dim": d, "M": [d*d floats], "L0": {"degree", "coeffs"},
    "dt": h, "t_end": T, "observe": [names]}.
    """
    doc = read_json(path)
    dim, m, l0, dt, t_end = fields(doc, "system file", "dim", "M", "L0", "dt", "t_end")
    dim = positive_int(dim, "'dim'")
    m = MultiOp(dim, 1, ENDO, np.array(op_values(m, dim, 1, "'M'", finite)))
    l0 = _op_from_doc(l0, dim, "'L0'")
    dt = finite(dt, "'dt'")
    t_end = finite(t_end, "'t_end'")
    if not dt > 0:
        raise ParseError("'dt' must be a positive number")
    if t_end < dt:
        raise ParseError("'t_end' must be a number >= dt")
    observe = doc.get("observe", [])
    if not isinstance(observe, list) or not all(isinstance(s, str) for s in observe):
        raise ParseError("'observe' must be a list of observer names")
    for name in observe:
        if name not in OBSERVER_NAMES:
            raise ParseError(f"unknown observer {reprlib.repr(name)} in system file")
    return LaxSystem(m=m, l0=l0, dt=dt, t_end=t_end, observe=tuple(observe))
