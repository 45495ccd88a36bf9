"""Dense multilinear operations graded by arity, with partial composition.

A MultiOp of degree n over a d-dimensional module L is stored as a flat
coefficient vector of length d**(n+1).  The first index is the "primary"
one and is most significant in the flat layout:

    flat = a * d**n + b1 * d**(n-1) + ... + bn

For the endomorphism variance the primary index a is the single output of
a map L^(tensor n) -> L, and b1..bn index the inputs.  For the
coendomorphism variance a is the single input of a map L -> L^(tensor n)
and b1..bn index the outputs.  Degree 0 is legal: an endomorphism-variance
degree-0 op is just a vector of L (a map from scalars), with d coefficients.

Partial composition inserts g into slot i of f (slots are 0-based, so
0 <= i <= deg f - 1) and carries the arity Koszul sign (-1)**(i * |g|),
where |g| = deg g - 1 is the reduced degree.  In this flat layout the
endomorphism and coendomorphism contractions coincide: g's primary index
always contracts into slot i of f's secondary block.

Exact coefficients are Python ints or Fractions held in object arrays, so
they never overflow; the float backend uses float64.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    ArityMismatchError,
    BackendMismatchError,
    DegreeMismatchError,
    DimMismatchError,
    ShapeMismatchError,
    SizeCapError,
    SlotOutOfRangeError,
    VarianceMismatchError,
)
from .scalars import sign_pow

ENDO = "endo"
COENDO = "coendo"
VARIANCES = (ENDO, COENDO)

EXACT = "exact"
FLOAT = "float"

# Hard cap on coefficient storage: d**(degree+1) entries.
SIZE_CAP = 65536

# Hard cap on RK4 steps per run (t_end / dt); every step keeps one sample.
MAX_STEPS = 1_000_000

# Hard cap on the values a run keeps: (steps + 1) samples times (state +
# observers + coefficients).  It admits `oscillator --degree 1` at MAX_STEPS
# (7 values a sample) and bounds the trajectory at 128 MiB of float64.
MAX_CELLS = 2**24


# Element types of an exact coefficient array.
_EXACT_TYPES = frozenset((int, Fraction))


def _coefficient_array(values) -> np.ndarray:
    """Coefficients of a Python sequence: float64 if it holds floats, else exact.

    Exact values are kept as Python ints and Fractions; numpy integers become
    ints, so later arithmetic on them cannot wrap.
    """
    has_float = any(isinstance(v, float) for v in values)
    has_exact = any(isinstance(v, Fraction) for v in values)
    if has_float and has_exact:
        raise BackendMismatchError("cannot mix float and Fraction coefficients")
    if has_float:
        return np.array(values, dtype=np.float64)
    exact = [v if isinstance(v, Fraction) else operator.index(v) for v in values]
    return np.array(exact, dtype=object)


def _capped_size(dim: int, degree: int) -> int:
    """dim**(degree+1), the coefficient count; SizeCapError above SIZE_CAP."""
    size = dim ** (degree + 1)
    if size > SIZE_CAP:
        raise SizeCapError(
            f"dim {dim} degree {degree} needs {size} coefficients, cap is {SIZE_CAP}"
        )
    return size


@dataclass(frozen=True, eq=False)
class MultiOp:
    """Immutable degree-n multilinear operation over a d-dimensional module.

    ``backend`` is EXACT for object coefficients and FLOAT for float64; it is
    set once, when the op is made.
    """

    dim: int
    degree: int
    variance: str
    coeffs: np.ndarray
    backend: str = field(init=False)

    def __post_init__(self):
        if self.variance not in VARIANCES:
            raise VarianceMismatchError(f"unknown variance {self.variance!r}")
        if self.dim < 1:
            raise ShapeMismatchError(f"dim must be >= 1, got {self.dim}")
        if self.degree < 0:
            raise ShapeMismatchError(f"degree must be >= 0, got {self.degree}")
        size = _capped_size(self.dim, self.degree)
        arr = self.coeffs
        if not isinstance(arr, np.ndarray):
            arr = _coefficient_array(list(arr))
        elif arr.dtype == object:
            if not _EXACT_TYPES.issuperset(map(type, arr.flat)):
                arr = _coefficient_array(list(arr.flat))
        elif arr.dtype != np.float64:
            if np.issubdtype(arr.dtype, np.integer):
                arr = arr.astype(object)
            elif np.issubdtype(arr.dtype, np.floating):
                arr = arr.astype(np.float64)
            else:
                raise ShapeMismatchError(f"unsupported coefficient dtype {arr.dtype}")
        arr = arr.reshape(-1)
        if arr.size != size:
            raise ShapeMismatchError(
                f"expected {size} coefficients for dim {self.dim} degree "
                f"{self.degree}, got {arr.size}"
            )
        if arr.base is not None or arr is self.coeffs:
            arr = arr.copy()
        arr.setflags(write=False)
        backend = EXACT if arr.dtype.hasobject else FLOAT
        self.__dict__.update(coeffs=arr, backend=backend)

    @classmethod
    def _wrap(cls, dim, degree, variance, arr):
        """Fast internal constructor for object or float64 arrays we already own."""
        op = cls.__new__(cls)
        arr.setflags(write=False)
        op.__dict__.update(
            dim=dim,
            degree=degree,
            variance=variance,
            coeffs=arr,
            backend=EXACT if arr.dtype.hasobject else FLOAT,
        )
        return op

    @property
    def reduced_degree(self) -> int:
        return self.degree - 1

    def __eq__(self, other):
        if not isinstance(other, MultiOp):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.degree == other.degree
            and self.variance == other.variance
            and self.backend == other.backend
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    __hash__ = None

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return scale(-1, self)

    def __rmul__(self, s):
        return scale(s, self)

    def __repr__(self):
        body = np.array2string(self.coeffs, threshold=8)
        return (
            f"MultiOp(dim={self.dim}, degree={self.degree}, "
            f"variance={self.variance!r}, coeffs={body})"
        )


def _common_backend(f: MultiOp, g: MultiOp) -> str:
    if f.backend != g.backend:
        raise BackendMismatchError(
            f"cannot combine {f.backend} and {g.backend} operands"
        )
    return f.backend


def _check_pair(f: MultiOp, g: MultiOp):
    if f.dim != g.dim:
        raise DimMismatchError(f"dim {f.dim} vs {g.dim}")
    if f.variance != g.variance:
        raise VarianceMismatchError(f"{f.variance} vs {g.variance}")
    _common_backend(f, g)


def zero_op(dim: int, degree: int, variance: str = ENDO, backend: str = EXACT) -> MultiOp:
    dtype = np.float64 if backend == FLOAT else object
    return MultiOp(dim, degree, variance, np.zeros(_capped_size(dim, degree), dtype=dtype))


def identity_op(dim: int, variance: str = ENDO, backend: str = EXACT) -> MultiOp:
    """The operadic unit: the degree-1 identity map (Kronecker delta)."""
    dtype = np.float64 if backend == FLOAT else object
    return MultiOp(dim, 1, variance, np.eye(dim, dtype=dtype).reshape(-1))


def is_zero(f: MultiOp) -> bool:
    return not bool(np.any(f.coeffs))


def add(f: MultiOp, g: MultiOp) -> MultiOp:
    _check_pair(f, g)
    if f.degree != g.degree:
        raise DegreeMismatchError(f"degree {f.degree} vs {g.degree}")
    return MultiOp._wrap(f.dim, f.degree, f.variance, f.coeffs + g.coeffs)


def sub(f: MultiOp, g: MultiOp) -> MultiOp:
    return add(f, scale(-1, g))


def scale(s, f: MultiOp) -> MultiOp:
    if f.backend == FLOAT:
        if isinstance(s, Fraction):
            raise BackendMismatchError("Fraction scalar on a float operand")
        s = float(s)
    elif isinstance(s, float):
        raise BackendMismatchError("float scalar on an exact operand")
    return MultiOp._wrap(f.dim, f.degree, f.variance, s * f.coeffs)


def op_norm(f: MultiOp):
    """Max absolute coefficient (exact scalar or float, matching the backend)."""
    value = np.abs(f.coeffs).max()
    return float(value) if f.backend == FLOAT else value


def max_abs_diff(f: MultiOp, g: MultiOp):
    if f.dim != g.dim or f.degree != g.degree or f.variance != g.variance:
        raise ShapeMismatchError("operands are not comparable")
    return op_norm(sub(f, g))


def allclose(f: MultiOp, g: MultiOp, tol: float) -> bool:
    return max_abs_diff(f, g) <= tol


def random_op(
    rng: random.Random,
    dim: int,
    degree: int,
    variance: str = ENDO,
    backend: str = EXACT,
) -> MultiOp:
    """Draw a random op: exact entries uniform in -3..3, float in [-1, 1)."""
    size = dim ** (degree + 1)
    if size > SIZE_CAP:
        raise SizeCapError(f"dim {dim} degree {degree} exceeds the size cap")
    if backend == FLOAT:
        data = np.array([rng.uniform(-1.0, 1.0) for _ in range(size)])
    else:
        data = np.array([rng.randint(-3, 3) for _ in range(size)], dtype=object)
    return MultiOp(dim, degree, variance, data)


def partial_compose(f: MultiOp, g: MultiOp, i: int) -> MultiOp:
    """Insert g into slot i of f, with the sign (-1)**(i * |g|).

    The contraction sums g's primary index against position i of f's
    secondary block; the result has degree deg f + deg g - 1.  Degree-0 f
    has no slots, so composing into it always raises.
    """
    _check_pair(f, g)
    m, n, d = f.degree, g.degree, f.dim
    if m == 0:
        raise SlotOutOfRangeError("cannot compose into a degree-0 operation")
    if not 0 <= i <= m - 1:
        raise SlotOutOfRangeError(f"slot {i} outside 0..{m - 1}")
    size = d ** (m + n)
    if size > SIZE_CAP:
        raise SizeCapError(
            f"composition result needs {size} coefficients, cap is {SIZE_CAP}"
        )
    # (a b1..bi, b(i+2)..bm, slot) @ (slot, g's inputs), then move g's inputs
    # in front of the trailing slots of f
    left = f.coeffs.reshape(d ** (i + 1), d, d ** (m - 1 - i)).transpose(0, 2, 1)
    out = np.matmul(left, g.coeffs.reshape(d, d**n))
    out = np.ascontiguousarray(out.transpose(0, 2, 1)).reshape(size)
    if sign_pow(i * (n - 1)) < 0:
        np.negative(out, out=out)
    return MultiOp._wrap(d, m + n - 1, f.variance, out)


def apply(f: MultiOp, vectors: Sequence[Sequence]) -> np.ndarray:
    """Evaluate an endomorphism-variance op on deg-many vectors of length dim."""
    if f.variance != ENDO:
        raise VarianceMismatchError("apply is defined for the endomorphism variance")
    if len(vectors) != f.degree:
        raise ArityMismatchError(f"expected {f.degree} vectors, got {len(vectors)}")
    d = f.dim
    exact = f.backend == EXACT
    arg = np.ones(1, dtype=object if exact else np.float64)
    for v in vectors:
        vv = np.asarray(v, dtype=object if exact else np.float64).reshape(-1)
        if vv.size != d:
            raise DimMismatchError(f"vector of length {vv.size}, dim is {d}")
        arg = np.kron(arg, vv)
    return f.coeffs.reshape(d, d**f.degree) @ arg
