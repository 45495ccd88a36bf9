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

Every contraction runs on one kernel, the index plan of a brace signature
(dim, deg h, deg g1..deg gk, sign), compiled once.  Stage j gathers, for
every live prefix of insertion points, the slot gj fills as the last axis
of a stack, and one matmul with gj as a (dim, dim**deg gj) matrix computes
the stage.  The last stage gathers from [P, -P], so each term's Koszul sign
is a choice of index.  partial_compose is the plan of one term.  A sum
whose stacks would exceed _STACK_ENTRIES runs in chunks of terms, and only
plans of at most _CACHED_ENTRIES indices are kept.

Exact coefficients are Python ints or Fractions held in object arrays, so
they never overflow; the float backend uses float64.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
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

# Hard cap on the (row, column, value) triplets of a Lax right-hand side; at
# about 48 bytes an entry it keeps a run's triplet arrays near 400 MiB.
MAX_TRIPLETS = 2**23

# Largest stack of terms (gathered operands, products, signed terms) that
# one chunk of a sum builds, in coefficients.
_STACK_ENTRIES = 2**18

# Plans the cache keeps, and the most index entries a kept plan may hold.
_PLAN_CACHE = 512
_CACHED_ENTRIES = 2**15


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
    size = _capped_size(dim, degree)
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
    plan = _compile(d, m, (n,), 1, (i,))
    if isinstance(plan, int):
        plan = _plan(d, m, (n,), 1, [(i,)])
    return MultiOp._wrap(d, m + n - 1, f.variance, _evaluate(plan, f, (g,))[0])


@lru_cache(maxsize=_PLAN_CACHE)
def _compile(d: int, deg_h: int, degs: tuple, sign: int, slots: tuple = ()):
    """The plan of a signature with deg_h >= len(degs), or of its one term at
    the given original slots of h, or, when its stacks or its indices are too
    large to keep, the number of terms per chunk."""
    degree, sizes = deg_h, [d ** (deg_h + 1)]
    for n in degs:
        size = d ** (degree + n)
        if size > SIZE_CAP:
            raise SizeCapError(
                f"composition result needs {size} coefficients, cap is {SIZE_CAP}"
            )
        sizes.append(size)
        degree += n - 1
    count = 1 if slots else math.comb(deg_h, len(degs))
    per_chunk = max(1, _STACK_ENTRIES // (2 * max(sizes)))
    if count <= per_chunk and count * sum(sizes) <= _CACHED_ENTRIES:
        rows = [slots] if slots else list(combinations(range(deg_h), len(degs)))
        return _plan(d, deg_h, degs, sign, rows)
    return per_chunk


def _evaluate(plan, h: MultiOp, gs) -> np.ndarray:
    """The (terms, coefficients) stack of one plan's signed terms."""
    gathers, signed, out = plan
    src = h.coeffs
    for index, g in zip(gathers, gs):
        src = np.matmul(src[index], g.coeffs.reshape(g.dim, -1)).reshape(-1)
    if signed:
        src = np.concatenate((src, -src))
    return src[out]


def _plan(d: int, deg_h: int, degs: tuple, sign: int, rows):
    """Index plan for the terms whose original slots of h are the rows.

    A row i1 < ... < ik of slots of h is the term that inserts gj at the
    shifted point ij + sum of |g| before it.  Each stage keeps, per live
    prefix of insertion points, a layout: the flat position in the stage's
    product of every coefficient of the prefix's partial result.  Returns
    (one gather index per stage, whether any term is negative, output index).
    """
    slots = np.array(rows, dtype=np.intp).reshape(len(rows), len(degs))
    slots += np.cumsum((0,) + tuple(n - 1 for n in degs[:-1]))
    layout = np.arange(d ** (deg_h + 1))[None]
    parent = np.zeros(len(slots), dtype=np.intp)
    gathers = []
    m = deg_h
    for j, n in enumerate(degs):
        new = np.ones(len(slots), dtype=bool)
        new[1:] = (slots[1:, : j + 1] != slots[:-1, : j + 1]).any(axis=1)
        first = np.flatnonzero(new)
        slot = slots[first, j][:, None, None]
        # slot i of a degree-m layout as the last axis: (prefix, rest, slot)
        w = d ** (m - 1 - slot)
        rest = np.arange(d**m)[None, :, None]
        moved = (rest // w) * w * d + np.arange(d)[None, None, :] * w + rest % w
        gathers.append(layout[parent[first][:, None, None], moved].reshape(-1, d))
        # child layout: (a b1..bi, c1..cn, rest) read from the product row
        # (a b1..bi rest, c1..cn) of its prefix
        span, size = d**n, d ** (m + n)
        pos = np.arange(size)[None, :]
        w = w[:, :, 0]
        row = (pos // (span * w)) * w + pos % w
        layout = np.arange(len(first))[:, None] * size + row * span + (pos // w) % span
        parent = np.cumsum(new) - 1
        m += n - 1
    odd = (slots * (np.array(degs) - 1)).sum(axis=1) % 2 == 1
    negative = odd if sign > 0 else ~odd
    signed = bool(negative.any())
    out = layout + negative[:, None] * layout.size if signed else layout
    for index in (*gathers, out):
        index.setflags(write=False)
    return tuple(gathers), signed, out


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
