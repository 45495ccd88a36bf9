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
the stage.  A plan with terms of both signs gathers its last stage from
[P, -P], so each term's Koszul sign is a choice of index; a plan whose
terms are all negative gathers from P and negates the result in place.
partial_compose is the plan of one term.  A sum whose stacks would exceed
_STACK_ENTRIES runs in chunks of terms, and only plans of at most
_CACHED_ENTRIES indices are kept.

Exact coefficients never overflow.  An exact op whose entries are all ints
holds them as int64 together with a Python-int bound on their magnitude; a
contraction's bound is bound(h) * prod(bound(gj) * dim) * terms, a sum's is
the sum of the bounds, and scaling by k multiplies it by |k|.  Contractions,
add, scale, == and is_zero run on int64 while the result's bound stays below
_INT_LIMIT; Fractions, larger values and larger results take Python ints and
Fractions in object arrays.  Every exact op gets its form when it is made:
_coefficients decides it for given coefficients, and results carry their
bounds.  The public coeffs of an exact op is always an object array of Python
ints and Fractions, made on first read for an int64 op.  The float backend
uses float64.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, islice
from typing import Sequence

import numpy as np

from .errors import (
    ArityMismatchError,
    BackendMismatchError,
    DegreeMismatchError,
    DegreeUnderflowError,
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

# Largest stack of terms (gathered operands, products, signed terms) that
# one chunk of a sum builds, in coefficients.
_STACK_ENTRIES = 2**18

# Plans the cache keeps, and the most index entries a kept plan may hold.
_PLAN_CACHE = 512
_CACHED_ENTRIES = 2**15

# Exact arithmetic runs on int64 while the bound of its result is below this.
_INT_LIMIT = 2**62


def _coefficients(values: list):
    """The coefficient array of a list of values, and the bound of its int64
    form: the one place that decides the form of given coefficients.

    Any float, numpy floats included, makes float64 coefficients, with bound
    None; a float mixed with a Fraction is a BackendMismatchError.  Otherwise
    integral Fractions and numpy integers become Python ints.  Ints that are
    all below _INT_LIMIT in magnitude are held as int64 with their largest
    magnitude as bound; any other exact values as an object array, with bound
    None.  A value of any other type is a ShapeMismatchError.
    """
    kinds = set(map(type, values))
    if not kinds <= {int}:
        for v in values:
            if not isinstance(v, (int, Fraction, float, np.integer, np.floating)):
                raise ShapeMismatchError(
                    f"coefficient of type {type(v).__name__}: int, Fraction or float expected"
                )
        if any(issubclass(k, (float, np.floating)) for k in kinds):
            if any(issubclass(k, Fraction) for k in kinds):
                raise BackendMismatchError("cannot mix float and Fraction coefficients")
            return np.array(values, dtype=np.float64), None
        values = [int(v) if v.denominator == 1 else v for v in values]
        kinds = set(map(type, values))
    bound = max(map(abs, values), default=0)
    if kinds <= {int} and bound < _INT_LIMIT:
        return np.array(values, dtype=np.int64), bound
    return np.array(values, dtype=object), None


def _checked_size(dim: int, degree: int, variance: str) -> int:
    """The coefficient count dim**(degree+1) of a valid shape within SIZE_CAP."""
    if variance not in VARIANCES:
        raise VarianceMismatchError(f"unknown variance {variance!r}")
    if dim < 1:
        raise ShapeMismatchError(f"dim must be >= 1, got {dim}")
    if degree < 0:
        raise ShapeMismatchError(f"degree must be >= 0, got {degree}")
    size = dim ** (degree + 1)
    if size > SIZE_CAP:
        raise SizeCapError(
            f"dim {dim} degree {degree} needs {size} coefficients, cap is {SIZE_CAP}"
        )
    return size


class MultiOp:
    """Immutable degree-n multilinear operation over a d-dimensional module.

    ``backend`` is EXACT for exact coefficients and FLOAT for float64.  Both
    it and ``_ints``, the (int64 coefficients, bound) of an exact op on the
    int64 path or else None, are set when the op is made; an int64 op makes
    its object ``coeffs`` on first read.
    """

    def __init__(self, dim: int, degree: int, variance: str, coeffs):
        size = _checked_size(dim, degree, variance)
        if not isinstance(coeffs, np.ndarray):
            arr, bound = _coefficients(list(coeffs))
        elif coeffs.dtype == object or np.issubdtype(coeffs.dtype, np.integer):
            arr, bound = _coefficients(coeffs.reshape(-1).tolist())
        elif np.issubdtype(coeffs.dtype, np.floating):
            arr, bound = coeffs.astype(np.float64).reshape(-1), None
        else:
            raise ShapeMismatchError(f"unsupported coefficient dtype {coeffs.dtype}")
        if arr.size != size:
            raise ShapeMismatchError(
                f"expected {size} coefficients for dim {dim} degree "
                f"{degree}, got {arr.size}"
            )
        self.__dict__.update(vars(self._wrap(dim, degree, variance, arr, bound)))

    @classmethod
    def _wrap(cls, dim, degree, variance, arr, bound=None):
        """Fast internal constructor for arrays we already own: object or
        float64, or int64 whose entries are at most bound in magnitude."""
        op = cls.__new__(cls)
        arr.setflags(write=False)
        if bound is None:
            backend = EXACT if arr.dtype.hasobject else FLOAT
            op.__dict__.update(
                dim=dim, degree=degree, variance=variance, coeffs=arr, backend=backend, _ints=None
            )
        else:
            op.__dict__.update(
                dim=dim, degree=degree, variance=variance, backend=EXACT, _ints=(arr, bound)
            )
        return op

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @cached_property
    def coeffs(self) -> np.ndarray:
        # Only an int64 op gets here: every other op is made with its coeffs.
        arr = self._ints[0].astype(object)
        arr.setflags(write=False)
        return arr

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
            and bool(np.array_equal(*_arrays((self, other))))
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


def _arrays(ops) -> list:
    """The ops' int64 coefficients when all have them, else their coeffs."""
    ints = [op._ints for op in ops]
    if None in ints:
        return [op.coeffs for op in ops]
    return [pair[0] for pair in ints]


def _check_pair(f: MultiOp, g: MultiOp):
    if f.dim != g.dim:
        raise DimMismatchError(f"dim {f.dim} vs {g.dim}")
    if f.variance != g.variance:
        raise VarianceMismatchError(f"{f.variance} vs {g.variance}")
    if f.backend != g.backend:
        raise BackendMismatchError(
            f"cannot combine {f.backend} and {g.backend} operands"
        )


def zero_op(dim: int, degree: int, variance: str = ENDO, backend: str = EXACT) -> MultiOp:
    size = _checked_size(dim, degree, variance)
    if backend == FLOAT:
        return MultiOp._wrap(dim, degree, variance, np.zeros(size))
    return MultiOp._wrap(dim, degree, variance, np.zeros(size, np.int64), 0)


def identity_op(dim: int, variance: str = ENDO, backend: str = EXACT) -> MultiOp:
    """The operadic unit: the degree-1 identity map (Kronecker delta)."""
    _checked_size(dim, 1, variance)
    if backend == FLOAT:
        return MultiOp._wrap(dim, 1, variance, np.eye(dim).reshape(-1))
    return MultiOp._wrap(dim, 1, variance, np.eye(dim, dtype=np.int64).reshape(-1), 1)


def is_zero(f: MultiOp) -> bool:
    return not bool(np.any(_arrays((f,))[0]))


def add(f: MultiOp, g: MultiOp) -> MultiOp:
    _check_pair(f, g)
    if f.degree != g.degree:
        raise DegreeMismatchError(f"degree {f.degree} vs {g.degree}")
    a, b = f._ints, g._ints
    if a is not None and b is not None and a[1] + b[1] < _INT_LIMIT:
        return MultiOp._wrap(f.dim, f.degree, f.variance, a[0] + b[0], a[1] + b[1])
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
    elif isinstance(s, (int, np.integer)) and f._ints is not None:
        k, (arr, bound) = operator.index(s), f._ints
        if abs(k) < _INT_LIMIT and abs(k) * bound < _INT_LIMIT:
            return MultiOp._wrap(f.dim, f.degree, f.variance, k * arr, abs(k) * bound)
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
    size = _checked_size(dim, degree, variance)
    if backend == FLOAT:
        data = np.array([rng.uniform(-1.0, 1.0) for _ in range(size)])
        return MultiOp._wrap(dim, degree, variance, data)
    data = np.array([rng.randint(-3, 3) for _ in range(size)], dtype=np.int64)
    return MultiOp._wrap(dim, degree, variance, data, 3)


def partial_compose(f: MultiOp, g: MultiOp, i: int) -> MultiOp:
    """Insert g into slot i of f, with the sign (-1)**(i * |g|).

    The contraction sums g's primary index against position i of f's
    secondary block; the result has degree deg f + deg g - 1.  Degree-0 f
    has no slots, so composing into it always raises.
    """
    m, n = f.degree, g.degree
    if m == 0:
        raise SlotOutOfRangeError("cannot compose into a degree-0 operation")
    if not 0 <= i <= m - 1:
        raise SlotOutOfRangeError(f"slot {i} outside 0..{m - 1}")
    return _sum(f, m + n - 1, [_terms(f, (g,), slots=(i,))])


def _terms(h: MultiOp, gs, sign: int = 1, slots: tuple = ()):
    """The terms of sign * h{gs} as a part (count, h, gs, plans) of _sum: one
    plan, or a lazy sequence of chunk plans; given slots, only the term that
    inserts the gs at those original slots of h.  A sum without terms is the
    one term of the zero op of its degree with no insertions.

    The operands are checked, and the errors of inserting them one slot at a
    time raised, before any plan is built: the errors of the zero op for a
    sum without terms, else SizeCapError for the first stage over SIZE_CAP.
    """
    for outer, inner in zip((h, *gs), gs):
        _check_pair(outer, inner)
    if len(gs) > h.degree:
        degree = h.degree + sum(g.reduced_degree for g in gs)
        if degree < 0:
            raise DegreeUnderflowError(f"result would have degree {degree}")
        h, gs, sign = zero_op(h.dim, degree, h.variance, h.backend), (), 1
    degs = tuple([g.degree for g in gs])
    count = 1 if slots else math.comb(h.degree, len(gs))
    plan = _compile(h.dim, h.degree, degs, sign, slots)
    if not isinstance(plan, int):
        return count, h, gs, (plan,)
    points = iter([slots]) if slots else combinations(range(h.degree), len(gs))
    chunks = iter(lambda: list(islice(points, plan)), [])
    return count, h, gs, (_plan(h.dim, h.degree, degs, sign, rows) for rows in chunks)


def _sum(like: MultiOp, degree: int, parts) -> MultiOp:
    """The op of the given degree, dim and variance of like, whose
    coefficients are all terms of the parts, added in order.

    A part (count, h, gs, plans) is count terms of h{gs}, one stack per plan.
    An exact sum runs on int64 when its bound (_bound) is below _INT_LIMIT.
    """
    bound = _bound(parts) if like.backend == EXACT else None
    total = None
    for _, h, gs, plans in parts:
        ops = (h, *gs)
        if bound is None:
            arrays = [op.coeffs for op in ops]
        else:
            arrays = [op._ints[0] for op in ops]
        for plan in plans:
            stack = _evaluate(plan, arrays)
            if total is not None:
                stack[0] += total
            total = stack[0] if len(stack) == 1 else np.add.reduce(stack)
    return MultiOp._wrap(like.dim, degree, like.variance, total, bound)


def _bound(parts):
    """A bound on every entry of an exact sum of parts, and on every partial
    sum on the way, if all its operands have int64 forms and it is below
    _INT_LIMIT; else None, after calling _on_object_path.

    A term of h{g1..gk} is bounded by bound(h) * prod(bound(gj) * dim).
    """
    total = 0
    for count, h, gs, _ in parts:
        term = count * h.dim ** len(gs)
        for op in (h, *gs):
            ints = op._ints
            if ints is None:
                _on_object_path()
                return None
            term *= ints[1]
        total += term
    if total < _INT_LIMIT:
        return total
    _on_object_path()
    return None


def _on_object_path():
    """Called once for each exact sum of terms that runs on object arrays."""


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


def _evaluate(plan, arrays) -> np.ndarray:
    """The (terms, coefficients) stack of one plan's signed terms, given the
    coefficient arrays of h and of the gs."""
    gathers, signs, out = plan
    src = arrays[0]
    for index, g in zip(gathers, arrays[1:]):
        src = np.matmul(src[index], g.reshape(index.shape[1], -1)).reshape(-1)
    if signs == 0:
        src = np.concatenate((src, -src))
    stack = src[out]
    if signs < 0:
        np.negative(stack, out=stack)
    return stack


def _plan(d: int, deg_h: int, degs: tuple, sign: int, rows):
    """Index plan for the terms whose original slots of h are the rows.

    A row i1 < ... < ik of slots of h is the term that inserts gj at the
    shifted point ij + sum of |g| before it.  Each stage keeps, per live
    prefix of insertion points, a layout: the flat position in the stage's
    product of every coefficient of the prefix's partial result.  Both
    index maps of a stage are transposes, one per insertion point.  Returns
    (one gather index per stage, signs, output index): signs is 1 when every
    term is positive, -1 when every term is negative, and 0 when the output
    index reads the signed terms from [P, -P].
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
        points, which = np.unique(slots[first, j], return_inverse=True)
        size, span = d ** (m + n), d**n
        gather = np.empty((len(first), d ** (m + 1)), dtype=np.intp)
        child = np.empty((len(first), size), dtype=np.intp)
        for k, i in enumerate(points.tolist()):
            head, w = d ** (i + 1), d ** (m - 1 - i)
            at = which == k
            # slot i of a degree-m layout as the last axis: (head, rest, slot);
            # a layout of one row, h's own, broadcasts over the prefixes
            src = layout[parent[first[at]]] if len(layout) > 1 else layout
            gather.reshape(-1, head, w, d).swapaxes(2, 3)[at] = src.reshape(-1, head, d, w)
            # child layout: (head, c1..cn, rest) read from the product row
            # (head rest, c1..cn) of its prefix
            product = np.arange(size).reshape(head, w, span).swapaxes(1, 2)
            child.reshape(-1, head, span, w)[at] = product
        gathers.append(gather.reshape(-1, d))
        child += np.arange(0, len(first) * size, size)[:, None]
        layout, parent = child, np.cumsum(new) - 1
        m += n - 1
    odd = (slots * (np.array(degs) - 1)).sum(axis=1) % 2 == 1
    negative = odd if sign > 0 else ~odd
    signs = -1 if negative.all() else 0 if negative.any() else 1
    if signs == 0:
        layout += negative[:, None] * layout.size
    for index in (*gathers, layout):
        index.setflags(write=False)
    return tuple(gathers), signs, layout


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
