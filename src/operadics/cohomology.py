"""Exact cohomology of a binary multiplication via coboundary matrices.

Given exact structure constants for a degree-2 multiplication mu on a
d-dimensional module, the coboundary f -> [f, mu] restricts to a linear map
from degree-n operations (d**(n+1) coefficients) to degree-(n+1) operations.
This module builds those matrices on the elementary basis as sparse rows,
by index arithmetic on the structure constants of mu.  One integer
Gauss-Jordan elimination on sparse rows gives exact ranks and the reduced
echelon form that preimages and kernels read.  Rows of Python ints, which
integer structure constants give, enter it as the matrix holds them; the
rows of any other matrix are first scaled by the lcm of their denominators
into new rows of ints.  Each pivot updates only the rows with a nonzero
entry in its column, and each updated row is divided by its gcd.  So
independent blocks of a matrix never meet, and no separate pass splits
them.  Cohomology dimensions follow the usual convention that nothing maps
into degree 0:

    dim H^n = dim Ker(d | C^n) - rank(d | C^(n-1)),   rank(d | C^(-1)) = 0.

When mu has a two-sided unit u (AlgebraSpec.unit), betti_table ranks the
normalized complex (Loday, Cyclic Homology 1.5.7): the cochains that vanish
whenever an input is u form a subcomplex with the same cohomology and
d * (d - 1)**n cochains in degree n against d**(n+1).  It is built in the
given basis, without rewriting mu (see _coboundary).  The printed columns
of the full complex follow from the Betti numbers: kernel_n = H^n +
rank_(n-1) and rank_n = dim C^n - kernel_n.  Non-unital algebras,
is_coboundary and cocycle_basis keep the full complex.

The full-complex matrix of each degree that is_coboundary and cocycle_basis
solve against, and each integer cocycle basis, depend only on the spec and
the degree, so each is computed once and kept on its AlgebraSpec, up to
_KEPT_BYTES (16 MiB) per spec; a result that would pass it is computed on
every call.  Nothing kept leaves this module: coboundary_matrix builds a
new matrix that the caller owns, and cocycle_basis returns a new list of
new ops on read-only arrays.

The complex only makes sense when mu is associative (the coboundary squares
to the action of the associator tensor); betti_table refuses non-associative
input, while coboundary_matrix merely warns, since the matrix itself is
still well defined.
"""

from __future__ import annotations

import math
import reprlib
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .braces import mu_squared
from .errors import (
    BackendMismatchError,
    DegreeMismatchError,
    NotAssociativeError,
    ParseError,
    ShapeMismatchError,
    SizeCapError,
)
from .multiop import (
    _INT_LIMIT,
    ENDO,
    EXACT,
    WORK_CAP,
    MultiOp,
    _checked_size,
    _coefficients,
    is_zero,
    zero_op,
)
from .scalars import exact_scalar, fields, op_values, positive_int, read_json, sign_pow


@dataclass(frozen=True)
class AlgebraSpec:
    """A named binary multiplication given by exact structure constants."""

    name: str
    dim: int
    mu: MultiOp

    @classmethod
    def from_structure_constants(cls, name: str, dim: int, values) -> "AlgebraSpec":
        for v in values:
            if not isinstance(v, (int, Fraction)):
                raise ParseError(f"exact scalar expected, got {type(v).__name__}")
        return cls(name, dim, MultiOp(dim, 2, ENDO, values))

    @cached_property
    def associator(self) -> MultiOp:
        """mu.mu, computed once per spec: zero exactly when mu is associative."""
        return mu_squared(self.mu)

    def is_associative(self) -> bool:
        return self._associative

    @cached_property
    def _associative(self) -> bool:
        """Whether the associator vanishes, decided once per spec: every
        preimage, basis and random cocycle call asks."""
        return is_zero(self.associator)

    @cached_property
    def unit(self) -> tuple | None:
        """The two-sided unit u, mu(u, e_j) = e_j = mu(e_j, u), as exact
        coordinates, or None when mu has none."""
        d = self.dim
        c = self.mu.coeffs.reshape(d, d, d)  # c[x, y, z]: x in y z
        # rows (x, j) of mu(u, e_j) and then of mu(e_j, u), columns k of u
        rows = np.concatenate((c.transpose(0, 2, 1), c)).reshape(2 * d * d, d)
        rhs = np.eye(d, dtype=int).reshape(-1).tolist() * 2
        u = solve_linear(rows.tolist(), rhs)
        return None if u is None else tuple(MultiOp(d, 0, ENDO, u).coeffs.tolist())

    @cached_property
    def _kept(self) -> dict:
        """(kind, degree) -> (result, its bytes): the full-complex coboundary
        matrices and cocycle bases computed for this spec, within
        _KEPT_BYTES in all (see _kept_result)."""
        return {}


@dataclass(frozen=True)
class CoboundaryMatrix:
    """The coboundary C^n -> C^(n+1) on the elementary basis, by rows.

    sparse_rows[r] maps each column c, ascending, to the nonzero coefficient
    of basis element r of the target in the coboundary of basis element c of
    the source: the form that elimination reads.  It reads these very dicts,
    without a copy, and never writes to them.  coboundary_matrix builds a
    new matrix on each call, which the caller owns; the matrices that
    is_coboundary and cocycle_basis keep on a spec are never handed out.
    """

    n: int
    rows: int
    cols: int
    sparse_rows: tuple[dict, ...]

    @property
    def entries(self) -> tuple:
        """Dense view: entries[r][c] is the coefficient at row r, column c."""
        return tuple(tuple(row.get(c, 0) for c in range(self.cols)) for row in self.sparse_rows)


@dataclass(frozen=True)
class BettiTable:
    """Per-degree dimensions of the coboundary complex, degrees 0..n_max."""

    name: str
    dim: int
    n_max: int
    dims: tuple[int, ...]
    ranks: tuple[int, ...]
    kernels: tuple[int, ...]
    betti: tuple[int, ...]


def load_algebra(path) -> AlgebraSpec:
    return _algebra(read_json(path))


def _algebra(doc) -> AlgebraSpec:
    name, dim, raw = fields(doc, "algebra file", "name", "dim", "mu")
    if not isinstance(name, str):
        raise ParseError("'name' must be a string")
    dim = positive_int(dim, "'dim'")
    values = op_values(raw, dim, 2, "'mu'", exact_scalar)
    return AlgebraSpec.from_structure_constants(name, dim, values)


def coboundary_matrix(spec: AlgebraSpec, n: int) -> CoboundaryMatrix:
    """Matrix of the coboundary on degree-n operations, exact entries."""
    if n < 0:
        raise DegreeMismatchError(f"cochain degree must be >= 0, got {reprlib.repr(n)}")
    if spec.mu.backend != EXACT:
        raise BackendMismatchError("exact entries expected")
    if not spec.is_associative():
        warnings.warn(
            f"mu of {reprlib.repr(spec.name)} is not associative; the matrix is still "
            "well defined but its cohomology is not",
            stacklevel=2,
        )
    _checked_size(spec.dim, n + 1, ENDO)  # the target, degree n + 1
    return _coboundary(spec.mu.coeffs.tolist(), spec.dim, n)


def _coboundary(mu: list, d: int, n: int, unit=None) -> CoboundaryMatrix:
    """The coboundary on degree-n cochains of the flat structure constants
    mu: the full complex, or given the unit u of mu the normalized one.

    A cochain that vanishes on u is fixed by its values on inputs that skip
    one e_k with u_k != 0 (|u_k| = 1 if possible, which keeps integer
    constants integral), as e_k = (u - sum of u_j e_j over j != k) / u_k.
    So inputs skip digit k, numbered compactly in base d - 1, and outputs
    keep all d digits of the given basis.  The one rewrite is an inner
    product that lands on e_k and feeds an input: e_k enters as the sum of
    -(u_j / u_k) e_j over j != k.
    """
    k, rewrite = d, ()  # without a unit no input digit is skipped
    if unit is not None:
        k = min((j for j in range(d) if unit[j]), key=lambda j: abs(unit[j]) != 1)
        uk = unit[k]
        rewrite = [(j, Fraction(-u, uk)) for j, u in enumerate(unit) if u and j != k]
        rewrite = [(j, int(r) if r.denominator == 1 else r) for j, r in rewrite]
    m = d - (k < d)
    at = [j - (j > k) for j in range(d)]  # input digit -> compact digit
    rows = d * m ** (n + 1)
    cols = d * m**n
    # d e_c = [e_c, mu] = e_c . mu - s mu . e_c with s = (-1)**(n-1).  Writing
    # o_i for the bare contraction, the Koszul slot signs are (-1)**i on
    # e_c o_i mu and s on mu o_1 e_c, so (as s * s = 1)
    #     d e_c = sum_i (-1)**i e_c o_i mu - s mu o_0 e_c - mu o_1 e_c.
    # e_c has output a and inputs b = (b_0..b_(n-1)); mu[x, y, z] is x in y z.
    # Each table keeps the terms whose digits that become inputs are not k.
    by_out = [{} for _ in range(m)]  # compact x -> {y z as one index: value}
    by_left = [[] for _ in range(d)]  # y -> (x, compact z, value)
    by_right = [[] for _ in range(d)]  # z -> (x y as one index, value)
    for flat, value in enumerate(mu):
        if value:
            x, y, z = flat // (d * d), flat // d % d, flat % d
            if k not in (y, z):
                yz = at[y] * m + at[z]
                # an output e_k that feeds an input enters as its rewrite
                for j, r in rewrite if x == k else ((x, 1),):
                    table = by_out[at[j]]
                    table[yz] = table.get(yz, 0) + r * value
            if z != k:
                by_left[y].append((x, at[z], value))
            if y != k:
                by_right[z].append((x * m + at[y], value))
    by_out = [list(table.items()) for table in by_out]
    s = sign_pow(n - 1)
    mn = m**n
    # e_c o_i mu puts the inputs y z of mu in place of b_i, the digit of
    # weight w = m**(n-1-i), with the Koszul sign (-1)**i
    slots = [(m ** (n - 1 - i), sign_pow(i)) for i in range(n)]
    # column c of the coboundary is d e_c; columns go in ascending order, so
    # each row receives its columns ascending
    out = [{} for _ in range(rows)]
    for c in range(cols):
        for w, sign in slots:
            head, rest = divmod(c, w * m)
            b_i, tail = divmod(rest, w)
            base = head * w * m * m + tail
            for yz, value in by_out[b_i]:
                row = out[base + yz * w]
                row[c] = row.get(c, 0) + sign * value
        a, b = divmod(c, mn)
        for x, z, value in by_left[a]:  # mu o_0 e_c: rows (x, b, z)
            row = out[(x * mn + b) * m + z]
            row[c] = row.get(c, 0) - s * value
        for xy, value in by_right[a]:  # mu o_1 e_c: rows (x, y, b)
            row = out[xy * mn + b]
            row[c] = row.get(c, 0) - value
    # only a row where terms cancelled holds a zero
    sparse_rows = tuple(
        row if all(row.values()) else {c: v for c, v in row.items() if v} for row in out
    )
    return CoboundaryMatrix(n=n, rows=rows, cols=cols, sparse_rows=sparse_rows)


def _exact(values) -> list:
    """The values as a list, raising unless each is an exact scalar.

    Python and numpy integers and Fractions are exact.  Every matrix entry
    and right-hand side entry of the three solvers below passes here, so
    they take one input domain.
    """
    values = list(values)
    if not all(hasattr(x, "denominator") for x in values):
        raise BackendMismatchError("exact entries expected")
    return values


def _rows(matrix, rhs=()) -> tuple[list[dict], int]:
    """Sparse integer rows of a CoboundaryMatrix or of dense rows, and the
    column count ncols.

    Row r maps each column of a nonzero entry to that entry, with rhs[r], if
    nonzero, as column ncols.  When every value is a Python int the rows
    are handed over as they are, so an integral CoboundaryMatrix reaches
    _reduce as its own dicts, which _reduce only reads.  Otherwise each row
    is scaled by the lcm of its denominators into a new dict of ints.
    """
    if isinstance(matrix, CoboundaryMatrix):
        ncols, rows = matrix.cols, list(matrix.sparse_rows)
    else:
        dense = [_exact(row) for row in matrix]
        ncols = len(dense[0]) if dense else 0
        if any(len(row) != ncols for row in dense):
            raise ShapeMismatchError(f"dense rows of unequal length, first has {ncols}")
        rows = [{c: x for c, x in enumerate(row) if x} for row in dense]
    for r, value in zip(range(len(rows)), rhs):
        if value:
            rows[r] = {**rows[r], ncols: value}
    if all(type(x) is int for row in rows for x in row.values()):
        return rows, ncols
    return [_integral(row) for row in rows], ncols


def _integral(row: dict) -> dict:
    """A sparse row of exact values times the lcm of its denominators."""
    mult = math.lcm(*[x.denominator for x in row.values()])
    return {c: int(x.numerator) * (mult // x.denominator) for c, x in row.items()}


def _reduce(rows: list[dict], width: int) -> list[tuple[int, dict]]:
    """Integer Gauss-Jordan elimination of sparse integer rows.

    Returns the pivot columns, ascending, each with its row of the reduced
    row echelon form.  The pivot of column c is the lowest-index row not yet
    a pivot with an entry in c; every other row with an entry in c, above or
    below, becomes a * row - f * pivot_row and is divided by its gcd, so the
    entries stay small.  users[c] lists at least the rows with an entry in
    column c: fill-in appends to it, and rows that lost the entry are skipped.
    Each updated row is a new dict bound to rows[r]; no dict that was passed
    in is written to, so the rows of a matrix can be passed without a copy.
    """
    users = [[] for _ in range(width)]
    for r, row in enumerate(rows):
        for c in row:
            users[c].append(r)
    pivots = {}  # pivot row -> its column
    for c in range(width):
        p = min((r for r in users[c] if c in rows[r] and r not in pivots), default=None)
        if p is None:
            continue
        pivots[p] = c
        pivot_row = rows[p]
        a = pivot_row[c]
        for r in users[c]:
            row = rows[r]
            f = row.get(c)
            if not f or r == p:
                continue
            new = row.copy() if a == 1 else {k: a * v for k, v in row.items()}
            for k, v in pivot_row.items():
                if k in new:
                    x = new[k] - f * v
                    if x:
                        new[k] = x
                    else:  # each key comes once, so the order is kept
                        del new[k]
                else:
                    new[k] = -f * v
                    users[k].append(r)
            g = math.gcd(*new.values())
            if g > 1:  # a row that became all zeros has gcd 0
                new = {k: v // g for k, v in new.items()}
            rows[r] = new
    return [(c, rows[p]) for p, c in pivots.items()]


def exact_rank(matrix) -> int:
    """Rank of an exact matrix: its pivot count."""
    return len(_reduce(*_rows(matrix)))


def solve_linear(matrix, rhs):
    """One exact solution x of M x = rhs, or None if inconsistent.

    Free variables are 0.  The rhs is reduced as the last column, where a
    pivot means no solution.  A nonzero rhs entry on an all-zero row means
    none too, found before any elimination.
    """
    rhs = _exact(rhs)
    rows, ncols = _rows(matrix, rhs)
    if len(rhs) != len(rows):
        raise ShapeMismatchError(
            f"{len(rhs)} right-hand side entries for {len(rows)} rows"
        )
    if any(len(row) == 1 and ncols in row for row in rows):
        return None
    x = [Fraction(0)] * ncols
    for p, row in _reduce(rows, ncols + 1):
        if p == ncols:
            return None
        x[p] = Fraction(row.get(ncols, 0), row[p])
    return x


def nullspace(matrix) -> list[dict[int, Fraction]]:
    """Basis of the exact kernel as sparse vectors {column: Fraction}, one per
    free column in column order, holding only nonzeros: the vector of free
    column f has 1 at f and -row[f] / row[p] at the pivot column p of each
    reduced row that holds f."""
    rows, ncols = _rows(matrix)
    pivots = _reduce(rows, ncols)
    pivot_cols = {p for p, _ in pivots}
    basis = {f: {f: Fraction(1)} for f in range(ncols) if f not in pivot_cols}
    for p, row in pivots:
        for f, value in row.items():
            if f != p:
                basis[f][p] = Fraction(-value, row[p])
    return list(basis.values())


def default_n_max(dim: int) -> int:
    """Largest cochain degree tabulated by default, sized to stay quick."""
    if dim <= 2:
        return 4
    if dim == 3:
        return 3
    return 2


def _require_associative(spec: AlgebraSpec):
    if not spec.is_associative():
        raise NotAssociativeError(
            f"mu of {reprlib.repr(spec.name)} is not associative: "
            f"{np.count_nonzero(spec.associator.coeffs)} coefficients of mu.mu "
            "are nonzero"
        )


def _check_table_size(dim: int, n_max: int):
    """Bound a Betti table before any matrix is built: its largest target,
    of degree n_max + 1, by the size rule, and its insertions by WORK_CAP.

    Each of the dim**(n+1) columns of degree n takes n + 2 insertions of mu.
    The sum is checked with an early exit, so a huge n_max costs nothing.
    """
    _checked_size(dim, n_max + 1, ENDO)
    work = 0
    for n in range(n_max + 1):
        work += dim ** (n + 1) * (n + 2)
        if work > WORK_CAP:
            raise SizeCapError(
                f"dim {dim} with n_max {n_max} needs more than {WORK_CAP} insertions"
            )


def betti_table(spec: AlgebraSpec, n_max: int | None = None) -> BettiTable:
    """Exact cohomology dimensions of an associative multiplication, ranked
    on the normalized complex when mu is unital (see the module docstring)."""
    _require_associative(spec)
    if n_max is None:
        n_max = default_n_max(spec.dim)
    if n_max < 0:
        raise DegreeMismatchError(f"n_max must be >= 0, got {reprlib.repr(n_max)}")
    _check_table_size(spec.dim, n_max)
    d, mu = spec.dim, spec.mu.coeffs.tolist()
    dims = []
    ranks = []
    kernels = []
    betti = []
    prev_rank = prev_ranked = 0  # in degree n - 1: full complex, ranked one
    for n in range(n_max + 1):
        matrix = _coboundary(mu, d, n, spec.unit)
        ranked = exact_rank(matrix)
        betti_n = matrix.cols - ranked - prev_ranked
        dim_n = d ** (n + 1)
        kernel_n = betti_n + prev_rank
        rank_n = dim_n - kernel_n
        dims.append(dim_n)
        ranks.append(rank_n)
        kernels.append(kernel_n)
        betti.append(betti_n)
        prev_rank, prev_ranked = rank_n, ranked
    return BettiTable(
        name=spec.name,
        dim=d,
        n_max=n_max,
        dims=tuple(dims),
        ranks=tuple(ranks),
        kernels=tuple(kernels),
        betti=tuple(betti),
    )


# Bytes of kept results per spec, as _nbytes counts them.  The perfbench
# preimage pass keeps 80 KiB per spec and the verify cocycle suites 16 KiB.
# 16 MiB, about half of what a fresh interpreter with operadics imported
# takes, holds every dual numbers matrix through n = 11 together with every
# basis through n = 9 (8.1 MiB); the basis of n = 11 alone counts 43 MiB.
_KEPT_BYTES = 2**24


def _kept_result(spec: AlgebraSpec, kind: str, degree: int, build):
    """build(), computed once per (spec, kind, degree) while the kept
    results of spec fit in _KEPT_BYTES, and on every call once they would
    not.  Kept results never leave this module: callers get new objects."""
    kept = spec._kept
    entry = kept.get((kind, degree))
    if entry is not None:
        return entry[0]
    result = build()
    size = _nbytes(result)
    if size + sum(s for _, s in kept.values()) <= _KEPT_BYTES:
        kept[(kind, degree)] = (result, size)
    return result


def _nbytes(result) -> int:
    """An upper bound on the bytes a kept matrix or basis holds: its
    containers, arrays and scalars, each int counted once per place that
    holds it, even a small int that Python shares."""
    size = sys.getsizeof
    if isinstance(result, CoboundaryMatrix):
        return size(result) + size(vars(result)) + size(result.sparse_rows) + sum(
            size(row) + sum(map(size, row)) + sum(map(size, row.values()))
            for row in result.sparse_rows
        )
    total = size(result)
    for pair in result:
        arr, bound = pair
        total += size(pair) + size(arr)
        if bound is None:  # Python ints past int64
            total += sum(map(size, arr.tolist()))
    return total


def _kept_matrix(spec: AlgebraSpec, n: int) -> CoboundaryMatrix:
    """The full-complex coboundary matrix of degree n, kept on the spec:
    only read, by solve_linear and nullspace."""
    return _kept_result(spec, "matrix", n, lambda: coboundary_matrix(spec, n))


def is_coboundary(spec: AlgebraSpec, f: MultiOp):
    """A preimage g with coboundary(mu, g) = f, or None if f is not exact.

    Only degrees >= 1 are meaningful: nothing maps into degree 0.  The
    matrix of degree f.degree - 1 is built once per spec (see _kept_result).
    """
    _require_associative(spec)
    if f.degree < 1:
        raise DegreeMismatchError("degree-0 operations have no preimage degree")
    solution = solve_linear(_kept_matrix(spec, f.degree - 1), f.coeffs.tolist())
    if solution is None:
        return None
    return MultiOp(spec.dim, f.degree - 1, f.variance, solution)


def cocycle_basis(spec: AlgebraSpec, degree: int) -> list[MultiOp]:
    """Integer basis of the kernel of the coboundary in the given degree: the
    sparse nullspace vectors with their denominators cleared.

    The basis is computed once per spec (see _kept_result); each call
    returns a new list of new ops on the kept read-only arrays.
    """
    return [MultiOp._wrap(spec.dim, degree, ENDO, *pair) for pair in _cocycles(spec, degree)]


def _cocycles(spec: AlgebraSpec, degree: int) -> tuple:
    """The cocycle basis as (coefficients, bound) pairs, MultiOp._wrap's
    form, kept on the spec."""
    _require_associative(spec)
    return _kept_result(spec, "basis", degree, lambda: _basis(spec, degree))


def _basis(spec: AlgebraSpec, degree: int) -> tuple:
    matrix = _kept_matrix(spec, degree)
    basis = []
    for vec in map(_integral, nullspace(matrix)):
        values, bound = _coefficients(list(vec.values()))
        arr = np.zeros(matrix.cols, values.dtype)
        arr[list(vec)] = values
        arr.setflags(write=False)
        basis.append((arr, bound))
    return tuple(basis)


def random_cocycle(rng, spec: AlgebraSpec, degree: int) -> MultiOp:
    """Random integer combination of the cocycle basis (a cocycle).

    One weight in -3..3 is drawn per basis vector, in basis order, and the
    weights multiply the stacked basis once: on int64 when every vector is
    int64 and no entry of the sum can reach _INT_LIMIT, else on Python ints.
    """
    basis = _cocycles(spec, degree)
    weights = [rng.randint(-3, 3) for _ in basis]
    if not basis:
        return zero_op(spec.dim, degree)
    bounds = [bound for _, bound in basis]
    if None not in bounds and 3 * sum(bounds) < _INT_LIMIT:
        total = np.array(weights) @ np.array([arr for arr, _ in basis])
        return MultiOp._wrap(spec.dim, degree, ENDO, total, int(np.abs(total).max()))
    stacked = np.array([arr for arr, _ in basis], dtype=object)
    return MultiOp(spec.dim, degree, ENDO, np.array(weights, dtype=object) @ stacked)
