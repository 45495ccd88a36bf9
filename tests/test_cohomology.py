"""Exact linear algebra and cohomology tables.

The oracles here are a straightforward dense Gauss-Jordan elimination over
Fraction, independent of the sparse integer Gauss-Jordan elimination under
test that rank, solve and nullspace share; they check it on block matrices
with small and with 30-digit entries and on coboundary matrices.  Expected
Betti numbers are frozen from hand derivations: a one-dimensional algebra
has one-dimensional cohomology in degree 0 only; the two-dimensional
nilpotent extension keeps one class per positive degree; the full 2x2
matrix algebra has scalars in degree 0 and nothing above (all derivations
inner, dimension counts 16 - 13 = 3 = kernel of the next map).  Betti
tables of unital algebras, which rank the normalized complex, are checked
against the full complex ranked degree by degree, and each normalized
column against the brace-kernel coboundary of its lift to a full cochain.
"""

import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from operadics import cohomology
from operadics.bundled import bundled_path
from operadics.coboundary import coboundary
from operadics.cohomology import (
    AlgebraSpec,
    betti_table,
    coboundary_matrix,
    cocycle_basis,
    default_n_max,
    exact_rank,
    is_coboundary,
    load_algebra,
    nullspace,
    random_cocycle,
    solve_linear,
)
from operadics.errors import (
    BackendMismatchError,
    DegreeMismatchError,
    NotAssociativeError,
    ParseError,
    ShapeMismatchError,
    SizeCapError,
)
from operadics.multiop import ENDO, WORK_CAP, MultiOp, is_zero, partial_compose, zero_op
from operadics.scalars import parse_exact


def basis_op(dim, degree, index):
    """The elementary degree-`degree` operation with a 1 at flat `index`."""
    data = np.zeros(dim ** (degree + 1), dtype=object)
    data[index] = 1
    return MultiOp(dim, degree, ENDO, data)


def format_exact(value) -> str:
    """An exact scalar as the bundled files write it: 'p' or 'p/q'."""
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def algebra_from_text(tmp_path, text):
    """load_algebra on a file holding text."""
    path = tmp_path / "algebra.json"
    path.write_text(text)
    return load_algebra(path)


def algebra_to_json(spec):
    """The algebra file text of a spec, as the bundled files are written."""
    doc = {
        "name": spec.name,
        "dim": spec.dim,
        "mu": [format_exact(v) for v in spec.mu.coeffs.tolist()],
    }
    return json.dumps(doc, indent=2) + "\n"


# --- rank oracle ---------------------------------------------------------


def rank_oracle(matrix):
    """Plain fraction Gaussian elimination, no pivoting tricks."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rref_oracle(matrix):
    """Dense Gauss-Jordan reduction over Fraction: (reduced rows, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col]:
                factor = rows[k][col]
                rows[k] = [a - factor * b for a, b in zip(rows[k], rows[r])]
        pivots.append(col)
    return rows, pivots


def nullspace_oracle(matrix):
    """Kernel basis from the dense reduction, one vector per free column."""
    reduced, pivots = rref_oracle(matrix)
    ncols = len(reduced[0]) if reduced else 0
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, col in zip(reduced, pivots):
            vec[col] = -row[free]
        basis.append(vec)
    return basis


def densify(vectors, ncols):
    """Sparse {column: value} vectors as dense lists of ncols entries."""
    return [[vec.get(c, Fraction(0)) for c in range(ncols)] for vec in vectors]


def solve_oracle(matrix, rhs):
    """The solution with free variables 0, from the dense reduction, or None."""
    ncols = len(matrix[0])
    reduced, pivots = rref_oracle([list(row) + [b] for row, b in zip(matrix, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for row, col in zip(reduced, pivots):
        x[col] = row[-1]
    return x


def small_entry(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def huge_entry(rng):
    """About +-10**30 over a mix of small and 31-digit denominators (or 0)."""
    numerator = rng.randint(-3, 3) * 10**30 + rng.randint(-9, 9)
    return Fraction(numerator, rng.choice((1, 2, 3, 7, 10**30 + 1)))


def hidden_block_matrix(rng, entry=small_entry):
    """A block-diagonal Fraction matrix with zero rows and columns, permuted.

    Some blocks are rank deficient: one row is a combination of the others,
    or one column is a multiple of another.
    """
    blocks = []
    for _ in range(rng.randint(1, 5)):
        h, w = rng.randint(1, 4), rng.randint(1, 4)
        block = [[entry(rng) for _ in range(w)] for _ in range(h)]
        if h > 1 and rng.random() < 0.4:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            block[-1] = [a * x + b * y for x, y in zip(block[0], block[1 % (h - 1)])]
        if w > 1 and rng.random() < 0.4:
            k = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            for row in block:
                row[-1] = k * row[0]
        blocks.append(block)
    nrows = sum(len(b) for b in blocks) + rng.randint(0, 2)
    ncols = sum(len(b[0]) for b in blocks) + rng.randint(0, 2)
    dense = [[0] * ncols for _ in range(nrows)]
    r0 = c0 = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, value in enumerate(row):
                dense[r0 + i][c0 + j] = value
        r0, c0 = r0 + len(block), c0 + len(block[0])
    row_order = rng.sample(range(nrows), nrows)
    col_order = rng.sample(range(ncols), ncols)
    return [[dense[r][c] for c in col_order] for r in row_order]


def _nonassociative_spec():
    # e0*e0 = e1, e1*e0 = e0: (e0 e0) e0 = e0 but e0 (e0 e0) = 0
    data = np.zeros(8, dtype=np.int64)
    data[1 * 4 + 0 * 2 + 0] = 1
    data[0 * 4 + 1 * 2 + 0] = 1
    mu = MultiOp(2, 2, ENDO, data)
    return AlgebraSpec(name="twisted", dim=2, mu=mu)


def truncated_polynomials(k):
    """Q[x]/(x^k) on the basis 1, x, .., x^(k-1)."""
    mu = [0] * k**3
    for y in range(k):
        for z in range(k - y):
            mu[((y + z) * k + y) * k + z] = 1
    return AlgebraSpec.from_structure_constants(f"x^{k}", k, mu)


def split_algebra(n):
    """Q x Q on the basis (e1, n e1 + e2), e1 and e2 its idempotents: its
    degree-2 cocycles have entries near n**2."""
    return AlgebraSpec.from_structure_constants("split", 2, [1, n, n, n * n - n, 0, 0, 0, 1])


def upper_triangular():
    """Upper-triangular 2x2 matrices T2 on E11, E12, E22."""
    units = [(0, 0), (0, 1), (1, 1)]
    mu = [0] * 27
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            if j == k:
                mu[(units.index((i, l)) * 3 + a) * 3 + b] = 1
    return AlgebraSpec.from_structure_constants("T2", 3, mu)


# --- exact rank -----------------------------------------------------------


def test_exact_rank_frozen_cases():
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([]) == 0
    assert exact_rank([[Fraction(1, 2), Fraction(1, 3)]]) == 1


def test_exact_rank_matches_gaussian_oracle():
    for seed in range(200):
        rng = random.Random(seed)
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        assert exact_rank(m) == rank_oracle(m), f"seed {seed}"


def test_exact_rank_handles_fractions_and_rank_deficiency():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(2, 5)
        m = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
            for _ in range(n - 1)
        ]
        m.append([sum(col) for col in zip(*m)])  # forced dependent row
        assert exact_rank(m) == rank_oracle(m)


def test_exact_rank_is_stable_under_huge_entries():
    # fraction-free elimination must not lose exactness on big integers
    big = 10**30
    m = [[big, big + 1], [big - 1, big]]
    # determinant is big**2 - (big**2 - 1) = 1
    assert exact_rank(m) == 2


def test_solve_and_nullspace_roundtrip():
    m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    rhs = [6, 12, 2]
    x = solve_linear(m, rhs)
    assert x is not None
    got = [sum(Fraction(a) * b for a, b in zip(row, x)) for row in m]
    assert got == [Fraction(v) for v in rhs]
    assert solve_linear([[1, 0], [1, 0]], [1, 2]) is None
    basis = densify(nullspace(m), 3)
    assert len(basis) == 3 - exact_rank(m)
    for vec in basis:
        image = [sum(Fraction(a) * b for a, b in zip(row, vec)) for row in m]
        assert all(v == 0 for v in image)


def test_block_solvers_match_dense_reduction():
    cases = [(seed, small_entry) for seed in range(300)]
    cases += [(seed, huge_entry) for seed in range(100)]
    for seed, entry in cases:
        rng = random.Random(seed)
        m = hidden_block_matrix(rng, entry)
        assert exact_rank(m) == rank_oracle(m), f"seed {seed}"
        assert densify(nullspace(m), len(m[0])) == nullspace_oracle(m), f"seed {seed}"
        x0 = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in m[0]]
        rhs = [sum(a * b for a, b in zip(row, x0)) for row in m]
        x = solve_linear(m, rhs)
        assert x == solve_oracle(m, rhs), f"seed {seed}"
        assert [sum(a * b for a, b in zip(row, x)) for row in m] == rhs
        # any right-hand side: the same solution, or None on both sides
        other = [rng.randint(-2, 2) for _ in m]
        assert solve_linear(m, other) == solve_oracle(m, other), f"seed {seed}"
        # a nonzero right-hand side on an all-zero row has no solution
        zero_rows = [r for r, row in enumerate(m) if not any(row)]
        if zero_rows:
            bad = list(rhs)
            bad[rng.choice(zero_rows)] = Fraction(1, 3)
            assert solve_linear(m, bad) is None, f"seed {seed}"
            assert solve_oracle(m, bad) is None


def test_back_substitution_matches_dense_reduction_in_types():
    # each integer row of _reduce, divided by its pivot entry, is a row of the
    # Fraction Gauss-Jordan's reduced form, in the same order, and the vectors
    # nullspace and solve_linear build from them hold only Fractions, and the
    # sparse nullspace vectors no zeros
    cases = [(seed, small_entry) for seed in range(200)]
    cases += [(seed, huge_entry) for seed in range(50)]
    for seed, entry in cases:
        rng = random.Random(seed)
        m = hidden_block_matrix(rng, entry)
        ncols = len(m[0])
        reduced, pivots = [], []
        rows, _, _ = cohomology._rows(m)
        for p, c in cohomology._reduce(rows, ncols)[0].items():
            reduced.append([Fraction(rows[p].get(k, 0), rows[p][c]) for k in range(ncols)])
            pivots.append(c)
        want, want_pivots = rref_oracle(m)
        assert (reduced, pivots) == (want[: len(want_pivots)], want_pivots), seed
        rhs = [rng.randint(-2, 2) for _ in m]
        x = solve_linear(m, rhs)
        kernel = [list(vec.values()) for vec in nullspace(m)]
        vectors = reduced + kernel + ([x] if x is not None else [])
        assert all(type(v) is Fraction for vec in vectors for v in vec), seed
        assert all(v != 0 for vec in kernel for v in vec), seed


def test_exact_solvers_take_only_exact_entries():
    # Python and numpy integers and Fractions are exact, even mixed
    m = np.array([[1, 2], [2, 4], [1, 0]])
    assert exact_rank(m) == 2
    assert densify(nullspace(m.T), 3) == [[Fraction(-2), Fraction(1), Fraction(0)]]
    assert solve_linear(m, np.array([3, 6, 1])) == [Fraction(1), Fraction(1)]
    mixed = [[np.int64(2**62), Fraction(1, 10**20)], [np.int32(1), 0]]
    assert exact_rank(mixed) == 2
    assert solve_linear(mixed, [2**62, 1]) == [Fraction(1), Fraction(0)]
    # a float entry raises, in the matrix or the rhs, zero or not, inside a
    # block or on a row outside every block
    for bad in ([[0.5, 1], [1, 2]], [[np.float64(1), 0]], [[0.0, 0.0]], [[1, 0], [0, 0.0]]):
        for solver in (exact_rank, nullspace, lambda m: solve_linear(m, [1] * len(m))):
            with pytest.raises(BackendMismatchError, match="exact entries expected"):
                solver(bad)
    for bad_rhs in ([0.5], [1, 0.5], [1, 0.0]):
        with pytest.raises(BackendMismatchError, match="exact entries expected"):
            solve_linear([[1, 2], [0, 0]][: len(bad_rhs)], bad_rhs)
    # and so does a coboundary matrix of float structure constants
    float_spec = AlgebraSpec(name="float", dim=1, mu=MultiOp(1, 2, ENDO, [1.0]))
    with pytest.raises(BackendMismatchError, match="exact entries expected"):
        coboundary_matrix(float_spec, 0)


def test_exact_entries_are_decided_by_their_types():
    # every value of an exact type passes, alone or mixed; one value of an
    # inexact type fails the whole list, wherever it stands
    exact = [3, True, Fraction(1, 3), np.int64(-2), np.int8(1), np.uint64(2**63)]
    assert cohomology._exact(iter(exact)) == exact
    assert cohomology._exact([]) == []
    for bad in (0.5, np.float64(1), 1j, np.bool_(True)):
        for values in ([bad], exact + [bad], [bad] + exact):
            with pytest.raises(BackendMismatchError, match="exact entries expected"):
                cohomology._exact(values)
        with pytest.raises(BackendMismatchError, match="exact entries expected"):
            solve_linear([[1, 0], [0, 1]], [1, bad])


def test_solve_needs_one_right_hand_side_entry_per_row():
    for rhs in ([1], [1, 0, 5]):
        with pytest.raises(ShapeMismatchError, match="right-hand side"):
            solve_linear([[1, 0], [0, 0]], rhs)


def test_ragged_dense_rows_are_a_shape_mismatch():
    # a short row is not padded with zeros, and a long row's extra entry is
    # not read as a right-hand side
    calls = [
        lambda: solve_linear([[1], [1, 2]], [1, 1]),
        lambda: exact_rank([[1, 2], [1, 2, 3]]),
        lambda: exact_rank([[1, 2], [3]]),
        lambda: nullspace([[1], [1, 2]]),
    ]
    for call in calls:
        with pytest.raises(ShapeMismatchError, match="unequal length"):
            call()


def test_block_solve_rejects_inconsistent_block():
    # blocks {row 0, col 1} and {rows 1-2, cols 0 and 3}; rows (2, 4) and (1, 2)
    # of the second make the right-hand side (3, 1) inconsistent
    m = [[0, 1, 0, 0], [2, 0, 0, 4], [1, 0, 0, 2], [0, 0, 0, 0]]
    assert solve_linear(m, [5, 3, 1, 0]) is None
    assert solve_linear(m, [5, 2, 1, 0]) == [Fraction(1), Fraction(5), 0, 0]
    kernel = densify(nullspace(m), 4)
    assert kernel == nullspace_oracle(m) == [[0, 0, 1, 0], [-2, 0, 0, 1]]


def check_solvers_on_matrix(mat, rng):
    dense = mat.entries
    assert exact_rank(mat) == rank_oracle(dense)
    assert densify(nullspace(mat), mat.cols) == nullspace_oracle(dense)
    target = [rng.randint(-2, 2) for _ in range(mat.rows)]
    assert solve_linear(mat, target) == solve_oracle(dense, target)


def test_block_solvers_on_coboundary_matrices():
    for name, n_max in (("dual_numbers.json", 5), ("mat2.json", 2)):
        spec = load_algebra(bundled_path(name))
        rng = random.Random(name)
        for n in range(n_max + 1):
            check_solvers_on_matrix(coboundary_matrix(spec, n), rng)
    # the normalized matrices betti_table ranks (the field's have no rows,
    # which the dense oracles cannot take); a rebased mat2 has a dense mu, so
    # its rows are dense and elimination fills them in
    mat2, _ = rebased(load_algebra(bundled_path("mat2.json")), random.Random(3))
    assert np.count_nonzero(mat2.mu.coeffs) >= 40
    specs = [spec for spec, _, _ in unital_cases()[1:]] + [mat2]
    for spec in specs:
        rng = random.Random(spec.name)
        mu = spec.mu.coeffs.tolist()
        for n in range(3):
            matrix = cohomology._coboundary(mu, spec.dim, n, spec.unit)
            check_solvers_on_matrix(matrix, rng)


def test_solvers_leave_the_sparse_rows_of_a_matrix_unchanged(monkeypatch):
    # rank, solve and kernel never write to a matrix's rows: they keep their
    # entries and their column order, also where elimination fills rows in
    # (a rebased mat2, whose mu is dense) and where denominators are cleared
    # first (dual numbers on the basis 1/2, x).  The rows of an integral
    # matrix reach the elimination as the matrix's own dicts, also in a
    # solve, whose right-hand side takes the row steps apart from the rows;
    # every row of a matrix with a Fraction is new.
    seen = []
    reduce = cohomology._reduce

    def spy(rows, width):
        seen.append(list(rows))
        return reduce(rows, width)

    monkeypatch.setattr(cohomology, "_reduce", spy)
    mat2 = load_algebra(bundled_path("mat2.json"))
    dense, _ = rebased(mat2, random.Random(3))
    cases = ((mat2, 2, True), (dense, 2, True), (scaled_dual_numbers(), 4, False))
    for spec, n, integral in cases:
        mat = coboundary_matrix(spec, n)
        target = coboundary(spec.mu, basis_op(spec.dim, n, 5)).coeffs.tolist()
        assert any(target)
        before = [list(row.items()) for row in mat.sparse_rows]
        seen.clear()
        assert exact_rank(mat) > 0
        assert solve_linear(mat, target) is not None
        assert nullspace(mat)
        assert [list(row.items()) for row in mat.sparse_rows] == before
        assert len(seen) == 3
        ranked, solved, kernel = (
            [got is row for got, row in zip(rows, mat.sparse_rows)] for rows in seen
        )
        assert ranked == solved == kernel == [integral] * mat.rows, spec.name


# --- algebra files --------------------------------------------------------


def test_bundled_algebras_parse_and_roundtrip_bytes(tmp_path):
    for name in ("field.json", "dual_numbers.json", "mat2.json"):
        path = bundled_path(name)
        text = path.read_text()
        spec = algebra_from_text(tmp_path, text)
        assert algebra_to_json(spec) == text
        assert spec.is_associative()


def test_fraction_coefficients_survive_roundtrip(tmp_path):
    text = json.dumps(
        {"name": "half", "dim": 1, "mu": ["1/2"]}, indent=2, sort_keys=True
    ) + "\n"
    spec = algebra_from_text(tmp_path, text)
    assert spec.mu.coeffs[0] == Fraction(1, 2)
    assert algebra_from_text(tmp_path, algebra_to_json(spec)).mu == spec.mu


@pytest.mark.parametrize(
    "doc",
    [
        {"name": "x", "dim": 2},
        {"name": "x", "mu": ["1"]},
        {"dim": 1, "mu": ["1"]},
        {"name": "x", "dim": 0, "mu": []},
        {"name": "x", "dim": 2, "mu": ["1"] * 7},
        {"name": "x", "dim": 1, "mu": ["1/0"]},
        {"name": "x", "dim": 1, "mu": ["one"]},
        {"name": "x", "dim": 1, "mu": "1"},
        {"name": 3, "dim": 1, "mu": ["1"]},
        {"name": "x", "dim": 1.5, "mu": ["1"]},
        {"name": "x", "dim": 1, "mu": ["1e100000000"]},
    ],
)
def test_malformed_algebra_documents_raise(tmp_path, doc):
    with pytest.raises(ParseError):
        algebra_from_text(tmp_path, json.dumps(doc))


@pytest.mark.parametrize(
    "text", ["3", " -2/4 ", "1.25", "1_000", "1.5E+3", "2e-3", "1e4300", "-5e-4300"]
)
def test_parse_exact_reads_what_fraction_reads(text):
    assert parse_exact(text) == Fraction(text)


def test_load_algebra_rejects_invalid_json(tmp_path):
    with pytest.raises(ParseError):
        algebra_from_text(tmp_path, "{not json")
    with pytest.raises(ParseError):
        algebra_from_text(tmp_path, "[" * 100000 + "]" * 100000)


# --- coboundary matrices ---------------------------------------------------


def test_one_dimensional_coboundary_matrices_frozen():
    spec = load_algebra(bundled_path("field.json"))
    assert coboundary_matrix(spec, 0).entries == ((0,),)
    assert coboundary_matrix(spec, 1).entries == ((-1,),)
    assert coboundary_matrix(spec, 2).entries == ((0,),)


def test_matrix_columns_are_coboundaries_of_basis_ops():
    # every degree up to 1024 rows, and a non-associative mu
    cases = [
        (load_algebra(bundled_path(name)), n_max)
        for name, n_max in (
            ("field.json", 10),
            ("dual_numbers.json", 8),
            ("mat2.json", 3),
        )
    ]
    cases.append((_nonassociative_spec(), 4))
    for spec, n_max in cases:
        for n in range(n_max + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                mat = coboundary_matrix(spec, n)
            for col in range(mat.cols):
                image = coboundary(spec.mu, basis_op(spec.dim, n, col)).coeffs
                want = [(r, v) for r, v in enumerate(image.tolist()) if v]
                got = [(r, row[col]) for r, row in enumerate(mat.sparse_rows) if col in row]
                assert got == want, (spec.name, n, col)


@pytest.mark.parametrize(
    "call",
    [
        lambda: zero_op(-(10**1500), 1),
        lambda: zero_op(2, -(10**1500)),
        lambda: coboundary_matrix(load_algebra(bundled_path("dual_numbers.json")), -(10**1500)),
    ],
    ids=["op-dim", "op-degree", "matrix-degree"],
)
def test_huge_negative_shape_is_one_short_message(call):
    with pytest.raises((ShapeMismatchError, DegreeMismatchError)) as info:
        call()
    assert len(str(info.value)) < 300, str(info.value)[:300]


def test_nonassociative_matrix_warns_but_computes():
    spec = _nonassociative_spec()
    with pytest.warns(UserWarning):
        coboundary_matrix(spec, 1)


def test_nonassociative_warning_shortens_a_long_name():
    spec = _nonassociative_spec()
    spec = AlgebraSpec(name="x" * 50000, dim=spec.dim, mu=spec.mu)
    with pytest.warns(UserWarning) as record:
        coboundary_matrix(spec, 1)
    assert len(record) == 1 and len(str(record[0].message)) < 200


# --- Betti tables -----------------------------------------------------------


def test_betti_table_field_frozen():
    spec = load_algebra(bundled_path("field.json"))
    table = betti_table(spec)
    assert table.n_max == 4
    assert table.dims == (1, 1, 1, 1, 1)
    assert table.betti == (1, 0, 0, 0, 0)


def test_betti_table_dual_numbers_frozen():
    spec = load_algebra(bundled_path("dual_numbers.json"))
    table = betti_table(spec)
    assert table.dims == (2, 4, 8, 16, 32)
    assert table.ranks == (0, 3, 4, 11, 20)
    assert table.kernels == (2, 1, 4, 5, 12)
    assert table.betti == (2, 1, 1, 1, 1)


def test_betti_table_mat2_frozen():
    spec = load_algebra(bundled_path("mat2.json"))
    table = betti_table(spec)
    assert table.n_max == 2
    assert table.dims == (4, 16, 64)
    assert table.ranks == (3, 13, 51)
    assert table.betti == (1, 0, 0)


def test_betti_tables_match_hochschild_at_larger_degree():
    # Hochschild 1945: a field and the separable M2(Q) have HH^n = 0 for
    # n >= 1; Q[x]/(x^2) in characteristic 0 keeps one class per degree,
    # Q[x]/(x^3) two; T2 is hereditary with a connected quiver, so only
    # HH^0 = 1 survives.
    for spec, n_max, want in (
        (load_algebra(bundled_path("field.json")), 10, (1,) + (0,) * 10),
        (load_algebra(bundled_path("mat2.json")), 3, (1, 0, 0, 0)),
        (load_algebra(bundled_path("dual_numbers.json")), 8, (2,) + (1,) * 8),
        (truncated_polynomials(3), 6, (3,) + (2,) * 6),
        (upper_triangular(), 6, (1,) + (0,) * 6),
    ):
        assert betti_table(spec, n_max).betti == want, spec.name


def test_default_n_max_policy():
    assert default_n_max(1) == 4
    assert default_n_max(2) == 4
    assert default_n_max(3) == 3
    assert default_n_max(4) == 2
    assert default_n_max(9) == 2


def test_betti_table_requires_associativity():
    with pytest.raises(NotAssociativeError):
        betti_table(_nonassociative_spec())


def test_associator_is_computed_once_per_spec(monkeypatch):
    calls = []
    original = cohomology.mu_squared

    def counting(mu):
        calls.append(mu)
        return original(mu)

    monkeypatch.setattr(cohomology, "mu_squared", counting)
    spec = load_algebra(bundled_path("dual_numbers.json"))
    betti_table(spec, 3)
    is_coboundary(spec, basis_op(2, 2, 0))
    cocycle_basis(spec, 1)
    coboundary_matrix(spec, 2)
    assert len(calls) == 1
    bad = _nonassociative_spec()
    for _ in range(2):
        with pytest.raises(NotAssociativeError):
            betti_table(bad)
    with pytest.warns(UserWarning):
        coboundary_matrix(bad, 1)
    assert len(calls) == 2


@pytest.mark.parametrize("name", ["mat2.json", "dual_numbers.json"])
def test_int64_ops_are_read_without_an_object_copy(name):
    # coeffs of an int64 op is an object array cached on the op: reading the
    # int64 values instead leaves neither mu nor the target holding one
    spec = load_algebra(bundled_path(name))
    target = coboundary(spec.mu, basis_op(spec.dim, 1, 1))
    assert spec.unit is not None
    betti_table(spec, 2)
    coboundary_matrix(spec, 1)
    assert is_coboundary(spec, target) is not None
    assert "coeffs" not in vars(spec.mu)
    assert "coeffs" not in vars(target)
    # float values still reach the exact solvers and are refused there
    float_target = MultiOp(spec.dim, 2, ENDO, np.zeros(spec.dim**3))
    with pytest.raises(BackendMismatchError, match="exact entries expected"):
        is_coboundary(spec, float_target)
    float_spec = AlgebraSpec(name="float", dim=1, mu=MultiOp(1, 2, ENDO, [1.0]))
    for call in (lambda: float_spec.unit, lambda: betti_table(float_spec)):
        with pytest.raises(BackendMismatchError, match="exact entries expected"):
            call()


def spy_builds(monkeypatch):
    """Spy on the coboundary build and on nullspace: a list of the degree
    of each matrix built, and one of the column count of each kernel
    computed, which nullspace reads from an elimination."""
    builds, kernels = [], []
    build, kernel = cohomology._coboundary, cohomology.nullspace

    def counting_build(mu, d, n, unit=None):
        builds.append(n)
        return build(mu, d, n, unit)

    def counting_kernel(matrix):
        kernels.append(matrix.ncols)
        return kernel(matrix)

    monkeypatch.setattr(cohomology, "_coboundary", counting_build)
    monkeypatch.setattr(cohomology, "nullspace", counting_kernel)
    return builds, kernels


def preimages_and_bases(spec, n_max):
    """is_coboundary of an exact and of a non-exact target, and
    cocycle_basis, in each degree 1..n_max."""
    out = []
    rng = random.Random(spec.name)
    for n in range(1, n_max + 1):
        g = MultiOp(spec.dim, n - 1, ENDO, [rng.randint(-2, 2) for _ in range(spec.dim**n)])
        basis = cocycle_basis(spec, n)
        out.append(is_coboundary(spec, coboundary(spec.mu, g)))
        out.append([is_coboundary(spec, op) for op in basis])
        out.append(basis)
    return out


def test_preimages_and_bases_build_each_matrix_and_kernel_once(monkeypatch):
    builds, kernels = spy_builds(monkeypatch)
    spec = load_algebra(bundled_path("mat2.json"))
    targets = [coboundary(spec.mu, basis_op(4, 2, c)) for c in (5, 9)]
    preimages = [is_coboundary(spec, t) for t in targets]
    basis = cocycle_basis(spec, 2)
    assert builds == [2] and kernels == [4**3]
    assert [is_coboundary(spec, t) for t in targets] == preimages
    assert cocycle_basis(spec, 2) == basis
    assert builds == [2] and kernels == [4**3]
    # a matrix asked for by its public name is the caller's: built anew
    coboundary_matrix(spec, 2)
    assert builds == [2, 2]
    # a warm spec and a fresh spec give the same preimages and bases
    for name, n_max in (("field.json", 4), ("dual_numbers.json", 4), ("mat2.json", 2)):
        warm = load_algebra(bundled_path(name))
        first = preimages_and_bases(warm, n_max)
        assert preimages_and_bases(warm, n_max) == first
        assert preimages_and_bases(load_algebra(bundled_path(name)), n_max) == first


def test_a_cold_pass_eliminates_each_degree_once_and_a_warm_pass_never(monkeypatch):
    # with the eliminations kept, one _reduce per degree serves the solves
    # and the kernel of that degree, and the solvers are handed that one
    # elimination, so the solve_linear and nullspace spans stay on them
    runs, given = [], []
    reduce, solve, kernel = cohomology._reduce, cohomology.solve_linear, cohomology.nullspace

    def counting_reduce(rows, width):
        runs.append(width)
        return reduce(rows, width)

    def seen_solve(matrix, rhs):
        given.append(("solve", matrix))
        return solve(matrix, rhs)

    def seen_kernel(matrix):
        given.append(("kernel", matrix))
        return kernel(matrix)

    monkeypatch.setattr(cohomology, "_reduce", counting_reduce)
    monkeypatch.setattr(cohomology, "solve_linear", seen_solve)
    monkeypatch.setattr(cohomology, "nullspace", seen_kernel)
    spec = load_algebra(bundled_path("dual_numbers.json"))
    first = preimages_and_bases(spec, 4)
    # solves against degrees 0..3, kernels of degrees 1..4
    assert runs == [2**2, 2**1, 2**3, 2**4, 2**5]
    assert all(isinstance(m, cohomology._Echelon) for _, m in given)
    by_width = {}
    for kind, m in given:
        by_width.setdefault(m.ncols, {}).setdefault(id(m), set()).add(kind)
    assert sorted(by_width) == sorted(runs)
    assert all(len(objects) == 1 for objects in by_width.values())
    for n in range(1, 4):
        assert list(by_width[2 ** (n + 1)].values()) == [{"solve", "kernel"}]
    runs.clear()
    given.clear()
    assert preimages_and_bases(spec, 4) == first
    assert runs == []
    kept = {id(result) for result, _ in spec._kept.values()}
    assert given and all(kind == "solve" and id(m) in kept for kind, m in given)


def test_preimages_match_the_dense_solve_with_fractions_and_a_dense_mu():
    # scaled dual numbers put Fractions in the matrix, whose rows _integral
    # scales, and in the targets; a rebased mat2 has a dense mu, whose rows
    # fill in.  Exact targets are coboundaries of random cochains, the
    # others random cochains and, where the cohomology is not zero (dual
    # numbers in every degree), cocycles that need not be exact
    mat2, _ = rebased(load_algebra(bundled_path("mat2.json")), random.Random(3))
    for spec, n_max, cocycles in ((scaled_dual_numbers(), 5, True), (mat2, 3, False)):
        rng = random.Random(spec.name)
        found = []
        for n in range(1, n_max + 1):
            dense = coboundary_matrix(spec, n - 1).entries
            g = MultiOp(spec.dim, n - 1, ENDO, [rng.randint(-2, 2) for _ in dense[0]])
            f = MultiOp(spec.dim, n, ENDO, [rng.randint(-2, 2) for _ in dense])
            targets = [coboundary(spec.mu, g), f, *(cocycle_basis(spec, n) if cocycles else ())]
            for target in targets:
                want = solve_oracle(dense, target.coeffs.tolist())
                got = is_coboundary(spec, target)
                assert (got is None) == (want is None), (spec.name, n)
                if got is not None:
                    assert got.coeffs.tolist() == want, (spec.name, n)
                    assert coboundary(spec.mu, got) == target
                found.append(got is not None)
        assert any(found) and not all(found), spec.name


def test_kept_results_are_isolated_from_what_callers_get():
    spec = load_algebra(bundled_path("dual_numbers.json"))
    want = preimages_and_bases(load_algebra(bundled_path("dual_numbers.json")), 3)
    for n in range(4):
        for row in coboundary_matrix(spec, n).sparse_rows:
            row.clear()
    assert preimages_and_bases(spec, 3) == want
    for n in range(4):
        for row in coboundary_matrix(spec, n).sparse_rows:
            row.clear()
        cocycle_basis(spec, n).append(basis_op(2, n, 0))
        cocycle_basis(spec, n).clear()
    assert preimages_and_bases(spec, 3) == want
    # the kept arrays cannot be written through the ops handed out
    with pytest.raises(ValueError):
        cocycle_basis(spec, 2)[0]._ints[0][0] = 7


def test_kept_results_stay_within_the_budget(monkeypatch):
    want = preimages_and_bases(load_algebra(bundled_path("dual_numbers.json")), 6)
    builds, kernels = spy_builds(monkeypatch)
    # with no budget nothing is kept and every call builds anew
    monkeypatch.setattr(cohomology, "_KEPT_BYTES", 0)
    spec = load_algebra(bundled_path("dual_numbers.json"))
    assert preimages_and_bases(spec, 6) == want
    assert spec._kept == {}
    # per degree: one basis, one exact target, one target per basis op
    assert len(kernels) == 6 and len(builds) == 2 * 6 + sum(len(b) for b in want[2::3])
    # a budget that fits the results of degrees up to 5 (98 KiB) but not
    # one of degree 6 more (52 KiB or more): the total stays within it, and
    # only what is not kept is built again
    budget = 128 * 1024
    monkeypatch.setattr(cohomology, "_KEPT_BYTES", budget)
    spec = load_algebra(bundled_path("dual_numbers.json"))
    assert preimages_and_bases(spec, 6) == want
    kept = spec._kept
    assert sum(size for _, size in kept.values()) <= budget
    assert all(size == cohomology._nbytes(result) for result, size in kept.values())
    assert set(kept) == {("echelon", n) for n in range(6)} | {("basis", n) for n in range(1, 6)}
    builds.clear()
    kernels.clear()
    assert preimages_and_bases(spec, 6) == want
    assert set(builds) == {6} and kernels == [2**7]


def test_kept_bytes_bound_the_memory_a_result_holds(monkeypatch):
    # a dict or tuple freed elsewhere stays on the interpreter's free lists,
    # where tracemalloc still counts it: 32 KiB of slack covers them
    monkeypatch.setattr(cohomology, "_KEPT_BYTES", 0)
    spec = load_algebra(bundled_path("dual_numbers.json"))
    big = split_algebra(2**64)
    scaled = scaled_dual_numbers()
    builds = [
        lambda: cohomology._echelon(coboundary_matrix(spec, 8)),
        lambda: cohomology._echelon(coboundary_matrix(big, 6)),
        lambda: cohomology._echelon(coboundary_matrix(scaled, 8)),
        lambda: cohomology._basis(spec, 8),
        lambda: cohomology._basis(big, 6),
    ]
    for build in builds:
        build()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = build()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held > 100 * 1024
        assert held <= cohomology._nbytes(result) + 32 * 1024


def test_work_cap_bounds_dim_one_and_admits_every_size_capped_table():
    # the largest table the coefficient cap admits, dim 2 to degree 14
    assert sum(2 ** (n + 1) * (n + 2) for n in range(15)) == WORK_CAP
    # the largest brace it admits at dim >= 2: k operands into degree 15 at
    # dim 2, in C(15, k) terms of k insertions
    assert max(k * math.comb(15, k) for k in range(16)) == 15 * math.comb(14, 7) == 51480
    assert 51480 <= WORK_CAP
    field = load_algebra(bundled_path("field.json"))
    # dim 1 to degree n_max makes (n_max + 1) * (n_max + 4) / 2 insertions
    assert 1400 * 1403 // 2 <= WORK_CAP < 1401 * 1404 // 2
    with pytest.raises(SizeCapError, match="insertions"):
        betti_table(field, 1400)
    # a target degree of SIZE_CAP or more is refused by the size rule first
    for spec in (field, load_algebra(bundled_path("dual_numbers.json"))):
        for n_max in (10**9, 10**18):
            with pytest.raises(SizeCapError, match="is over the size cap"):
                betti_table(spec, n_max)


def test_image_sits_inside_kernel():
    for name in ("field.json", "dual_numbers.json", "mat2.json"):
        spec = load_algebra(bundled_path(name))
        for n in range(1, 3):
            # rank(d|C^(n-1)) + rank(d|C^n) <= dim C^n
            rank_prev = exact_rank(coboundary_matrix(spec, n - 1))
            rank_n = exact_rank(coboundary_matrix(spec, n))
            assert rank_prev + rank_n <= spec.dim ** (n + 1)


# --- cocycles and preimages --------------------------------------------------


def test_cocycle_basis_dimensions_dual_numbers():
    spec = load_algebra(bundled_path("dual_numbers.json"))
    assert [len(cocycle_basis(spec, n)) for n in (1, 2, 3)] == [1, 4, 5]
    for n in (1, 2, 3):
        for op in cocycle_basis(spec, n):
            assert is_zero(coboundary(spec.mu, op))


def test_cocycle_bases_are_pinned():
    # the digest of the bases as lists of coefficients, pinned from the
    # dense kernel: the same vectors, in the same order, with the same
    # Python types; and each op is on the int64 path
    bases = []
    for name, n_max in (("dual_numbers.json", 10), ("mat2.json", 2), ("field.json", 5)):
        spec = load_algebra(bundled_path(name))
        for n in range(n_max + 1):
            basis = cocycle_basis(spec, n)
            assert all(op._ints is not None for op in basis), (name, n)
            bases.append([op.coeffs.tolist() for op in basis])
    digest = hashlib.sha256(repr(bases).encode()).hexdigest()
    assert digest == "8800db7d73ed6738cc28909575c08bd211d8cf207c55ebf7bbe97607a09e6749"


def test_elimination_is_pinned():
    # the pivots with their reduced rows (keys in order), one solution and
    # the kernel of full and normalized matrices with integer and Fraction
    # entries, and of a dense mu that fills rows in, pinned from an
    # elimination that built every row anew
    mat2, _ = rebased(load_algebra(bundled_path("mat2.json")), random.Random(3))
    names = (("dual_numbers.json", 8), ("mat2.json", 3), ("field.json", 5))
    specs = [(load_algebra(bundled_path(name)), n_max) for name, n_max in names]
    specs += [(scaled_dual_numbers(), 8), (mat2, 2)]
    out = []
    for spec, n_max in specs:
        mu = spec.mu.coeffs.tolist()
        for n in range(n_max + 1):
            for unit in (None, spec.unit):
                m = cohomology._coboundary(mu, spec.dim, n, unit)
                rng = random.Random(f"{spec.name} {n}")
                x = [rng.randint(-2, 2) for _ in range(m.cols)]
                target = [sum(v * x[c] for c, v in row.items()) for row in m.sparse_rows]
                rows, ncols, _ = cohomology._rows(m)
                pivots, _ = cohomology._reduce(rows, ncols)
                reduced = [(c, list(rows[p].items())) for p, c in pivots.items()]
                out.append((reduced, solve_linear(m, target), nullspace(m)))
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == "5f93b2dfd5aae94c5acb2e2e87a53450a00f524a7ec1639985948ddb75a77f65"


def test_wide_kernel_runs_in_bounded_memory():
    # the full dual numbers coboundary at n=13 is 32768 x 16384 with 5461
    # kernel vectors of a few nonzeros each; as dense lists of 16384
    # Fractions they would take over 700 MiB.  The alarm bounds a hung child.
    code = (
        "import signal; signal.alarm(120)\n"
        "from operadics.bundled import bundled_path\n"
        "from operadics.cohomology import coboundary_matrix, load_algebra, nullspace\n"
        "spec = load_algebra(bundled_path('dual_numbers.json'))\n"
        "assert len(nullspace(coboundary_matrix(spec, 13))) == 5461\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    child = subprocess.Popen([sys.executable, "-c", code], env=env)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0
    assert usage.ru_maxrss < 200 * 1024  # KiB


def test_random_cocycles_are_cocycles():
    spec = load_algebra(bundled_path("dual_numbers.json"))
    rng = random.Random(8)
    for _ in range(20):
        f = random_cocycle(rng, spec, rng.choice([1, 2, 3]))
        assert is_zero(coboundary(spec.mu, f))


def test_random_cocycle_matches_the_weighted_sum_of_its_basis():
    # the weights are drawn in basis order, and the result equals the sum
    # of weight * basis op added one at a time, value and Python type alike,
    # with the bound the constructor would give.  The cases take the int64
    # path (dual numbers), the Python-int path for a sum that could pass
    # int64 (split 2**30, whose sum fits, and 2**31, whose sum does not)
    # and for a basis past int64 (split 2**64), and the empty basis (the
    # field in degree 1)
    field = load_algebra(bundled_path("field.json"))
    dual = load_algebra(bundled_path("dual_numbers.json"))
    cases = [(dual, 1, True), (dual, 2, True), (dual, 3, True), (field, 1, True)]
    cases += [(split_algebra(n), 2, False) for n in (2**30, 2**31, 2**64)]

    def bound(op):
        return None if op._ints is None else op._ints[1]

    for spec, degree, on_int64 in cases:
        basis = cocycle_basis(spec, degree)
        bounds = list(map(bound, basis))
        assert on_int64 == (None not in bounds and 3 * sum(bounds) < 2**62)
        rng, twin = random.Random(degree), random.Random(degree)
        got = random_cocycle(rng, spec, degree)
        want = zero_op(spec.dim, degree)
        for b in basis:
            want = want + twin.randint(-3, 3) * b
        assert got == want
        assert list(map(type, got.coeffs)) == list(map(type, want.coeffs))
        assert bound(got) == bound(MultiOp(spec.dim, degree, ENDO, got.coeffs))
        assert rng.random() == twin.random()
    assert cocycle_basis(field, 1) == []
    assert [op._ints for op in cocycle_basis(split_algebra(2**64), 2)] == [None] * 4


def test_is_coboundary_recovers_constructed_images():
    spec = load_algebra(bundled_path("dual_numbers.json"))
    rng = random.Random(3)
    for deg in (0, 1, 2):
        from operadics.multiop import random_op

        g = random_op(rng, 2, deg, ENDO)
        target = coboundary(spec.mu, g)
        back = is_coboundary(spec, target)
        assert back is not None
        assert coboundary(spec.mu, back) == target


def test_is_coboundary_rejects_nontrivial_classes():
    # rank of the degree-0 map is 0 here, so no degree-1 cocycle is exact
    spec = load_algebra(bundled_path("dual_numbers.json"))
    witness = cocycle_basis(spec, 1)[0]
    assert not is_zero(witness)
    assert is_coboundary(spec, witness) is None


def test_is_coboundary_degree_zero_raises():
    spec = load_algebra(bundled_path("field.json"))
    with pytest.raises(DegreeMismatchError):
        is_coboundary(spec, basis_op(1, 0, 0))


def test_cocycle_helpers_require_associativity():
    spec = _nonassociative_spec()
    with pytest.raises(NotAssociativeError):
        cocycle_basis(spec, 1)


# --- the normalized complex --------------------------------------------------


def full_table(spec, n_max):
    """The Betti table ranked on the full complex, degree by degree: the
    oracle of betti_table's normalized path."""
    dims, ranks, kernels, betti = [], [], [], []
    prev_rank = 0
    for n in range(n_max + 1):
        dims.append(spec.dim ** (n + 1))
        ranks.append(exact_rank(coboundary_matrix(spec, n)))
        kernels.append(dims[-1] - ranks[-1])
        betti.append(kernels[-1] - prev_rank)
        prev_rank = ranks[-1]
    return tuple(dims), tuple(ranks), tuple(kernels), tuple(betti)


def scaled_dual_numbers():
    """Q[x]/(x^2) on the basis 1/2, x, whose unit is 2 e_0."""
    half = Fraction(1, 2)
    return AlgebraSpec.from_structure_constants(
        "scaled", 2, [half, 0, 0, 0, 0, half, half, 0]
    )


def rebased(spec, rng):
    """spec in the basis of the columns of a random unimodular integer
    matrix P, with its unit in the new coordinates (Q = P^-1 times it)."""
    d = spec.dim
    p = [[int(i == j) for j in range(d)] for i in range(d)]
    q = [row[:] for row in p]
    for _ in range(d if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        t = rng.choice((-1, 1))
        # P <- P (I + t E_ij) and Q <- (I - t E_ij) Q
        for row in p:
            row[j] += t * row[i]
        q[i] = [a - t * b for a, b in zip(q[i], q[j])]
    mu = spec.mu.coeffs.reshape(d, d, d)
    out = [0] * d**3
    for x2 in range(d):
        for y2 in range(d):
            for z2 in range(d):
                out[(x2 * d + y2) * d + z2] = sum(
                    q[x2][x] * mu[x, y, z] * p[y][y2] * p[z][z2]
                    for x in range(d)
                    for y in range(d)
                    for z in range(d)
                    if mu[x, y, z]
                )
    unit = None
    if spec.unit is not None:
        unit = tuple(sum(q[i][j] * spec.unit[j] for j in range(d)) for i in range(d))
    return AlgebraSpec.from_structure_constants(spec.name, d, out), unit


# (spec, its unit, the degree where its full table takes about 1 s)
def unital_cases():
    return [
        (load_algebra(bundled_path("field.json")), (1,), 20),
        (load_algebra(bundled_path("dual_numbers.json")), (1, 0), 12),
        (load_algebra(bundled_path("mat2.json")), (1, 0, 0, 1), 4),
        (truncated_polynomials(3), (1, 0, 0), 5),
        (upper_triangular(), (1, 0, 1), 6),
        (scaled_dual_numbers(), (2, 0), 11),
    ]


def one_sided_unit():
    """a b = b for all a, b on dim 2: associative, every e_j a left unit,
    no right unit."""
    mu = [int(x == z) for x in range(2) for y in range(2) for z in range(2)]
    return AlgebraSpec.from_structure_constants("left units", 2, mu)


def test_betti_table_equals_the_full_complex_on_unital_algebras():
    for spec, unit, n_max in unital_cases():
        assert spec.unit == unit, spec.name
        table = betti_table(spec, n_max)
        got = (table.dims, table.ranks, table.kernels, table.betti)
        assert got == full_table(spec, n_max), spec.name


def test_betti_table_is_invariant_under_unimodular_changes_of_basis():
    rng = random.Random(13)
    cases = [(spec, n_max) for spec, _, n_max in unital_cases()[1:]]
    for spec, n_max in cases:
        for _ in range(2):
            other, unit = rebased(spec, rng)
            assert other.is_associative() and other.unit == unit, spec.name
            # the change merges the blocks of the full complex; keep it quick
            depth = min(n_max, {2: 6, 3: 3, 4: 2}[spec.dim])
            table = betti_table(other, depth)
            got = (table.dims, table.ranks, table.kernels, table.betti)
            assert got == full_table(other, depth), spec.name
            assert table.betti == betti_table(spec, depth).betti, spec.name


def test_non_unital_algebras_take_the_full_complex():
    zero = AlgebraSpec.from_structure_constants("zero", 1, [0])
    left = one_sided_unit()
    for spec, n_max in ((zero, 12), (left, 6)):
        assert spec.unit is None, spec.name
        table = betti_table(spec, n_max)
        got = (table.dims, table.ranks, table.kernels, table.betti)
        assert got == full_table(spec, n_max), spec.name
    assert AlgebraSpec.from_structure_constants("zero", 2, [0] * 8).unit is None


def unit_projection(spec):
    """The degree-1 op P that fixes e_j for j != k and sends e_k to
    -sum of (u_j / u_k) e_j over j != k, so that P(u) = 0; k is the input
    digit the normalized complex skips."""
    d, u = spec.dim, spec.unit
    k = min((j for j in range(d) if u[j]), key=lambda j: abs(u[j]) != 1)
    p = np.zeros(d * d, dtype=object)  # p[x * d + y] is e_x in P(e_y)
    for j in range(d):
        p[j * d + j] = int(j != k)
        if j != k:
            r = -Fraction(u[j]) / u[k]
            p[j * d + k] = r.numerator if r.denominator == 1 else r
    return MultiOp(d, 1, ENDO, p), k


def lift(spec, projection, k, n, column):
    """The normalized degree-n cochain whose values on inputs avoiding
    e_k are the compact column [(index, value)]: the elementary ops it
    names, composed with P on every input."""
    d = spec.dim
    data = np.zeros(d ** (n + 1), dtype=object)
    for index, value in column:
        a, rest = divmod(index, (d - 1) ** n)
        full = a
        for i in reversed(range(n)):
            digit = rest // (d - 1) ** i % (d - 1)
            full = full * d + digit + (digit >= k)
        data[full] = value
    f = MultiOp(d, n, ENDO, data)
    for i in range(n):
        f = partial_compose(f, projection, i)
    return f


def test_normalized_matrix_equals_the_brace_kernel_on_lifted_cochains():
    for spec, _, n_max in unital_cases():
        d = spec.dim
        projection, k = unit_projection(spec)
        mu = spec.mu.coeffs.tolist()
        for n in range(min(n_max, 3) + 1):
            matrix = cohomology._coboundary(mu, d, n, spec.unit)
            assert matrix.cols == d * (d - 1) ** n
            assert matrix.rows == d * (d - 1) ** (n + 1)
            for c in range(matrix.cols):
                column = [(r, row[c]) for r, row in enumerate(matrix.sparse_rows) if c in row]
                f = lift(spec, projection, k, n, [(c, 1)])
                want = lift(spec, projection, k, n + 1, column)
                assert coboundary(spec.mu, f) == want, (spec.name, n, c)
