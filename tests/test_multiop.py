"""Storage layer and partial composition, checked against loop-based oracles.

The composition oracle below contracts coefficient tensors with plain nested
loops over index tuples, so it shares no code path with the matmul kernel
it is checking.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from operadics import multiop
from operadics.braces import bracket, brace
from operadics.cohomology import (
    AlgebraSpec,
    cocycle_basis,
    is_coboundary,
    random_cocycle,
)
from operadics.errors import (
    ArityMismatchError,
    BackendMismatchError,
    DimMismatchError,
    ParseError,
    ShapeMismatchError,
    SizeCapError,
    SlotOutOfRangeError,
    VarianceMismatchError,
)
from operadics.multiop import (
    COENDO,
    ENDO,
    EXACT,
    FLOAT,
    MultiOp,
    add,
    allclose,
    apply,
    identity_op,
    is_zero,
    max_abs_diff,
    op_norm,
    partial_compose,
    random_op,
    scale,
    sub,
    zero_op,
    _evaluate,
    _terms,
)
from operadics.scalars import sign_pow
from operadics.verify import diagonal_mu


# --- oracles -----------------------------------------------------------


def _pos(digits, dim):
    """Mixed-radix value of an index tuple, most significant digit first."""
    out = 0
    for b in digits:
        out = out * dim + b
    return out


def _digit_tuples(dim, length):
    if length == 0:
        yield ()
        return
    for head in range(dim):
        for rest in _digit_tuples(dim, length - 1):
            yield (head,) + rest


def compose_oracle(f, g, slot):
    """Partial composition by explicit summation over all index tuples."""
    d = f.dim
    m, n = f.degree, g.degree
    out = np.zeros(d ** (m + n), dtype=object)
    for a in range(d):
        for pre in _digit_tuples(d, slot):
            for post in _digit_tuples(d, m - 1 - slot):
                for body in _digit_tuples(d, n):
                    for s in range(d):
                        out[_pos((a,) + pre + body + post, d)] += (
                            f.coeffs[_pos((a,) + pre + (s,) + post, d)]
                            * g.coeffs[_pos((s,) + body, d)]
                        )
    sign = sign_pow(slot * (g.degree - 1))
    return MultiOp(d, m + n - 1, f.variance, sign * out)


def _fraction_op(rng, dim, degree, variance):
    size = dim ** (degree + 1)
    values = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(size)]
    return MultiOp(dim, degree, variance, values)


def _rand_pair(seed, kind="int"):
    """Random f, g and a slot of f; kind is "int", "float" or "fraction"."""
    rng = random.Random(seed)
    d = rng.randint(1, 3)
    deg_f = rng.randint(1, 3)
    deg_g = rng.randint(0, 3)
    variance = rng.choice([ENDO, COENDO])
    if kind == "fraction":
        f = _fraction_op(rng, d, deg_f, variance)
        g = _fraction_op(rng, d, deg_g, variance)
    else:
        backend = FLOAT if kind == "float" else EXACT
        f = random_op(rng, d, deg_f, variance, backend)
        g = random_op(rng, d, deg_g, variance, backend)
    return f, g, rng.randrange(deg_f)


# --- layout ------------------------------------------------------------


def flat_index(dim, degree, primary, secondary):
    """Flat position of the coefficient with the given index tuple."""
    if len(secondary) != degree:
        raise ArityMismatchError(f"need {degree} secondary indices")
    out = primary
    for b in secondary:
        out = out * dim + b
    return out


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_flat_index_is_the_mixed_radix_position(dim, degree, data):
    primary = data.draw(st.integers(min_value=0, max_value=dim - 1))
    secondary = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=dim - 1),
            min_size=degree,
            max_size=degree,
        )
    )
    assert flat_index(dim, degree, primary, secondary) == _pos(
        [primary] + secondary, dim
    )


def test_flat_index_enumerates_every_slot_once():
    d, degree = 3, 2
    seen = {
        flat_index(d, degree, a, bs)
        for a in range(d)
        for bs in _digit_tuples(d, degree)
    }
    assert seen == set(range(d ** (degree + 1)))


def test_flat_index_rejects_wrong_secondary_count():
    with pytest.raises(ArityMismatchError):
        flat_index(2, 2, 0, [1])


# --- construction and equality -----------------------------------------


def test_constructor_rejects_wrong_coefficient_count():
    with pytest.raises(Exception):
        MultiOp(2, 1, ENDO, np.zeros(3, dtype=np.int64))


def test_non_scalar_coefficients_are_a_shape_mismatch():
    for value in ("a", None, 1j, [1]):
        with pytest.raises(ShapeMismatchError, match=f"type {type(value).__name__}:") as info:
            MultiOp(1, 1, ENDO, [value])
        assert len(str(info.value).splitlines()) == 1
    # a numpy float is a float, as in a float32 array
    single = MultiOp(1, 1, ENDO, [np.float32(1.5)])
    assert single.backend == FLOAT
    assert single == MultiOp(1, 1, ENDO, np.array([1.5], dtype=np.float32))
    # the exact-only algebra constructor reads each inexact entry as a parse error
    for value in ("1", 1.5, np.float64(1.5), None):
        with pytest.raises(ParseError):
            AlgebraSpec.from_structure_constants("x", 1, [value])


def test_integral_fractions_take_the_int64_form():
    op = MultiOp(1, 1, ENDO, [Fraction(4, 2)])
    assert op._ints is not None and op._ints[1] == 2
    assert op.coeffs.tolist() == [2] and type(op.coeffs.tolist()[0]) is int


def test_int64_input_makes_its_object_coeffs_on_first_read():
    op = MultiOp(2, 1, ENDO, np.array([1, -5, 0, 2], dtype=np.int64))
    assert "coeffs" not in op.__dict__ and op._ints[1] == 5
    assert_python_scalars(op)
    assert "coeffs" in op.__dict__ and op.coeffs.tolist() == [1, -5, 0, 2]


def test_equality_includes_backend_and_variance():
    a = MultiOp(1, 1, ENDO, np.array([1], dtype=np.int64))
    b = MultiOp(1, 1, ENDO, np.array([1.0]))
    c = MultiOp(1, 1, COENDO, np.array([1], dtype=np.int64))
    assert a != b
    assert a != c
    assert a == MultiOp(1, 1, ENDO, np.array([1], dtype=np.int64))


def test_coefficients_are_copied_and_frozen():
    src = np.array([1, 2], dtype=np.int64)
    op = MultiOp(2, 0, ENDO, src)
    src[0] = 99
    assert op.coeffs[0] == 1
    with pytest.raises(ValueError):
        op.coeffs[0] = 5
    # the op itself is frozen, on the object and the int64 path alike
    for frozen in (op, random_op(random.Random(0), 2, 1)):
        with pytest.raises(AttributeError):
            frozen.coeffs = np.zeros(2)
        with pytest.raises(AttributeError):
            del frozen.dim


def test_zero_and_identity_shapes():
    z = zero_op(3, 2)
    assert z.coeffs.shape == (27,) and is_zero(z)
    unit = identity_op(3)
    assert unit.degree == 1
    assert unit.coeffs.reshape(3, 3).tolist() == np.eye(3, dtype=int).tolist()


# --- linear structure ---------------------------------------------------


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_add_scale_sub_are_coefficientwise(seed):
    rng = random.Random(seed)
    d = rng.randint(1, 3)
    deg = rng.randint(0, 3)
    f = random_op(rng, d, deg)
    g = random_op(rng, d, deg)
    k = rng.randint(-4, 4)
    assert add(f, g).coeffs.tolist() == (f.coeffs + g.coeffs).tolist()
    assert sub(f, g).coeffs.tolist() == (f.coeffs - g.coeffs).tolist()
    assert scale(k, f).coeffs.tolist() == (k * f.coeffs).tolist()
    assert (f + g) == add(f, g)
    assert (f - g) == sub(f, g)
    assert (-f) == scale(-1, f)
    assert (k * f) == scale(k, f)


def test_fraction_scale_promotes_to_object_backend():
    f = MultiOp(1, 1, ENDO, np.array([3], dtype=np.int64))
    out = scale(Fraction(1, 3), f)
    assert out.backend == EXACT
    assert out.coeffs[0] == 1
    half = scale(Fraction(1, 2), f)
    assert half.coeffs[0] == Fraction(3, 2)


def test_mixing_backends_raises():
    f = MultiOp(1, 1, ENDO, np.array([1], dtype=np.int64))
    g = MultiOp(1, 1, ENDO, np.array([1.0]))
    with pytest.raises(BackendMismatchError):
        add(f, g)
    with pytest.raises(BackendMismatchError):
        partial_compose(f, g, 0)
    with pytest.raises(BackendMismatchError):
        scale(0.5, f)


def test_int64_addition_overflow_promotes_exactly():
    big = 2**62 - 1
    f = MultiOp(1, 0, ENDO, np.array([big], dtype=np.int64))
    out = add(f, f)
    assert out.backend == EXACT
    assert out.coeffs[0] == 2 * big


# --- exactness beyond int64 --------------------------------------------

# Coefficients at the edges of machine integers: none of them may wrap.
_EDGES = [0, 2**31, 2**62 - 1, 2**62, 2**62 + 1, 2**63, 2**80]
big_ints = st.builds(
    lambda base, sign, offset: sign * base + offset,
    st.sampled_from(_EDGES),
    st.sampled_from([1, -1]),
    st.integers(min_value=-1, max_value=1),
)


def big_op(data, dim, degree):
    values = data.draw(
        st.lists(big_ints, min_size=dim ** (degree + 1), max_size=dim ** (degree + 1))
    )
    return MultiOp(dim, degree, ENDO, values)


def assert_python_scalars(op):
    """Exact results hold Python ints and Fractions, never numpy integers."""
    assert op.coeffs.dtype == object
    bad = [x for x in op.coeffs.tolist() if type(x) not in (int, Fraction)]
    assert not bad, bad


@given(
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_compose_is_exact_beyond_int64(dim, deg_f, deg_g, data):
    f, g = big_op(data, dim, deg_f), big_op(data, dim, deg_g)
    i = data.draw(st.integers(min_value=0, max_value=deg_f - 1))
    got = partial_compose(f, g, i)
    assert_python_scalars(got)
    assert got.coeffs.tolist() == compose_oracle(f, g, i).coeffs.tolist()


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2),
    big_ints,
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_add_and_scale_are_exact_beyond_int64(dim, degree, k, data):
    f, g = big_op(data, dim, degree), big_op(data, dim, degree)
    a, b = f.coeffs.tolist(), g.coeffs.tolist()
    results = {
        "add": (add(f, g), [x + y for x, y in zip(a, b)]),
        "sub": (sub(f, g), [x - y for x, y in zip(a, b)]),
        "scale": (scale(k, f), [k * x for x in a]),
        "scale_np": (scale(np.int64(2**62), f), [2**62 * x for x in a]),
        "scale_frac": (scale(Fraction(k, 3), f), [Fraction(k, 3) * x for x in a]),
    }
    for name, (op, want) in results.items():
        assert_python_scalars(op)
        assert op.coeffs.tolist() == want, name


def test_numpy_integers_do_not_wrap():
    one = MultiOp(1, 1, ENDO, [1])
    out = scale(np.int64(2**62), MultiOp(1, 1, ENDO, [4]))
    assert out == 2**64 * one
    listed = MultiOp(1, 1, ENDO, [np.int64(2**62)])
    assert_python_scalars(listed)
    assert scale(4, listed) == out
    assert add(listed, listed) == 2**63 * one
    # an object array from the caller is normalised the same way
    boxed = MultiOp(1, 1, ENDO, np.array([np.int64(2**62)], dtype=object))
    assert_python_scalars(boxed)
    assert scale(4, boxed) == out
    assert add(boxed, boxed) == 2**63 * one
    entries = np.array([[np.int32(3), 1], [Fraction(1, 2), 0]], dtype=object)
    mixed = MultiOp(2, 1, ENDO, entries)
    assert_python_scalars(mixed)
    assert mixed.coeffs.tolist() == [3, 1, Fraction(1, 2), 0]


def test_exact_constructors_build_python_scalars():
    spec = AlgebraSpec.from_structure_constants(
        "dual", 2, [1, 0, 0, 0, 0, Fraction(2, 2), 1, 0]
    )
    rng = random.Random(5)
    cocycle = random_cocycle(rng, spec, 2)
    ops = [
        zero_op(2, 2),
        identity_op(3),
        random_op(rng, 2, 2),
        MultiOp(2, 0, ENDO, np.array([1, 2], dtype=np.int32)),
        diagonal_mu(2),
        spec.mu,
        cocycle,
        *cocycle_basis(spec, 1),
        is_coboundary(spec, zero_op(2, 1)),
    ]
    for op in ops:
        assert_python_scalars(op)


# --- int64 representation ---------------------------------------------


def _edge_ints(dim):
    """Entries at the edges of the int64 path: its limit over dim (where a
    contraction's bound crosses it), the limit itself and int64's end."""
    bases = [2**62 // dim, 2**62, 2**63]
    return st.builds(
        lambda base, sign, offset: sign * (base + offset),
        st.sampled_from(bases),
        st.sampled_from([1, -1]),
        st.integers(min_value=-1, max_value=1),
    )


def _drawn_op(data, dim, degree):
    """An op of small ints (the int64 path), of small and edge ints, of one
    repeated small or edge int (whose contractions reach their bounds), or of
    small ints and Fractions (the object path)."""
    small = st.integers(min_value=-3, max_value=3)
    size = dim ** (degree + 1)
    kind = data.draw(st.sampled_from(["small", "edge", "constant", "fraction"]))
    if kind == "constant":
        return MultiOp(dim, degree, ENDO, [data.draw(st.one_of(small, _edge_ints(dim)))] * size)
    entry = {
        "small": small,
        "edge": st.one_of(small, _edge_ints(dim)),
        "fraction": st.one_of(small, st.builds(Fraction, small, st.integers(1, 3))),
    }[kind]
    return MultiOp(dim, degree, ENDO, data.draw(st.lists(entry, min_size=size, max_size=size)))


def _on_objects(fn, *ops):
    """fn on copies of the ops with the int64 path switched off."""
    with mock.patch.object(multiop, "_INT_LIMIT", 0):
        return fn(*[MultiOp(op.dim, op.degree, op.variance, op.coeffs) for op in ops])


def _chunked(fn, *ops):
    """fn with every sum of terms split into chunks of one term."""
    multiop._compile.cache_clear()
    try:
        with mock.patch.object(multiop, "_STACK_ENTRIES", 1):
            return fn(*ops)
    finally:
        multiop._compile.cache_clear()


@given(st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=150, deadline=None)
def test_int64_path_equals_the_object_path(dim, data):
    deg = data.draw(st.integers(min_value=1, max_value=3))
    h, f = _drawn_op(data, dim, deg), _drawn_op(data, dim, deg)
    g, v = _drawn_op(data, dim, data.draw(st.integers(1, 2))), _drawn_op(data, dim, 0)
    i = data.draw(st.integers(min_value=0, max_value=deg - 1))
    k = data.draw(st.one_of(st.integers(-3, 3), _edge_ints(dim)))
    # results of the kernel feed the linear maps as int64 or object operands
    calls = {
        "compose": (lambda h, g: partial_compose(h, g, i), (h, g)),
        "compose_vector": (lambda h, v: partial_compose(h, v, i), (h, v)),
        "brace": (lambda h, g: brace(h, g, g), (h, g)),
        "bracket": (bracket, (h, g)),
        "chained": (lambda h, g: add(brace(h, g), scale(k, brace(h, g))), (h, g)),
        "add": (add, (h, f)),
        "sub": (sub, (h, f)),
        "scale": (lambda h: scale(k, h), (h,)),
        "scale_frac": (lambda h: scale(Fraction(k, 3), h), (h,)),
        "scale_after_compose": (lambda h, g: scale(k, partial_compose(h, g, i)), (h, g)),
    }
    if -(2**63) <= k < 2**63:
        calls["scale_np"] = (lambda h: scale(np.int64(k), h), (h,))
    for name, (fn, ops) in calls.items():
        got = fn(*ops)
        want = _on_objects(fn, *ops)
        assert_python_scalars(got)
        assert got.coeffs.tolist() == want.coeffs.tolist(), name
        assert got == want and (got == h) == _on_objects(MultiOp.__eq__, got, h), name
        assert is_zero(got) == _on_objects(is_zero, got), name
        assert is_zero(sub(got, got)), name
    assert _chunked(brace, h, g, g) == _on_objects(brace, h, g, g)
    assert _chunked(bracket, h, f) == _on_objects(bracket, h, f)


def test_small_integer_results_stay_on_int64():
    rng = random.Random(4)
    f, g = random_op(rng, 2, 3), random_op(rng, 2, 2)
    results = [
        partial_compose(f, g, 1),
        brace(f, g, g),
        bracket(f, g),
        add(f, f),
        sub(f, f),
        scale(np.int64(-5), f),
        scale(2**40, g),
    ]
    assert all(op._ints is not None for op in results)
    assert all(type(x) is int for op in results for x in op.coeffs.tolist())
    # at the limit each falls back to exact Python ints, and the guard's
    # own arithmetic never wraps
    fallbacks = []
    with mock.patch.object(multiop, "_on_object_path", lambda: fallbacks.append(1)):
        big = scale(2**59, f)
        assert big._ints is not None
        assert add(big, big)._ints is not None and add(big, add(big, big))._ints is None
        assert scale(np.int64(2**62), MultiOp(1, 1, ENDO, [4])).coeffs.tolist() == [2**64]
        out = partial_compose(big, g, 0)
        assert out._ints is None and fallbacks == [1]
        assert out == 2**59 * partial_compose(f, g, 0)
        # bound(h) * bound(g) is below the limit, but the dim products of
        # each entry sum past int64
        h = MultiOp(3, 1, ENDO, [2**62 // 3] * 9)
        out = partial_compose(h, MultiOp(3, 1, ENDO, [3] * 9), 0)
        assert out.coeffs.tolist() == [9 * (2**62 // 3)] * 9 and fallbacks == [1, 1]


# --- partial composition -----------------------------------------------


def test_scalar_composition_signs_frozen():
    # dim 1: every graded piece is one scalar, composition is multiplication
    # times (-1)**(slot * reduced degree of the inner operand).
    f = MultiOp(1, 2, ENDO, np.array([2], dtype=np.int64))
    g = MultiOp(1, 2, ENDO, np.array([3], dtype=np.int64))
    assert partial_compose(f, g, 0).coeffs[0] == 6
    assert partial_compose(f, g, 1).coeffs[0] == -6
    h = MultiOp(1, 3, ENDO, np.array([5], dtype=np.int64))
    assert partial_compose(f, h, 0).coeffs[0] == 10
    assert partial_compose(f, h, 1).coeffs[0] == 10  # (-1)**(1*2)


def test_partial_compose_matches_loop_oracle():
    for kind in ("int", "fraction", "float"):
        for seed in range(300):
            f, g, i = _rand_pair(seed, kind)
            got = partial_compose(f, g, i)
            want = compose_oracle(f, g, i)
            assert got.degree == want.degree
            assert got.backend == want.backend == f.backend
            if kind == "float":
                # the kernel may sum in another order: relative 1e-14
                top = max(1.0, float(np.abs(want.coeffs).max()))
                err = float(np.abs(got.coeffs - want.coeffs).max())
                assert err <= 1e-14 * top, seed
            else:
                assert_python_scalars(got)
                assert got.coeffs.tolist() == want.coeffs.tolist(), seed


def test_partial_compose_equals_its_brace_term_on_floats():
    # dim 2, degrees 4-13 is where a separate matmul kernel rounded some
    # slots differently from the brace plan; one kernel makes every slot
    # equal to its term of f{g} to the last bit
    rng = random.Random(11)
    for m in range(4, 14):
        f = random_op(rng, 2, m, ENDO, FLOAT)
        for n in (1, 2):
            g = random_op(rng, 2, n, ENDO, FLOAT)
            _, _, _, plans = _terms(f, (g,))
            stacks = [_evaluate(plan, (f.coeffs, g.coeffs)) for plan in plans]
            terms = np.concatenate(stacks)
            for i in range(m):
                got = partial_compose(f, g, i).coeffs
                assert np.array_equal(got, terms[i]), (m, n, i)


def reference_plan(d, deg_h, degs, sign, rows):
    """The brace plan with every index computed by // and % arithmetic: the
    builder the transposed-arange one replaced, kept as its oracle."""
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
        w = d ** (m - 1 - slot)
        rest = np.arange(d**m)[None, :, None]
        moved = (rest // w) * w * d + np.arange(d)[None, None, :] * w + rest % w
        gathers.append(layout[parent[first][:, None, None], moved].reshape(-1, d))
        span, size = d**n, d ** (m + n)
        pos = np.arange(size)[None, :]
        w = w[:, :, 0]
        row = (pos // (span * w)) * w + pos % w
        layout = np.arange(len(first))[:, None] * size + row * span + (pos // w) % span
        parent = np.cumsum(new) - 1
        m += n - 1
    odd = (slots * (np.array(degs) - 1)).sum(axis=1) % 2 == 1
    negative = odd if sign > 0 else ~odd
    if negative.all():
        return tuple(gathers), -1, layout
    if negative.any():
        return tuple(gathers), 0, layout + negative[:, None] * layout.size
    return tuple(gathers), 1, layout


def test_plan_indices_equal_the_reference_builder():
    checked = 0
    for d in (1, 2, 3):
        for deg_h in range(1, 7):
            for k in range(1, min(deg_h, 3) + 1):
                for degs in product(range(3), repeat=k):
                    if d ** (deg_h + 1 + sum(degs)) > 2**14:
                        continue
                    rows = list(combinations(range(deg_h), k))
                    for sign, chosen in product((1, -1), (rows, rows[-1:], rows[::2])):
                        got = multiop._plan(d, deg_h, degs, sign, chosen)
                        want = reference_plan(d, deg_h, degs, sign, chosen)
                        assert got[1] == want[1]
                        assert len(got[0]) == len(want[0])
                        for a, b in zip((*got[0], got[2]), (*want[0], want[2])):
                            assert a.dtype == b.dtype and np.array_equal(a, b)
                        checked += 1
    # the one-slot plans of the largest compositions, built on every call
    for m, n in ((15, 1), (14, 2), (13, 3)):
        for i in range(m):
            got = multiop._plan(2, m, (n,), 1, [(i,)])
            want = reference_plan(2, m, (n,), 1, [(i,)])
            assert got[1] == want[1] and np.array_equal(got[2], want[2])
            assert np.array_equal(got[0][0], want[0][0]), (m, n, i)
    assert checked > 1000


def test_backend_is_set_on_every_construction_path():
    rng = random.Random(11)
    cases = [
        (MultiOp(2, 0, ENDO, [0.5, 1.0]), FLOAT),
        (MultiOp(2, 0, ENDO, [1, 2]), EXACT),
        (MultiOp(2, 0, ENDO, [Fraction(1, 2), 1]), EXACT),
        (MultiOp(2, 0, ENDO, np.array([1, 2], dtype=np.int64)), EXACT),
        (MultiOp(2, 0, ENDO, np.array([0.5, 2.0], dtype=object)), FLOAT),
    ]
    for backend in (EXACT, FLOAT):
        f = random_op(rng, 2, 2, ENDO, backend)
        g = random_op(rng, 2, 1, ENDO, backend)
        cases += [
            (f, backend),
            (add(f, f), backend),
            (scale(3, f), backend),
            (partial_compose(f, g, 1), backend),
            (partial_compose(g, f, 0), backend),
        ]
    cases.append((scale(Fraction(1, 3), MultiOp(1, 1, ENDO, [3])), EXACT))
    for k, (op, backend) in enumerate(cases):
        assert op.backend == backend, k
        want_dtype = np.float64 if backend == FLOAT else object
        assert op.coeffs.dtype == want_dtype, k


def test_endo_and_coendo_composition_share_coefficients():
    # Same flat layout on both sides, so only the variance tag differs.
    rng = random.Random(7)
    f_e = random_op(rng, 2, 2, ENDO)
    g_e = random_op(rng, 2, 2, ENDO)
    f_c = MultiOp(2, 2, COENDO, f_e.coeffs)
    g_c = MultiOp(2, 2, COENDO, g_e.coeffs)
    out_e = partial_compose(f_e, g_e, 1)
    out_c = partial_compose(f_c, g_c, 1)
    assert out_c.variance == COENDO
    assert out_e.coeffs.tolist() == out_c.coeffs.tolist()


def test_compose_int64_overflow_promotes_exactly():
    big = 2**40
    f = MultiOp(2, 1, ENDO, np.full(4, big, dtype=np.int64))
    g = MultiOp(2, 1, ENDO, np.full(4, big, dtype=np.int64))
    out = partial_compose(f, g, 0)
    assert out.backend == EXACT
    # row-by-column sum of two equal products
    assert out.coeffs[0] == 2 * big * big


def test_compose_error_conditions():
    f = random_op(random.Random(0), 2, 2, ENDO)
    g = random_op(random.Random(1), 3, 1, ENDO)
    with pytest.raises(DimMismatchError):
        partial_compose(f, g, 0)
    h = random_op(random.Random(2), 2, 1, COENDO)
    with pytest.raises(VarianceMismatchError):
        partial_compose(f, h, 0)
    k = random_op(random.Random(3), 2, 1, ENDO)
    with pytest.raises(SlotOutOfRangeError):
        partial_compose(f, k, 2)
    with pytest.raises(SlotOutOfRangeError):
        partial_compose(f, k, -1)


def test_size_cap_enforced():
    with pytest.raises(SizeCapError):
        zero_op(2, 16)
    with pytest.raises(SizeCapError):
        partial_compose(zero_op(2, 15), zero_op(2, 2), 0)


# --- evaluation ---------------------------------------------------------


def test_apply_coordinatewise_product_frozen():
    mu = zero_op(2, 2).coeffs.copy()
    mu[flat_index(2, 2, 0, [0, 0])] = 1
    mu[flat_index(2, 2, 1, [1, 1])] = 1
    op = MultiOp(2, 2, ENDO, mu)
    out = apply(op, [[1, 2], [3, 4]])
    assert out.tolist() == [3, 8]


def test_apply_parenthesization_matches_nested_evaluation():
    for seed in range(200):
        rng = random.Random(seed)
        d = rng.randint(1, 3)
        deg_h = rng.randint(1, 3)
        deg_f = rng.randint(0, 3)
        h = random_op(rng, d, deg_h, ENDO)
        f = random_op(rng, d, deg_f, ENDO)
        i = rng.randrange(deg_h)
        composed = partial_compose(h, f, i)
        vecs = [
            [rng.randint(-2, 2) for _ in range(d)] for _ in range(composed.degree)
        ]
        lhs = apply(composed, vecs)
        inner = apply(f, vecs[i : i + deg_f])
        rhs = apply(h, vecs[:i] + [list(inner)] + vecs[i + deg_f :])
        sign = sign_pow(i * f.reduced_degree)
        assert lhs.tolist() == [sign * x for x in rhs], f"seed {seed}"


def test_apply_rejects_coendo_and_bad_arity():
    op = random_op(random.Random(0), 2, 1, COENDO)
    with pytest.raises(VarianceMismatchError):
        apply(op, [[1, 0]])
    op = random_op(random.Random(0), 2, 2, ENDO)
    with pytest.raises(ArityMismatchError):
        apply(op, [[1, 0]])
    with pytest.raises(DimMismatchError):
        apply(op, [[1, 0], [1, 2, 3]])


# --- unit laws and norms -------------------------------------------------


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_unit_laws(seed):
    rng = random.Random(seed)
    d = rng.randint(1, 3)
    variance = rng.choice([ENDO, COENDO])
    f = random_op(rng, d, rng.randint(0, 3), variance)
    unit = identity_op(d, variance)
    assert partial_compose(unit, f, 0) == f
    for i in range(f.degree):
        assert partial_compose(f, unit, i) == f


def test_norm_and_allclose():
    f = MultiOp(2, 0, ENDO, np.array([3, -4], dtype=np.int64))
    assert op_norm(f) == 4
    g = MultiOp(2, 0, ENDO, np.array([3, -5], dtype=np.int64))
    assert max_abs_diff(f, g) == 1
    a = MultiOp(2, 0, ENDO, np.array([1.0, 2.0]))
    b = MultiOp(2, 0, ENDO, np.array([1.0, 2.0 + 1e-12]))
    assert allclose(a, b, 1e-9)
    assert not allclose(a, b, 1e-15)


def test_random_op_is_deterministic_per_seed():
    a = random_op(random.Random(42), 3, 2, ENDO, FLOAT)
    b = random_op(random.Random(42), 3, 2, ENDO, FLOAT)
    assert a == b
