"""Brace layer: frozen scalar values plus two independent enumeration oracles.

The slot oracles below sum over pairs/triples of slots of the OUTER
operation in their original positions (i < j < k) and shift the later
insertion points by the reduced degrees of the earlier operands.
brace_oracle instead recurses over already-shifted insertion points, one
partial composition and one add per term, with the checks and errors of a
loop over slots.  The library compiles each signature into stacked index
gathers and matmuls, so agreement with both oracles pins down the summation
bounds, the signs and the errors from independent derivations.  The oracles'
partial_compose is itself the one-term plan; its independent oracle is the
loop contraction of test_multiop.
"""

import random
import tracemalloc
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from operadics import multiop
from operadics.braces import (
    brace,
    bracket,
    compose_associator,
    cup,
    mu_squared,
    tetrabrace,
    total_compose,
    tribrace,
)
from operadics.errors import (
    BackendMismatchError,
    DegreeMismatchError,
    DegreeUnderflowError,
    DimMismatchError,
    OperadError,
    SizeCapError,
    VarianceMismatchError,
)
from operadics.multiop import (
    COENDO,
    ENDO,
    EXACT,
    FLOAT,
    SIZE_CAP,
    MultiOp,
    _check_pair,
    add,
    apply,
    identity_op,
    is_zero,
    partial_compose,
    random_op,
    scale,
    sub,
    zero_op,
)
from operadics.scalars import sign_pow


# --- oracles -----------------------------------------------------------


def tribrace_oracle(h, f, g):
    """Sum over original slot pairs i < j of h."""
    terms = []
    for i, j in combinations(range(h.degree), 2):
        hf = partial_compose(h, f, i)
        terms.append(partial_compose(hf, g, j + f.reduced_degree))
    if not terms:
        return zero_op(
            h.dim,
            h.degree + f.reduced_degree + g.reduced_degree,
            h.variance,
            h.backend,
        )
    out = terms[0]
    for t in terms[1:]:
        out = add(out, t)
    return out


def tetrabrace_oracle(h, f, g, b):
    """Sum over original slot triples i < j < k of h."""
    terms = []
    for i, j, k in combinations(range(h.degree), 3):
        hf = partial_compose(h, f, i)
        hfg = partial_compose(hf, g, j + f.reduced_degree)
        terms.append(
            partial_compose(hfg, b, k + f.reduced_degree + g.reduced_degree)
        )
    if not terms:
        return zero_op(
            h.dim,
            h.degree
            + f.reduced_degree
            + g.reduced_degree
            + b.reduced_degree,
            h.variance,
            h.backend,
        )
    out = terms[0]
    for t in terms[1:]:
        out = add(out, t)
    return out


def slot_tuple_oracle(h, *gs):
    """Sum over original slot tuples i1 < ... < ik of h, later slots shifted
    by the reduced degrees of the operands inserted before them."""
    out = zero_op(
        h.dim,
        h.degree + sum(g.reduced_degree for g in gs),
        h.variance,
        h.backend,
    )
    for slots in combinations(range(h.degree), len(gs)):
        term, shift = h, 0
        for g, slot in zip(gs, slots):
            term = partial_compose(term, g, slot + shift)
            shift += g.reduced_degree
        out = add(out, term)
    return out


def brace_oracle(h, *gs):
    """h{gs} by one partial composition per insertion point and one add per
    term, in lexicographic order of the shifted insertion points."""
    for outer, inner in zip((h, *gs), gs):
        _check_pair(outer, inner)
    if not gs:
        return h
    out = _insert(None, h, gs, 0)
    if out is None:
        degree = h.degree + sum(g.reduced_degree for g in gs)
        if degree < 0:
            raise DegreeUnderflowError(f"result would have degree {degree}")
        return zero_op(h.dim, degree, h.variance, h.backend)
    return out


def _insert(out, op, gs, start):
    """Add to out every term with gs[0] in a slot of op at or after start."""
    g, rest = gs[0], gs[1:]
    for i in range(start, op.degree - len(rest)):
        term = partial_compose(op, g, i)
        if rest:
            out = _insert(out, term, rest, i + g.degree)
        else:
            out = term if out is None else add(out, term)
    return out


def bracket_oracle(f, g):
    sign = sign_pow(f.reduced_degree * g.reduced_degree)
    return sub(brace_oracle(f, g), scale(sign, brace_oracle(g, f)))


def cup_oracle(mu, f, g):
    if mu.degree != 2:
        raise DegreeMismatchError(f"mu must have degree 2, got {mu.degree}")
    _check_pair(mu, f)
    _check_pair(f, g)
    return scale(
        sign_pow(f.degree),
        partial_compose(partial_compose(mu, f, 0), g, f.degree),
    )


def _scalar(value, degree):
    return MultiOp(1, degree, ENDO, np.array([value], dtype=np.int64))


# --- frozen scalar values -----------------------------------------------


def test_total_compose_scalar_values_frozen():
    # dim 1 reduces everything to signed products of scalars.
    assert total_compose(_scalar(2, 1), _scalar(3, 1)).coeffs[0] == 6
    # two slots, inner reduced degree 1: signs +, - cancel
    assert total_compose(_scalar(2, 2), _scalar(3, 2)).coeffs[0] == 0
    # two slots, inner reduced degree 0: both signs +
    assert total_compose(_scalar(2, 2), _scalar(3, 1)).coeffs[0] == 12


def test_total_compose_degree_underflow():
    with pytest.raises(DegreeUnderflowError):
        total_compose(_scalar(1, 0), _scalar(1, 0))


def test_cup_of_units_is_minus_mu():
    for d in (1, 2, 3):
        rng = random.Random(d)
        mu = random_op(rng, d, 2, ENDO)
        unit = identity_op(d)
        assert cup(mu, unit, unit) == scale(-1, mu)


def test_tribrace_count_frozen():
    # all-ones, dim 1, degree-1 inserts: each slot pair contributes +1
    h = _scalar(1, 3)
    f = _scalar(1, 1)
    assert tribrace(h, f, f).coeffs[0] == 3


def test_tetrabrace_count_frozen():
    # increasing slot triples of a 4-slot operation: C(4,3) = 4
    h = _scalar(1, 4)
    f = _scalar(1, 1)
    assert tetrabrace(h, f, f, f).coeffs[0] == 4


def test_bracket_degree_zero_with_degree_one_frozen():
    # f has no slots so f.g = 0; [f,g] = -(-1)**0 g o_0 f = -st
    f = _scalar(5, 0)
    g = _scalar(7, 1)
    assert bracket(f, g).coeffs[0] == -35


def test_mu_squared_scalar_vanishes():
    assert is_zero(mu_squared(_scalar(1, 2)))


def test_mu_squared_detects_nonassociative_product():
    # e0*e0 = e1, e0*e1 = e0, all else 0: (e0 e0) e0 = e0 but e0 (e0 e0) = 0
    data = np.zeros(8, dtype=np.int64)
    data[1 * 4 + 0 * 2 + 0] = 1
    data[0 * 4 + 0 * 2 + 1] = 1
    mu = MultiOp(2, 2, ENDO, data)
    sq = mu_squared(mu)
    assert not is_zero(sq)


# --- oracle agreement ----------------------------------------------------


def test_tribrace_matches_slot_pair_oracle():
    for seed in range(150):
        rng = random.Random(seed)
        d = rng.randint(1, 3)
        deg_h = rng.randint(2, 4)
        deg_f = rng.randint(0, 2)
        deg_g = rng.randint(0, 2)
        if deg_h + deg_f + deg_g < 2:
            continue
        h, f, g = (random_op(rng, d, n, ENDO) for n in (deg_h, deg_f, deg_g))
        assert tribrace(h, f, g) == tribrace_oracle(h, f, g), f"seed {seed}"


def test_tetrabrace_matches_slot_triple_oracle():
    for seed in range(150):
        rng = random.Random(seed)
        d = rng.randint(1, 2)
        deg_h = rng.randint(3, 4)
        deg_f, deg_g, deg_b = (rng.randint(0, 2) for _ in range(3))
        if deg_h + deg_f + deg_g + deg_b < 3:
            continue
        h, f, g, b = (
            random_op(rng, d, n, ENDO) for n in (deg_h, deg_f, deg_g, deg_b)
        )
        assert tetrabrace(h, f, g, b) == tetrabrace_oracle(h, f, g, b), (
            f"seed {seed}"
        )


def test_empty_brace_sums_are_zero_of_nominal_degree():
    h = _scalar(4, 1)
    f = _scalar(3, 1)
    out = tribrace(h, f, f)  # one slot, no pair of disjoint blocks
    assert is_zero(out) and out.degree == 1
    with pytest.raises(DegreeUnderflowError):
        tribrace(_scalar(1, 1), _scalar(1, 0), _scalar(1, 0))


def test_brace_matches_slot_tuple_oracle():
    for k in (1, 2, 3, 4):
        for seed in range(40):
            rng = random.Random(1000 * k + seed)
            d = rng.randint(1, 2)
            deg_h = rng.randint(0, k + 1)
            degs = [rng.randint(0, 2) for _ in range(k)]
            if deg_h + sum(degs) - k < 0:
                continue
            h = random_op(rng, d, deg_h, ENDO)
            gs = [random_op(rng, d, n, ENDO) for n in degs]
            assert brace(h, *gs) == slot_tuple_oracle(h, *gs), f"k {k} seed {seed}"


def test_brace_of_nothing_is_the_operation():
    h = random_op(random.Random(5), 2, 3, ENDO)
    assert brace(h) == h == slot_tuple_oracle(h) == brace_oracle(h)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_empty_brace_is_zero_of_nominal_degree_or_underflows(k):
    # k - 1 slots cannot hold k disjoint blocks
    h = _scalar(2, k - 1)
    out = brace(h, *[_scalar(3, 1)] * k)
    assert is_zero(out) and out.degree == k - 1
    with pytest.raises(DegreeUnderflowError):
        brace(h, *[_scalar(3, 0)] * k)


def test_empty_brace_above_the_cached_plan_size():
    # no term fits, and the zero op of degree 1 + 7 + 7 has 2**16 entries,
    # more than a cached plan may index
    for backend in (EXACT, FLOAT):
        g = random_op(random.Random(3), 2, 8, ENDO, backend)
        out = brace(zero_op(2, 1, ENDO, backend), g, g)
        assert out.degree == 15 and out.backend == backend and is_zero(out)
        assert out == zero_op(2, 15, ENDO, backend)


def test_brace_computes_no_dead_insertions():
    # every product a stage computes is a prefix of some term: with four
    # slots and degree-1 operands that is 2 first, 3 second and C(4, 3) = 4
    # third insertions (in dim 1 each prefix gathers one row)
    count, degree, (gathers, _, _) = multiop._compile(1, 4, (1, 1, 1), 1)
    assert (count, degree) == (4, 4)
    assert [len(index) for index in gathers] == [2, 3, 4]
    one = _scalar(1, 1)
    assert brace(_scalar(1, 4), one, one, one).coeffs[0] == 4


def test_brace_rejects_mismatched_operands():
    rng = random.Random(12)
    h = random_op(rng, 2, 3, ENDO)
    g = random_op(rng, 2, 1, ENDO)
    bad = [
        (random_op(rng, 2, 1, ENDO, FLOAT), BackendMismatchError),
        (random_op(rng, 3, 1, ENDO), DimMismatchError),
        (random_op(rng, 2, 1, COENDO), VarianceMismatchError),
    ]
    for other, error in bad:
        with pytest.raises(error):
            brace(h, other)
        with pytest.raises(error):
            brace(h, g, other)
        with pytest.raises(error):
            brace(h, other, g)


def test_named_braces_equal_the_kernel_on_floats():
    # same terms added in the same order, so equal to the last bit
    rng = random.Random(8)
    mu = random_op(rng, 2, 2, ENDO, FLOAT)
    h = random_op(rng, 2, 4, ENDO, FLOAT)
    f, g, b = (random_op(rng, 2, n, ENDO, FLOAT) for n in (2, 1, 2))
    pairs = [
        (total_compose(h, f), brace(h, f)),
        (tribrace(h, f, g), brace(h, f, g)),
        (tetrabrace(h, f, g, b), brace(h, f, g, b)),
        (mu_squared(mu), brace(mu, mu)),
    ]
    for named, kernel in pairs:
        assert np.array_equal(named.coeffs, kernel.coeffs)
    assert np.array_equal(tribrace(h, f, g).coeffs, tribrace_oracle(h, f, g).coeffs)


# --- the compiled kernel against brace_oracle ----------------------------


def _outcome(fn, *args):
    """The op fn returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except OperadError as exc:
        return type(exc), str(exc)


def _assert_same(got, want, context):
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want, context
        return
    assert (got.dim, got.degree, got.variance, got.backend) == (
        want.dim,
        want.degree,
        want.variance,
        want.backend,
    ), context
    if want.backend == EXACT:
        assert got == want, context
        assert list(map(type, got.coeffs)) == list(map(type, want.coeffs)), context
    else:
        bound = 1e-12 * max(1.0, float(np.abs(want.coeffs).max()))
        assert np.abs(got.coeffs - want.coeffs).max() <= bound, context


def _stage_sizes(d, deg_h, degs):
    degree, sizes = deg_h, [d ** (deg_h + 1)]
    for n in degs:
        sizes.append(d ** (degree + n))
        degree += n - 1
    return sizes


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_braces_match_the_oracle_on_random_signatures(backend):
    # dims 1-3, k = 0-4; underflows and size-cap errors included, but no
    # stage below the cap computes more than 3**7 coefficients
    checked = errors = 0
    for seed in range(400):
        rng = random.Random(seed)
        d = rng.randint(1, 3)
        k = rng.randint(0, 4)
        deg_h = rng.randint(0, k + 2)
        degs = [rng.randint(0, 3) for _ in range(k)]
        if d == 3 and rng.random() < 0.3:
            degs = [rng.randint(0, 9) for _ in range(k)]
        computed = [s for s in _stage_sizes(d, deg_h, degs) if s <= SIZE_CAP]
        if max(computed) > 3**7 and len(computed) == k + 1:
            continue
        h = random_op(rng, d, deg_h, ENDO, backend)
        gs = [random_op(rng, d, n, ENDO, backend) for n in degs]
        want = _outcome(brace_oracle, h, *gs)
        _assert_same(_outcome(brace, h, *gs), want, (seed, d, deg_h, degs))
        checked += 1
        errors += isinstance(want, tuple)
        if k >= 2:
            _assert_same(
                _outcome(cup, h, gs[0], gs[1]),
                _outcome(cup_oracle, h, gs[0], gs[1]),
                ("cup", seed),
            )
        if k >= 1:
            _assert_same(
                _outcome(bracket, h, gs[0]),
                _outcome(bracket_oracle, h, gs[0]),
                ("bracket", seed),
            )
    assert checked > 300 and 20 < errors < checked / 2


def test_brace_errors_match_the_oracle_at_the_size_cap():
    rng = random.Random(4)
    h2, g1 = random_op(rng, 2, 2, ENDO), random_op(rng, 2, 1, ENDO)
    g0, g15 = random_op(rng, 2, 0, ENDO), random_op(rng, 2, 15, ENDO)
    cases = [
        # the first stage is over the cap; the degree-0 operand after it
        # would bring the result back to 2**16 coefficients
        (brace, brace_oracle, (h2, g15, g0)),
        # the second stage is over the cap, the first is computed
        (brace, brace_oracle, (h2, g1, g15)),
        # no terms: the zero op of the nominal degree is over the cap
        (brace, brace_oracle, (g0, g15, g15)),
        # no terms and a negative nominal degree
        (brace, brace_oracle, (g0, g0)),
        (bracket, bracket_oracle, (g0, g0)),
        (bracket, bracket_oracle, (g15, h2)),
        (cup, cup_oracle, (h2, g15, g0)),
        (cup, cup_oracle, (g1, g0, g0)),
    ]
    for fn, oracle, args in cases:
        want = _outcome(oracle, *args)
        assert isinstance(want, tuple), (fn.__name__, want)
        assert _outcome(fn, *args) == want
    assert _outcome(brace, h2, g15, g0) == (
        SizeCapError,
        "composition result needs 131072 coefficients, cap is 65536",
    )


def test_float_tribrace_at_the_size_cap_runs_in_bounded_memory():
    # C(13, 2) = 78 terms of 2**16 coefficients: unchunked, the stacks of
    # this sum peak at about 216 MiB; in chunks of _STACK_ENTRIES at 8 MiB
    rng = random.Random(78)
    h = random_op(rng, 2, 13, ENDO, FLOAT)
    f, g = (random_op(rng, 2, 2, ENDO, FLOAT) for _ in range(2))
    want = brace_oracle(h, f, g)
    tracemalloc.start()
    try:
        got = tribrace(h, f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.coeffs.size == SIZE_CAP
    _assert_same(got, want, "tribrace")
    assert peak < 12 * 2**20


def test_plan_cache_is_bounded():
    maxsize = multiop._compile.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 4096


# --- evaluation-level checks ---------------------------------------------


def test_mu_squared_evaluates_to_the_associator():
    rng = random.Random(3)
    for d in (2, 3):
        mu = random_op(rng, d, 2, ENDO)
        sq = mu_squared(mu)
        for _ in range(20):
            x, y, z = (
                [rng.randint(-2, 2) for _ in range(d)] for _ in range(3)
            )
            left = apply(mu, [list(apply(mu, [x, y])), z])
            right = apply(mu, [x, list(apply(mu, [y, z]))])
            assert apply(sq, [x, y, z]).tolist() == (left - right).tolist()


def test_degree_one_bracket_is_the_matrix_commutator():
    rng = random.Random(5)
    for d in (2, 3):
        a = random_op(rng, d, 1, ENDO)
        b = random_op(rng, d, 1, ENDO)
        am = a.coeffs.reshape(d, d)
        bm = b.coeffs.reshape(d, d)
        assert bracket(a, b).coeffs.tolist() == (am @ bm - bm @ am).ravel().tolist()


# --- structural identities (spot checks; the verify suites go deeper) -----


def test_associator_splits_into_symmetrized_tribraces():
    for seed in range(80):
        rng = random.Random(seed)
        d = rng.randint(1, 2)
        deg_h = rng.randint(2, 3)
        deg_f = rng.randint(1, 2)
        deg_g = rng.randint(1, 2)
        h, f, g = (random_op(rng, d, n, ENDO) for n in (deg_h, deg_f, deg_g))
        lhs = compose_associator(h, f, g)
        rhs = add(
            tribrace(h, f, g),
            scale(
                sign_pow(f.reduced_degree * g.reduced_degree),
                tribrace(h, g, f),
            ),
        )
        assert lhs == rhs, f"seed {seed}"


def test_higher_brace_relation():
    # Gerstenhaber-Voronov: (h{f}){g1..gn} is the sum over 0 <= i <= j <= n
    # of (-1)**(|f| (|g1| + .. + |gi|)) h{g1..gi, f{g(i+1)..gj}, g(j+1)..gn};
    # a term whose inner or outer brace has more operands than slots is zero
    checked = 0
    for seed in range(150):
        rng = random.Random(seed)
        h, f = (random_op(rng, 2, rng.randint(lo, 3), ENDO) for lo in (1, 0))
        n = rng.randint(0, 3)
        gs = [random_op(rng, 2, rng.randint(0, 2), ENDO) for _ in range(n)]
        degree = h.degree + f.reduced_degree + sum(g.reduced_degree for g in gs)
        if degree < 0:
            continue
        rhs = zero_op(2, degree)
        for i, j in combinations_with_replacement(range(len(gs) + 1), 2):
            if j - i > f.degree or len(gs) - (j - i) + 1 > h.degree:
                continue
            term = brace(h, *gs[:i], brace(f, *gs[i:j]), *gs[j:])
            shift = sum(g.reduced_degree for g in gs[:i])
            rhs = add(rhs, scale(sign_pow(f.reduced_degree * shift), term))
        lhs = brace(brace(h, f), *gs)
        assert lhs == rhs, f"seed {seed}"
        checked += not is_zero(lhs)
    assert checked > 80


def test_bracket_antisymmetry_and_jacobi_spot():
    for seed in range(60):
        rng = random.Random(seed)
        d = rng.randint(1, 2)
        degs = [rng.randint(1, 3) for _ in range(3)]
        f, g, h = (random_op(rng, d, n, ENDO) for n in degs)
        sfg = sign_pow(f.reduced_degree * g.reduced_degree)
        assert bracket(f, g) == scale(-sfg, bracket(g, f))
        s1 = sign_pow(f.reduced_degree * h.reduced_degree)
        s2 = sign_pow(g.reduced_degree * f.reduced_degree)
        s3 = sign_pow(h.reduced_degree * g.reduced_degree)
        total = add(
            add(
                scale(s1, bracket(f, bracket(g, h))),
                scale(s2, bracket(g, bracket(h, f))),
            ),
            scale(s3, bracket(h, bracket(f, g))),
        )
        assert is_zero(total), f"seed {seed}"


def test_cup_associator_carries_the_degree_sign():
    # (f~g)~h - f~(g~h) equals (-1)**deg(g) {mu.mu; f, g, h}.  The variant
    # without the sign fails whenever deg(g) is odd; one such case is pinned
    # below, with the sign derived by hand.
    for seed in range(120):
        rng = random.Random(seed)
        d = rng.randint(1, 2)
        mu = random_op(rng, d, 2, ENDO)
        f, g, h = (
            random_op(rng, d, rng.randint(0, 2), ENDO) for _ in range(3)
        )
        lhs = sub(cup(mu, cup(mu, f, g), h), cup(mu, f, cup(mu, g, h)))
        rhs = scale(sign_pow(g.degree), tetrabrace(mu_squared(mu), f, g, h))
        assert lhs == rhs, f"seed {seed}"


def test_cup_associator_unsigned_variant_pinned_counterexample():
    # deg f = deg h = 0, deg g = 1; write A(a, b, c) = (ab)c - a(bc) for the
    # pointwise associator of mu.  With f o_i g carrying (-1)**(i*(deg g - 1))
    # and f ~ g = (-1)**deg(f) (mu o_0 f) o_deg(f) g:
    #   (f~g)(x)     = mu(f, g x)                       all signs +1
    #   (g~h)(x)     = -(-mu(g x, h))  = mu(g x, h)     h into slot 1: -1
    #   ((f~g)~h)(x) = -(-mu(mu(f, g x), h))            h into slot 1: -1
    #   (f~(g~h))(x) = mu(f, mu(g x, h))                all signs +1
    # so the left side is +A(f, g x, h).  mu.mu = mu o_0 mu + mu o_1 mu is A
    # itself (slot 1 gives -mu(a, mu(b, c))).  The tetrabrace has the single
    # term ((A o_0 f) o_0 g) o_1 h, and the only sign is that of h into
    # slot 1, (-1)**(1*(0 - 1)) = -1, so {mu.mu; f, g, h}(x) = -A(f, g x, h).
    # Hence lhs = (-1)**deg(g) {mu.mu; f, g, h}, and the unsigned form fails.
    mu = MultiOp(2, 2, ENDO, np.array([0, 3, 1, 3, 3, 0, 0, 1], dtype=np.int64))
    f = MultiOp(2, 0, ENDO, np.array([3, 1], dtype=np.int64))
    g = MultiOp(2, 1, ENDO, np.array([-2, -2, 3, 1], dtype=np.int64))
    h = MultiOp(2, 0, ENDO, np.array([0, 2], dtype=np.int64))
    lhs = sub(cup(mu, cup(mu, f, g), h), cup(mu, f, cup(mu, g, h)))
    unsigned = tetrabrace(mu_squared(mu), f, g, h)
    assert lhs.coeffs.tolist() == [36, -60, -90, 18]
    assert unsigned.coeffs.tolist() == [-36, 60, 90, -18]
    assert lhs == scale(sign_pow(g.degree), unsigned)
    assert lhs != unsigned

    # the same at evaluation level, from apply on mu alone
    def assoc(a, b, c):
        left = apply(mu, [apply(mu, [a, b]), c])
        return left - apply(mu, [a, apply(mu, [b, c])])

    fv, hv = apply(f, []), apply(h, [])
    for x in ([1, 0], [0, 1]):
        a = assoc(fv, apply(g, [x]), hv).tolist()
        assert apply(lhs, [x]).tolist() == a
        assert apply(unsigned, [x]).tolist() == [-v for v in a]


def test_cup_requires_binary_mu():
    with pytest.raises(DegreeMismatchError):
        cup(_scalar(1, 1), _scalar(1, 1), _scalar(1, 1))
