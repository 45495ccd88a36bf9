"""The brace operation, its named special cases, the cup product and bracket.

Every sum here is one operation, the brace

    brace(h, g1, ..., gk)   h{g1, ..., gk} = sum (..(h o_i1 g1) o_i2 g2 ..) o_ik gk

over insertion points with i(m+1) >= i(m) + deg g(m): each argument goes
strictly to the right of the block filled by the one before it, and h{} = h.
The named special cases are

    total_compose(f, g)     f . g = f{g} = sum_i f o_i g over all slots of f
    tribrace(h, f, g)       {h; f, g} = h{f, g}
    tetrabrace(h, f, g, b)  {h; f, g, b} = h{f, g, b}
    mu_squared(mu)          mu . mu = mu{mu}, the associator tensor

and on top of them

    cup(mu, f, g)           f ~ g = (-1)**deg(f) mu{f, g}
    bracket(f, g)           [f, g] = f . g - (-1)**(|f| |g|) g . f

Empty brace sums return the zero op of the nominal degree; if that degree
would be negative the brace raises DegreeUnderflowError instead.

A brace is not evaluated one partial composition at a time.  Its terms
depend only on the signature (dim, deg h, deg g1..deg gk, sign), which is
compiled once into an index plan.  Stage j gathers, for every live prefix of
insertion points, the slot that gj fills as the last axis of a stack, and
one matmul with gj as a (dim, dim**deg gj) matrix computes the whole stage.
The last stage gathers from [P, -P], so each term's Koszul sign is a choice
of index, and yields the (terms, coefficients) stack of signed terms.  The
sums add its rows in the lexicographic order of the insertion points.  A
sum whose stacks would exceed _STACK_ENTRIES runs in chunks of terms, and
only plans of at most _CACHED_ENTRIES indices are kept.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, combinations, islice

import numpy as np

from .errors import DegreeMismatchError, DegreeUnderflowError, SizeCapError
from .multiop import SIZE_CAP, MultiOp, _check_pair, sub, zero_op
from .scalars import sign_pow

# Largest stack of terms (gathered operands, products, signed terms) that
# one chunk of a sum builds, in coefficients.
_STACK_ENTRIES = 2**18

# Plans the cache keeps, and the most index entries a kept plan may hold.
_PLAN_CACHE = 512
_CACHED_ENTRIES = 2**15


def _require_mu(mu: MultiOp):
    if mu.degree != 2:
        raise DegreeMismatchError(f"mu must have degree 2, got {mu.degree}")


def _zero(like: MultiOp, degree: int) -> MultiOp:
    if degree < 0:
        raise DegreeUnderflowError(f"result would have degree {degree}")
    return zero_op(like.dim, degree, like.variance, like.backend)


def brace(h: MultiOp, *gs: MultiOp) -> MultiOp:
    """h{g1, ..., gk}: sum over disjoint right-ordered insertions of the gs.

    The signed terms are added in lexicographic order of their insertion
    points.
    """
    if not gs:
        return h
    return _sum(h, h.degree + sum(g.reduced_degree for g in gs), _terms(h, gs))


def _sum(like: MultiOp, degree: int, stacks) -> MultiOp:
    """The op whose coefficients are all rows of the stacks, added in order."""
    total = None
    for stack in stacks:
        if total is not None:
            stack[0] += total
        total = stack[0] if len(stack) == 1 else np.add.reduce(stack)
    return MultiOp._wrap(like.dim, degree, like.variance, total)


def _terms(h: MultiOp, gs, sign: int = 1):
    """Stacks of the terms of sign * h{gs}: one stack, or a lazy chunk sequence.

    The operands are checked, and the errors of inserting them one slot at a
    time raised, before any plan is built: the errors of the zero op for a
    sum without terms, else SizeCapError for the first stage over SIZE_CAP.
    """
    for outer, inner in zip((h, *gs), gs):
        _check_pair(outer, inner)
    if len(gs) > h.degree:
        zero = _zero(h, h.degree + sum(g.reduced_degree for g in gs))
        return (zero.coeffs[None].copy(),)
    degs = tuple([g.degree for g in gs])
    plan = _compile(h.dim, h.degree, degs, sign)
    if not isinstance(plan, int):
        return (_evaluate(plan, h, gs),)
    slots = combinations(range(h.degree), len(gs))
    chunks = iter(lambda: list(islice(slots, plan)), [])
    return (_evaluate(_plan(h.dim, h.degree, degs, sign, rows), h, gs) for rows in chunks)


@lru_cache(maxsize=_PLAN_CACHE)
def _compile(d: int, deg_h: int, degs: tuple, sign: int):
    """The plan of a signature with deg_h >= len(degs), or, when its stacks
    or its indices are too large to keep, the number of terms per chunk."""
    degree, sizes = deg_h, [d ** (deg_h + 1)]
    for n in degs:
        size = d ** (degree + n)
        if size > SIZE_CAP:
            raise SizeCapError(
                f"composition result needs {size} coefficients, cap is {SIZE_CAP}"
            )
        sizes.append(size)
        degree += n - 1
    count = math.comb(deg_h, len(degs))
    per_chunk = max(1, _STACK_ENTRIES // (2 * max(sizes)))
    if count <= per_chunk and count * sum(sizes) <= _CACHED_ENTRIES:
        return _plan(d, deg_h, degs, sign, list(combinations(range(deg_h), len(degs))))
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


def total_compose(f: MultiOp, g: MultiOp) -> MultiOp:
    """Sum of g inserted into every slot of f (degree f + |g|)."""
    return brace(f, g)


def mu_squared(mu: MultiOp) -> MultiOp:
    """Associator tensor of a binary multiplication: mu . mu.

    Zero exactly when mu is associative.
    """
    _require_mu(mu)
    return brace(mu, mu)


def cup(mu: MultiOp, f: MultiOp, g: MultiOp) -> MultiOp:
    """Cup product of f and g relative to the multiplication mu.

    mu{f, g} has the single term (mu o_0 f) o_deg(f) g.
    """
    _require_mu(mu)
    return _sum(mu, f.degree + g.degree, _terms(mu, (f, g), sign_pow(f.degree)))


def tribrace(h: MultiOp, f: MultiOp, g: MultiOp) -> MultiOp:
    """Double sum (h o_i f) o_j g with g strictly right of f's block."""
    return brace(h, f, g)


def tetrabrace(h: MultiOp, f: MultiOp, g: MultiOp, b: MultiOp) -> MultiOp:
    """Triple sum ((h o_i f) o_j g) o_k b with disjoint right-ordered blocks."""
    return brace(h, f, g, b)


def bracket(f: MultiOp, g: MultiOp) -> MultiOp:
    """Graded commutator of total composition: the terms of f{g}, then those
    of -(-1)**(|f| |g|) g{f}, in one sum."""
    sign = sign_pow(f.reduced_degree * g.reduced_degree)
    stacks = chain(_terms(f, (g,)), _terms(g, (f,), -sign))
    return _sum(f, f.degree + g.reduced_degree, stacks)


def compose_associator(h: MultiOp, f: MultiOp, g: MultiOp) -> MultiOp:
    """Associator of total composition: (h . f) . g - h . (f . g).

    Equals tribrace(h, f, g) + (-1)**(|f| |g|) tribrace(h, g, f), the
    right-symmetry property that makes the bracket satisfy Jacobi.
    """
    return sub(
        total_compose(total_compose(h, f), g),
        total_compose(h, total_compose(f, g)),
    )
