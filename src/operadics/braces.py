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
"""

from __future__ import annotations

from .errors import DegreeMismatchError
from .multiop import MultiOp, _sum, _terms, sub
from .scalars import sign_pow


def _require_mu(mu: MultiOp):
    if mu.degree != 2:
        raise DegreeMismatchError(f"mu must have degree 2, got {mu.degree}")


def brace(h: MultiOp, *gs: MultiOp) -> MultiOp:
    """h{g1, ..., gk}: sum over disjoint right-ordered insertions of the gs.

    The signed terms are added in lexicographic order of their insertion
    points.
    """
    if not gs:
        return h
    return _sum([_terms(h, gs)])


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
    return _sum([_terms(mu, (f, g), sign_pow(f.degree))])


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
    return _sum([_terms(f, (g,)), _terms(g, (f,), -sign)])


def compose_associator(h: MultiOp, f: MultiOp, g: MultiOp) -> MultiOp:
    """Associator of total composition: (h . f) . g - h . (f . g).

    Equals tribrace(h, f, g) + (-1)**(|f| |g|) tribrace(h, g, f), the
    right-symmetry property that makes the bracket satisfy Jacobi.
    """
    return sub(
        total_compose(total_compose(h, f), g),
        total_compose(h, total_compose(f, g)),
    )
