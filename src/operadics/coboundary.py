"""Coboundary operator attached to a binary multiplication, and its deviations.

For a fixed degree-2 op mu the coboundary of f is the right adjoint action

    d f = [f, mu] = f . mu - (-1)**|f| mu . f        (degree +1)

d is a right derivation of the bracket but not of total composition, of the
tribrace or of the cup product; _deviation measures how far off it is for
any product, and the three named deviations are its cases.  The associator
tensor mu . mu controls all of them, and d squares to zero precisely when mu
is associative.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter

from .braces import bracket, cup, total_compose, tribrace, _require_mu
from .multiop import MultiOp, add, identity_op, scale, sub
from .scalars import sign_pow


def coboundary(mu: MultiOp, f: MultiOp) -> MultiOp:
    """d f = [f, mu]."""
    _require_mu(mu)
    return bracket(f, mu)


def coboundary_via_unit(mu: MultiOp, f: MultiOp) -> MultiOp:
    """Equivalent unit-based form: f ~ 1 + f . mu + (-1)**|f| 1 ~ f."""
    _require_mu(mu)
    unit = identity_op(f.dim, f.variance, f.backend)
    return add(
        add(cup(mu, f, unit), total_compose(f, mu)),
        scale(sign_pow(f.reduced_degree), cup(mu, unit, f)),
    )


def adjoint_action(f: MultiOp, x: MultiOp) -> MultiOp:
    """Right adjoint action of f: x -> [x, f]."""
    return bracket(x, f)


def coboundary_square(mu: MultiOp, f: MultiOp) -> MultiOp:
    """d(d f).  Equals [f, mu . mu], so it vanishes for associative mu."""
    return coboundary(mu, coboundary(mu, f))


def _deviation(mu: MultiOp, product, args: tuple, grade) -> MultiOp:
    """d P(a_1..a_k) - sum_i (-1)**(grade(a_(i+1)) + ... + grade(a_k)) P(..d a_i..),
    subtracted last argument first, the last argument's term unscaled."""
    out = coboundary(mu, product(*args))
    exponent = 0
    for i in reversed(range(len(args))):
        term = product(*args[:i], coboundary(mu, args[i]), *args[i + 1 :])
        if i < len(args) - 1:
            term = scale(sign_pow(exponent), term)
        out = sub(out, term)
        exponent += grade(args[i])
    return out


def compose_deviation(mu: MultiOp, f: MultiOp, g: MultiOp) -> MultiOp:
    """How far d is from being a derivation of total composition:

    d(f . g) - f . d g - (-1)**|g| d f . g
    """
    return _deviation(mu, total_compose, (f, g), attrgetter("reduced_degree"))


def brace_deviation(mu: MultiOp, h: MultiOp, f: MultiOp, g: MultiOp) -> MultiOp:
    """How far d is from being a derivation of the tribrace:

    d{h,f,g} - {h,f,dg} - (-1)**|g| {h,df,g} - (-1)**(|g|+|f|) {dh,f,g}
    """
    return _deviation(mu, tribrace, (h, f, g), attrgetter("reduced_degree"))


def cup_deviation(mu: MultiOp, f: MultiOp, g: MultiOp) -> MultiOp:
    """How far d is from being a derivation of the cup product:

    d(f ~ g) - f ~ d g - (-1)**deg(g) d f ~ g
    """
    return _deviation(mu, partial(cup, mu), (f, g), attrgetter("degree"))
