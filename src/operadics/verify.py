"""Randomized verification suites for every identity the calculus satisfies.

A suite is one case function; run_suite runs it cfg.cases times on an RNG
drawn from (config seed, suite name), so runs are reproducible case by case
and independent of which other suites run.  Exact backend suites compare
coefficients exactly; the float backend compares up to the configured
tolerance.  On the first failing case a suite records a counterexample
string with the operand coefficients.

The cup associator suite checks the signed identity

    (f ~ g) ~ h - f ~ (g ~ h) = (-1)**deg(g) {mu.mu; f, g, h}

since the unsigned variant is false whenever deg(g) is odd (the tests pin a
concrete counterexample).  The corrupt_sign config flag is a test hook that
deliberately breaks one sign inside the Jacobi suite, to prove the suites
can fail.
"""

from __future__ import annotations

import functools
import random
import reprlib
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .braces import (
    bracket,
    compose_associator,
    cup,
    mu_squared,
    tetrabrace,
    total_compose,
    tribrace,
)
from .bundled import bundled_path
from .coboundary import (
    adjoint_action,
    brace_deviation,
    coboundary,
    coboundary_square,
    coboundary_via_unit,
    compose_deviation,
    cup_deviation,
)
from .cohomology import AlgebraSpec, load_algebra, random_cocycle
from .errors import ConfigError
from .multiop import (
    ENDO,
    EXACT,
    FLOAT,
    MultiOp,
    _is_float,
    add,
    allclose,
    apply,
    identity_op,
    is_zero,
    op_norm,
    partial_compose,
    random_op,
    scale,
    sub,
)
from .scalars import sign_pow


# Hard cap on cases per suite: 200 cases of every suite take about 0.6 s,
# so the cap bounds a run near 5 minutes.
MAX_CASES = 100_000


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    dim: int = 2
    max_degree: int = 3
    cases: int = 200
    tol: float = 1e-9
    backend: str = EXACT
    variance: str = ENDO
    corrupt_sign: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {reprlib.repr(self.dim)}")
        if self.max_degree < 1:
            raise ConfigError(f"max_degree must be >= 1, got {reprlib.repr(self.max_degree)}")
        if not 0 <= self.cases <= MAX_CASES:
            raise ConfigError(
                f"cases must be in 0..{MAX_CASES}, got {reprlib.repr(self.cases)}"
            )
        _is_float(self.backend)
        if not self.tol >= 0:
            raise ConfigError(f"tol must be >= 0, got {self.tol}")


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    passed: bool
    failures: int = 0
    counterexample: str | None = None
    note: str = ""


# Each suite registers one case: (cfg, rng) -> (ok, [(label, operand), ...]).
_SUITES: dict[str, Callable[[SuiteConfig, random.Random], tuple]] = {}


def _suite(name: str):
    def register(fn):
        _SUITES[name] = fn
        return fn

    return register


def suite_names() -> tuple[str, ...]:
    return tuple(sorted(_SUITES))


def derive_seed(seed: int, name: str) -> int:
    """Per-suite RNG seed; crc32 keeps it stable across interpreter runs."""
    return seed * 1_000_003 + zlib.crc32(name.encode("ascii"))


def run_suite(name: str, cfg: SuiteConfig) -> SuiteResult:
    """Run cfg.cases cases of one suite on its own seeded RNG."""
    try:
        one_case = _SUITES[name]
    except KeyError:
        raise ConfigError(f"unknown suite {name!r}") from None
    rng = random.Random(derive_seed(cfg.seed, name))
    failures = 0
    first = None
    for case in range(cfg.cases):
        ok, named_ops = one_case(cfg, rng)
        if not ok:
            failures += 1
            if first is None:
                first = _describe(cfg, name, case, named_ops)
    return SuiteResult(
        name=name,
        cases=cfg.cases,
        passed=failures == 0,
        failures=failures,
        counterexample=first,
        note="vacuous: 0 cases requested" if cfg.cases == 0 else "",
    )


def run_all(cfg: SuiteConfig) -> list[SuiteResult]:
    return [run_suite(name, cfg) for name in suite_names()]


# ---------------------------------------------------------------- helpers


def _rand(rng, cfg: SuiteConfig, degree: int, variance: str | None = None) -> MultiOp:
    return random_op(rng, cfg.dim, degree, variance or cfg.variance, cfg.backend)


def _degrees(rng, cfg: SuiteConfig, count: int, min_sum: int = 0):
    while True:
        degs = [rng.randint(0, cfg.max_degree) for _ in range(count)]
        if sum(degs) >= min_sum:
            return degs


def _agrees(cfg: SuiteConfig, lhs: MultiOp, rhs: MultiOp) -> bool:
    if cfg.backend == FLOAT:
        return allclose(lhs, rhs, cfg.tol)
    return lhs == rhs


def _vanishes(cfg: SuiteConfig, op: MultiOp) -> bool:
    if cfg.backend == FLOAT:
        return float(op_norm(op)) <= cfg.tol
    return is_zero(op)


def _vec(rng, cfg: SuiteConfig) -> list:
    if cfg.backend == FLOAT:
        return [rng.uniform(-1.0, 1.0) for _ in range(cfg.dim)]
    return [rng.randint(-2, 2) for _ in range(cfg.dim)]


def _describe(cfg: SuiteConfig, name: str, case: int, named_ops) -> str:
    parts = [
        f"case {case}",
        f"suite-seed {derive_seed(cfg.seed, name)}",
        f"dim {cfg.dim}",
    ]
    for label, op in named_ops:
        parts.append(f"{label}: deg {op.degree} coeffs {op.coeffs.tolist()}")
    return "; ".join(parts)


def diagonal_mu(dim: int, backend: str = EXACT, variance: str = ENDO) -> MultiOp:
    """Coordinatewise product: associative for every dim."""
    data = np.zeros(dim**3, dtype=np.float64 if backend == FLOAT else object)
    for a in range(dim):
        data[a * dim * dim + a * dim + a] = 1
    return MultiOp(dim, 2, variance, data)


@functools.cache  # loaded on first use, once per process
def _dual_numbers() -> AlgebraSpec:
    """The cocycle suites' algebra: the bundled dual numbers, basis (1, e)
    with e*e = 0, whose kernel is rich enough in every degree to make
    cocycle sampling nontrivial.  One spec serves every case, so the
    associator and the cocycle bases it keeps (see cohomology._kept_result)
    are computed once."""
    return load_algebra(bundled_path("dual_numbers.json"))


# ------------------------------------------------------------- the suites


@_suite("composition-relations")
def _composition_relations(cfg, rng):
    """(h o_i f) o_j g rewritten by the three case formulas, exact."""
    while True:
        deg_h = rng.randint(1, cfg.max_degree)
        deg_f = rng.randint(0, cfg.max_degree)
        if deg_h + deg_f >= 2:
            break
    deg_g = rng.randint(0, cfg.max_degree)
    h, f, g = (_rand(rng, cfg, n) for n in (deg_h, deg_f, deg_g))
    i = rng.randrange(deg_h)
    j = rng.randrange(deg_h + deg_f - 1)
    lhs = partial_compose(partial_compose(h, f, i), g, j)
    sign = sign_pow(f.reduced_degree * g.reduced_degree)
    if j <= i - 1:
        rhs = scale(
            sign,
            partial_compose(partial_compose(h, g, j), f, i + g.reduced_degree),
        )
    elif j <= i + deg_f - 1:
        rhs = partial_compose(h, partial_compose(f, g, j - i), i)
    else:
        rhs = scale(
            sign,
            partial_compose(partial_compose(h, g, j - f.reduced_degree), f, i),
        )
    return _agrees(cfg, lhs, rhs), [("h", h), ("f", f), ("g", g)]


@_suite("unit-laws")
def _unit_laws(cfg, rng):
    """identity o_0 f = f and f o_i identity = f at every slot."""
    unit = identity_op(cfg.dim, cfg.variance, cfg.backend)
    f = _rand(rng, cfg, rng.randint(0, cfg.max_degree))
    ok = _agrees(cfg, partial_compose(unit, f, 0), f)
    for i in range(f.degree):
        ok = ok and _agrees(cfg, partial_compose(f, unit, i), f)
    return ok, [("f", f)]


@_suite("apply-parenthesization")
def _apply_parenthesization(cfg, rng):
    """Evaluating h o_i f equals nested evaluation times (-1)**(i |f|).

    Evaluation only exists for the endomorphism variance, so this suite
    always runs on it.
    """
    deg_h = rng.randint(1, cfg.max_degree)
    deg_f = rng.randint(0, cfg.max_degree)
    h = _rand(rng, cfg, deg_h, ENDO)
    f = _rand(rng, cfg, deg_f, ENDO)
    i = rng.randrange(deg_h)
    composed = partial_compose(h, f, i)
    vecs = [_vec(rng, cfg) for _ in range(composed.degree)]
    lhs = apply(composed, vecs)
    inner = apply(f, vecs[i : i + deg_f])
    rhs = apply(h, vecs[:i] + [inner] + vecs[i + deg_f :])
    sign = sign_pow(i * f.reduced_degree)
    if cfg.backend == FLOAT:
        ok = bool(np.max(np.abs(lhs - sign * rhs)) <= cfg.tol)
    else:
        ok = list(lhs) == [sign * x for x in rhs]
    return ok, [("h", h), ("f", f)]


@_suite("getzler")
def _getzler(cfg, rng):
    """(h.f).g - h.(f.g) = {h;f,g} + (-1)**(|f||g|) {h;g,f}."""
    deg_h = rng.randint(0, cfg.max_degree)
    deg_f, deg_g = (rng.randint(1, cfg.max_degree) for _ in range(2))
    h, f, g = (_rand(rng, cfg, n) for n in (deg_h, deg_f, deg_g))
    lhs = compose_associator(h, f, g)
    rhs = add(
        tribrace(h, f, g),
        scale(sign_pow(f.reduced_degree * g.reduced_degree), tribrace(h, g, f)),
    )
    return _agrees(cfg, lhs, rhs), [("h", h), ("f", f), ("g", g)]


@_suite("gerstenhaber-symmetry")
def _gerstenhaber_symmetry(cfg, rng):
    """The total-composition associator is graded symmetric in (f, g)."""
    deg_h = rng.randint(0, cfg.max_degree)
    deg_f, deg_g = (rng.randint(1, cfg.max_degree) for _ in range(2))
    h, f, g = (_rand(rng, cfg, n) for n in (deg_h, deg_f, deg_g))
    lhs = compose_associator(h, f, g)
    rhs = scale(
        sign_pow(f.reduced_degree * g.reduced_degree),
        compose_associator(h, g, f),
    )
    return _agrees(cfg, lhs, rhs), [("h", h), ("f", f), ("g", g)]


@_suite("bracket-antisymmetry")
def _bracket_antisymmetry(cfg, rng):
    """[f,g] = -(-1)**(|f||g|) [g,f]."""
    deg_f, deg_g = _degrees(rng, cfg, 2, min_sum=1)
    f, g = _rand(rng, cfg, deg_f), _rand(rng, cfg, deg_g)
    lhs = bracket(f, g)
    rhs = scale(-sign_pow(f.reduced_degree * g.reduced_degree), bracket(g, f))
    return _agrees(cfg, lhs, rhs), [("f", f), ("g", g)]


@_suite("bracket-jacobi")
def _bracket_jacobi(cfg, rng):
    """Graded Jacobi: the signed cyclic sum of [[.,.],.] vanishes."""
    f, g, h = (_rand(rng, cfg, rng.randint(1, cfg.max_degree)) for _ in range(3))
    rf, rg, rh = f.reduced_degree, g.reduced_degree, h.reduced_degree
    s2 = sign_pow(rg * rf)
    if cfg.corrupt_sign:
        s2 = -s2
    total = add(
        add(
            scale(sign_pow(rf * rh), bracket(bracket(f, g), h)),
            scale(s2, bracket(bracket(g, h), f)),
        ),
        scale(sign_pow(rh * rg), bracket(bracket(h, f), g)),
    )
    return _vanishes(cfg, total), [("f", f), ("g", g), ("h", h)]


@_suite("cup-associator")
def _cup_associator(cfg, rng):
    """(f~g)~h - f~(g~h) = (-1)**deg(g) {mu.mu; f, g, h}."""
    mu = _rand(rng, cfg, 2)
    f, g, h = (_rand(rng, cfg, rng.randint(0, cfg.max_degree)) for _ in range(3))
    lhs = sub(cup(mu, cup(mu, f, g), h), cup(mu, f, cup(mu, g, h)))
    rhs = scale(sign_pow(g.degree), tetrabrace(mu_squared(mu), f, g, h))
    return _agrees(cfg, lhs, rhs), [("mu", mu), ("f", f), ("g", g), ("h", h)]


@_suite("cup-right-translation")
def _cup_right_translation(cfg, rng):
    """(f~g).h = f~(g.h) + (-1)**(|h| deg g) (f.h)~g."""
    mu = _rand(rng, cfg, 2)
    deg_h = rng.randint(1, cfg.max_degree)
    deg_f, deg_g = (rng.randint(0, cfg.max_degree) for _ in range(2))
    f, g, h = (_rand(rng, cfg, n) for n in (deg_f, deg_g, deg_h))
    lhs = total_compose(cup(mu, f, g), h)
    rhs = add(
        cup(mu, f, total_compose(g, h)),
        scale(sign_pow(h.reduced_degree * g.degree), cup(mu, total_compose(f, h), g)),
    )
    return _agrees(cfg, lhs, rhs), [("mu", mu), ("f", f), ("g", g), ("h", h)]


@_suite("coboundary-forms-agree")
def _coboundary_forms_agree(cfg, rng):
    """[f, mu] equals the unit-based cup formula in every degree."""
    mu = _rand(rng, cfg, 2)
    f = _rand(rng, cfg, rng.randint(0, cfg.max_degree))
    lhs = coboundary(mu, f)
    rhs = coboundary_via_unit(mu, f)
    return _agrees(cfg, lhs, rhs), [("mu", mu), ("f", f)]


@_suite("bracket-right-derivation")
def _bracket_right_derivation(cfg, rng):
    """d[f,g] = (-1)**|g| [df, g] + [f, dg]."""
    mu = _rand(rng, cfg, 2)
    deg_f, deg_g = _degrees(rng, cfg, 2, min_sum=1)
    f, g = _rand(rng, cfg, deg_f), _rand(rng, cfg, deg_g)
    lhs = coboundary(mu, bracket(f, g))
    rhs = add(
        scale(sign_pow(g.reduced_degree), bracket(coboundary(mu, f), g)),
        bracket(f, coboundary(mu, g)),
    )
    return _agrees(cfg, lhs, rhs), [("mu", mu), ("f", f), ("g", g)]


@_suite("adjoint-commutation")
def _adjoint_commutation(cfg, rng):
    """ad_f ad_g - (-1)**(|f||g|) ad_g ad_f = ad_[g,f] on every operand."""
    deg_f, deg_g = (rng.randint(1, cfg.max_degree) for _ in range(2))
    f, g = _rand(rng, cfg, deg_f), _rand(rng, cfg, deg_g)
    x = _rand(rng, cfg, rng.randint(0, cfg.max_degree))
    lhs = sub(
        adjoint_action(f, adjoint_action(g, x)),
        scale(
            sign_pow(f.reduced_degree * g.reduced_degree),
            adjoint_action(g, adjoint_action(f, x)),
        ),
    )
    rhs = adjoint_action(bracket(g, f), x)
    return _agrees(cfg, lhs, rhs), [("f", f), ("g", g), ("x", x)]


@_suite("coboundary-square-action")
def _coboundary_square_action(cfg, rng):
    """d(df) = [f, mu.mu] for arbitrary mu."""
    mu = _rand(rng, cfg, 2)
    f = _rand(rng, cfg, rng.randint(0, cfg.max_degree))
    lhs = coboundary_square(mu, f)
    rhs = bracket(f, mu_squared(mu))
    return _agrees(cfg, lhs, rhs), [("mu", mu), ("f", f)]


@_suite("coboundary-square-zero")
def _coboundary_square_zero(cfg, rng):
    """d squares to zero once mu is associative (coordinatewise product)."""
    mu = diagonal_mu(cfg.dim, cfg.backend, cfg.variance)
    f = _rand(rng, cfg, rng.randint(0, cfg.max_degree))
    return _vanishes(cfg, coboundary_square(mu, f)), [("f", f)]


@_suite("cup-derivation-deviation")
def _cup_derivation_deviation(cfg, rng):
    """d(f~g) - f~dg - (-1)**deg(g) df~g = (-1)**deg(g) {mu.mu; f, g}."""
    mu = _rand(rng, cfg, 2)
    f, g = (_rand(rng, cfg, rng.randint(0, cfg.max_degree)) for _ in range(2))
    lhs = cup_deviation(mu, f, g)
    rhs = scale(sign_pow(g.degree), tribrace(mu_squared(mu), f, g))
    return _agrees(cfg, lhs, rhs), [("mu", mu), ("f", f), ("g", g)]


@_suite("total-derivation-deviation")
def _total_derivation_deviation(cfg, rng):
    """(-1)**deg(g) (d(f.g) - f.dg - (-1)**|g| df.g) = f~g - (-1)**(fg) g~f."""
    mu = _rand(rng, cfg, 2)
    deg_f, deg_g = _degrees(rng, cfg, 2, min_sum=1)
    f, g = _rand(rng, cfg, deg_f), _rand(rng, cfg, deg_g)
    lhs = scale(sign_pow(g.degree), compose_deviation(mu, f, g))
    rhs = sub(
        cup(mu, f, g),
        scale(sign_pow(f.degree * g.degree), cup(mu, g, f)),
    )
    return _agrees(cfg, lhs, rhs), [("mu", mu), ("f", f), ("g", g)]


def _leibniz(mu: MultiOp, product, h: MultiOp, f: MultiOp, g: MultiOp) -> MultiOp:
    """P(h,f)~g + (-1)**(|h| deg f) f~P(h,g) - P(h, f~g)."""
    return sub(
        add(
            cup(mu, product(h, f), g),
            scale(sign_pow(h.reduced_degree * f.degree), cup(mu, f, product(h, g))),
        ),
        product(h, cup(mu, f, g)),
    )


def _brace_leibniz(cfg, rng, product):
    """(-1)**deg(g) dev{h,f,g} = _leibniz(mu, product, h, f, g)."""
    mu = _rand(rng, cfg, 2)
    # {h, f, g} lives in degree h + f + g - 2, so keep the sum >= 2.
    deg_h = rng.randint(1, cfg.max_degree)
    deg_f, deg_g = _degrees(rng, cfg, 2, min_sum=2 - deg_h)
    h, f, g = (_rand(rng, cfg, n) for n in (deg_h, deg_f, deg_g))
    lhs = scale(sign_pow(g.degree), brace_deviation(mu, h, f, g))
    rhs = _leibniz(mu, product, h, f, g)
    return _agrees(cfg, lhs, rhs), [("mu", mu), ("h", h), ("f", f), ("g", g)]


@_suite("tribrace-derivation-deviation")
def _tribrace_derivation_deviation(cfg, rng):
    """(-1)**deg(g) dev{h,f,g} = (h.f)~g + (-1)**(|h| deg f) f~(h.g) - h.(f~g)."""
    return _brace_leibniz(cfg, rng, total_compose)


@_suite("bracket-leibniz-deviation")
def _bracket_leibniz_deviation(cfg, rng):
    """(-1)**deg(g) dev{h,f,g} = [h,f]~g + (-1)**(|h| deg f) f~[h,g] - [h, f~g]."""
    return _brace_leibniz(cfg, rng, bracket)


@_suite("cocycle-cup-commutator")
def _cocycle_cup_commutator(cfg, rng):
    """For cocycles f, g of the dual-numbers algebra the cup commutator is
    the coboundary of (-1)**deg(g) f.g (an explicit preimage)."""
    spec = _dual_numbers()
    mu = spec.mu
    deg_f, deg_g = (rng.choice((1, 2, 3)) for _ in range(2))
    f = random_cocycle(rng, spec, deg_f)
    g = random_cocycle(rng, spec, deg_g)
    lhs = sub(
        cup(mu, f, g),
        scale(sign_pow(f.degree * g.degree), cup(mu, g, f)),
    )
    preimage = scale(sign_pow(g.degree), total_compose(f, g))
    rhs = coboundary(mu, preimage)
    ok = lhs == rhs
    return ok, [("f", f), ("g", g)]


@_suite("cocycle-leibniz")
def _cocycle_leibniz(cfg, rng):
    """For cocycles h, f, g the bracket-over-cup Leibniz combination is the
    coboundary of (-1)**deg(g) {h; f, g} (an explicit preimage)."""
    spec = _dual_numbers()
    mu = spec.mu
    deg_h, deg_f, deg_g = (rng.choice((1, 2, 3)) for _ in range(3))
    h, f, g = (random_cocycle(rng, spec, n) for n in (deg_h, deg_f, deg_g))
    lhs = _leibniz(mu, bracket, h, f, g)
    rhs = coboundary(mu, scale(sign_pow(g.degree), tribrace(h, f, g)))
    return lhs == rhs, [("h", h), ("f", f), ("g", g)]


@_suite("degree-bookkeeping")
def _degree_bookkeeping(cfg, rng):
    """deg(f~g) = deg f + deg g while deg[f,g] = deg f + deg g - 1."""
    mu = _rand(rng, cfg, 2)
    deg_f, deg_g = _degrees(rng, cfg, 2, min_sum=1)
    f, g = _rand(rng, cfg, deg_f), _rand(rng, cfg, deg_g)
    ok = (
        cup(mu, f, g).degree == deg_f + deg_g
        and bracket(f, g).degree == deg_f + deg_g - 1
    )
    return ok, [("f", f), ("g", g)]
