"""The randomized identity harness itself: registry, seeding, and the
negative-control hook that proves failures are actually detectable.
"""

import pytest

from operadics import multiop
from operadics.errors import BackendMismatchError, ConfigError
from operadics.multiop import COENDO, FLOAT
from operadics.verify import (
    MAX_CASES,
    SuiteConfig,
    derive_seed,
    run_all,
    run_suite,
    suite_names,
)

QUICK = SuiteConfig(cases=10)


def test_registry_is_sorted_and_complete():
    names = suite_names()
    assert list(names) == sorted(names)
    assert "composition-relations" in names
    assert "bracket-jacobi" in names
    assert "cocycle-cup-commutator" in names
    assert len(names) == 21


def test_all_suites_pass_on_the_default_config():
    results = run_all(QUICK)
    assert len(results) == len(suite_names())
    for r in results:
        assert r.passed, f"{r.name}: {r.counterexample}"
        assert r.cases == 10
        assert r.failures == 0
        assert r.counterexample is None


@pytest.mark.parametrize("dim", [2, 3])
def test_exact_suites_contract_on_int64_only(monkeypatch, dim):
    # every operand of the exact suites is an integer op with small entries,
    # so no sum of terms may fall back to object arrays
    fallbacks = []
    monkeypatch.setattr(multiop, "_on_object_path", lambda: fallbacks.append(1))
    results = run_all(SuiteConfig(cases=5, dim=dim))
    assert all(r.passed for r in results)
    assert fallbacks == []


def test_float_and_coendo_configs_pass_too():
    for cfg in (
        SuiteConfig(cases=5, backend=FLOAT),
        SuiteConfig(cases=5, variance=COENDO),
        SuiteConfig(cases=5, dim=1),
        SuiteConfig(cases=5, dim=3, max_degree=2),
    ):
        for r in run_all(cfg):
            assert r.passed, f"{r.name}: {r.counterexample}"


def test_corrupted_sign_is_caught_with_a_counterexample():
    r = run_suite("bracket-jacobi", SuiteConfig(cases=10, corrupt_sign=True))
    assert not r.passed
    assert r.failures > 0
    assert r.counterexample is not None
    # the report carries enough to replay the case by hand
    assert "suite-seed" in r.counterexample
    assert "dim" in r.counterexample
    assert "coeffs" in r.counterexample


def test_other_suites_ignore_the_corruption_hook():
    r = run_suite("unit-laws", SuiteConfig(cases=10, corrupt_sign=True))
    assert r.passed


def test_zero_cases_is_a_flagged_vacuous_pass():
    r = run_suite("getzler", SuiteConfig(cases=0))
    assert r.passed
    assert r.cases == 0
    assert "vacuous" in r.note


def test_suite_runs_are_deterministic():
    a = run_suite("composition-relations", SuiteConfig(cases=40))
    b = run_suite("composition-relations", SuiteConfig(cases=40))
    assert a == b
    c = run_suite("bracket-jacobi", SuiteConfig(cases=10, corrupt_sign=True))
    d = run_suite("bracket-jacobi", SuiteConfig(cases=10, corrupt_sign=True))
    assert c.counterexample == d.counterexample


def test_per_suite_seeds_differ_between_suites():
    seeds = {derive_seed(0, name) for name in suite_names()}
    assert len(seeds) == len(suite_names())
    assert derive_seed(0, "getzler") != derive_seed(1, "getzler")


def test_unknown_suite_and_bad_configs_raise():
    with pytest.raises(ConfigError):
        run_suite("no-such-suite", QUICK)
    with pytest.raises(ConfigError):
        SuiteConfig(dim=0)
    with pytest.raises(ConfigError):
        SuiteConfig(cases=-1)
    with pytest.raises(ConfigError):
        SuiteConfig(cases=MAX_CASES + 1)
    assert SuiteConfig(cases=MAX_CASES).cases == MAX_CASES
    with pytest.raises(BackendMismatchError, match="unknown backend 'decimal'"):
        SuiteConfig(backend="decimal")
    with pytest.raises(ConfigError):
        SuiteConfig(tol=-1.0)
    with pytest.raises(ConfigError):
        SuiteConfig(max_degree=0)
