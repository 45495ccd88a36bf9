"""End-to-end command line checks through real subprocesses.

Every command is run twice to pin byte-identical output; exit codes are
asserted for each documented failure class.
"""

import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from operadics import cli
from operadics.bundled import BUNDLED_FILES, bundled_path
from operadics.cohomology import load_algebra
from operadics.errors import ConfigError


def run_cli(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "operadics.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def assert_one_line_error(r, code):
    assert r.returncode == code, r.stderr
    assert "Traceback" not in r.stderr
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), r.stderr


def run_twice(*args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout, "output must be byte-identical"
    assert first.returncode == second.returncode
    return first


def test_in_process_calls_share_no_parser_state(capsys):
    # the parser is built once per process; each call must still parse
    # from the defaults alone
    runs = [
        ["cohomology", "--algebra", str(bundled_path("dual_numbers.json"))],
        ["verify", "--cases", "2"],
        ["lax", "--system", str(bundled_path("lax_deg1.json"))],
    ]
    runs.insert(0, [*runs[0], "--format", "machine"])
    for args in runs:
        assert cli.main(args) == 0
        assert capsys.readouterr().out == run_cli(*args).stdout, args


# --- bundled data ------------------------------------------------------------


def test_bundled_files_exist():
    assert len(BUNDLED_FILES) == 5
    for name in BUNDLED_FILES:
        assert bundled_path(name).is_file()
    with pytest.raises(ConfigError):
        bundled_path("no_such_file.json")


# --- verify ---------------------------------------------------------------------


def test_verify_text_runs_and_is_deterministic():
    r = run_twice("verify", "--cases", "4")
    assert r.returncode == 0
    assert "composition-relations" in r.stdout
    assert "result: 21/21 suites passed" in r.stdout


def test_verify_zero_cases_warns_and_marks_every_suite_vacuous():
    r = run_cli("verify", "--cases", "0")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[1] == "warning: 0 cases requested; every suite passes vacuously"
    suites = lines[2:-1]
    assert len(suites) == 21
    assert all(line.endswith(" 0 cases  pass (vacuous: 0 cases requested)") for line in suites)
    assert lines[-1] == "result: 21/21 suites passed"


def test_verify_machine_output_is_json():
    r = run_twice("verify", "--cases", "3", "--format", "machine")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["ok"] is True
    assert len(doc["suites"]) == 21
    assert doc["config"]["cases"] == 3


def test_verify_float_backend_and_flags():
    r = run_cli(
        "verify",
        "--cases",
        "3",
        "--backend",
        "float",
        "--dim",
        "3",
        "--max-degree",
        "2",
        "--seed",
        "11",
    )
    assert r.returncode == 0


def test_verify_corrupt_sign_fails_with_exit_one():
    r = run_cli("verify", "--cases", "4", "--corrupt-sign")
    assert r.returncode == 1
    assert "FAIL" in r.stdout


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_verify_at_the_size_cap_is_a_size_error(backend):
    # degree-8 operands nest brackets past the cap in the Jacobi suite
    r = run_cli("verify", "--backend", backend, "--max-degree", "8", "--cases", "2")
    assert r.returncode == 2
    assert r.stderr == (
        "error: composition result needs 524288 coefficients, cap is 65536\n"
    )


def test_verify_over_the_size_cap_names_the_coefficient_count():
    r = run_cli("verify", "--dim", "300")
    assert_one_line_error(r, 2)
    assert r.stderr == "error: dim 300 degree 1 needs 90000 coefficients, cap is 65536\n"


@pytest.mark.parametrize(
    "args",
    [
        ("--max-degree", "100000000"),
        ("--max-degree", str(10**21)),
        ("--dim", "1", "--max-degree", "2000"),
        ("--dim", str(10**1500)),
        ("--max-degree", "5000"),
    ],
    ids=["degree-1e8", "degree-1e21", "dim-1-degree-2000", "dim-1e1500", "degree-5000"],
)
def test_huge_verify_shapes_are_one_short_size_error(args):
    # every drawn shape and brace is refused before its count is computed or
    # printed, or its plan built; the address-space limit and the timeout
    # bound a missing check (a power that grows, a brace of 2M terms)
    r = run_cli_in_1gib("verify", *args, "--cases", "1", timeout=30)
    assert_one_line_error(r, 2)
    assert len(r.stderr.encode()) < 300, r.stderr[:300]
    # a huge dim or degree is cut as reprlib cuts it; no count is printed whole
    assert not re.search(r"\d{41}", r.stderr), r.stderr[:300]


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--dim"),
        ("verify", "--cases"),
        ("verify", "--max-degree"),
        ("cohomology", "--algebra", str(bundled_path("dual_numbers.json")), "--max-degree"),
        ("oscillator", "--degree"),
    ],
    ids=["verify-dim", "verify-cases", "verify-max-degree", "cohomology", "oscillator"],
)
def test_huge_negative_flag_is_one_short_error(args):
    # the value is cut as reprlib cuts it, not printed in its 1501 digits
    r = run_cli(*args, str(-(10**1500)))
    assert_one_line_error(r, 2)
    assert len(r.stderr.encode()) < 300, r.stderr[:300]


@pytest.mark.parametrize("cases", ["1000000000", str(10**1500)], ids=["1e9", "1e1500"])
def test_verify_over_the_case_cap_is_one_short_error(cases):
    # a billion cases would run for about a month; the count is refused
    # before any suite runs, and a long one is cut as reprlib cuts it
    r = run_cli("verify", "--cases", cases, timeout=30)
    assert_one_line_error(r, 2)
    assert r.stdout == ""
    assert len(r.stderr.encode()) < 300, r.stderr[:300]


def test_verify_rejects_bad_config():
    assert run_cli("verify", "--dim", "0").returncode == 2
    assert run_cli("verify", "--cases", "-3").returncode == 2


# --- cohomology -------------------------------------------------------------------


def test_cohomology_table_for_bundled_algebras():
    r = run_twice("cohomology", "--algebra", str(bundled_path("dual_numbers.json")))
    assert r.returncode == 0
    assert "dual_numbers" in r.stdout
    # betti column: 2 in degree 0 then a run of ones
    lines = [l for l in r.stdout.splitlines() if l.strip() and l.strip()[0].isdigit()]
    betti = [int(l.split()[-1]) for l in lines]
    assert betti == [2, 1, 1, 1, 1]


def test_cohomology_machine_matches_expected_numbers():
    bundled = bundled_path("mat2.json")
    # the same constants written as "1/1", "2/2" and "0/3" read as the same ints
    fractions = Path(__file__).parent / "data" / "mat2_fractions.json"
    first = None
    for path in (bundled, fractions):
        r = run_twice("cohomology", "--algebra", str(path), "--format", "machine")
        assert r.returncode == 0
        first = first or r.stdout
        assert r.stdout == first, path
        assert load_algebra(path).mu._ints is not None, path
    doc = json.loads(first)
    assert [row["h"] for row in doc["table"]] == [1, 0, 0]
    assert [row["rank"] for row in doc["table"]] == [3, 13, 51]


def test_mat2_table_to_degree_six_is_classical():
    # M2(Q) is separable: scalars in degree 0 and nothing above.  The table
    # reaches 16384 cochains in degree 6 and must finish well within the
    # timeout.
    r = run_cli(
        "cohomology",
        "--algebra",
        str(bundled_path("mat2.json")),
        "--max-degree",
        "6",
        timeout=60,
    )
    assert r.returncode == 0, r.stderr
    rows = [l.split() for l in r.stdout.splitlines()[2:]]
    assert [int(row[0]) for row in rows] == list(range(7))
    assert [int(row[-1]) for row in rows] == [1, 0, 0, 0, 0, 0, 0]
    assert [int(row[2]) for row in rows] == [3, 13, 51, 205, 819, 3277, 13107]


def test_cohomology_missing_file_is_a_parse_error(tmp_path):
    r = run_cli("cohomology", "--algebra", str(tmp_path / "absent.json"))
    assert r.returncode == 4


def test_cohomology_malformed_file_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "dim": 2}')
    r = run_cli("cohomology", "--algebra", str(path))
    assert r.returncode == 4
    assert "error:" in r.stderr


def test_cohomology_nonassociative_exits_three(tmp_path):
    mu = ["0"] * 8
    mu[4] = "1"  # e0*e0 = e1
    mu[2] = "1"  # e1*e0 = e0
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps({"name": "twisted", "dim": 2, "mu": mu}))
    r = run_cli("cohomology", "--algebra", str(path))
    assert r.returncode == 3
    assert "not associative" in r.stderr


def test_cohomology_nonassociative_huge_entries_exit_three(tmp_path):
    # the associator squares these entries past the 4300 digits Python prints
    big = "9" * 3000
    mu = ["0", "0", big, "0", big, "0", "0", "0"]
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps({"name": "twisted", "dim": 2, "mu": mu}))
    r = run_cli("cohomology", "--algebra", str(path))
    assert_one_line_error(r, 3)
    assert "not associative" in r.stderr


def test_cohomology_promotes_integers_beyond_int64(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(
        json.dumps({"name": "big", "dim": 1, "mu": ["99999999999999999999999"]})
    )
    r = run_cli("cohomology", "--algebra", str(path))
    assert r.returncode == 0, r.stderr
    field = run_cli("cohomology", "--algebra", str(bundled_path("field.json")))
    # a nonzero rescaling of the field's product has the same table
    assert r.stdout.splitlines()[1:] == field.stdout.splitlines()[1:]


def test_cohomology_table_stays_aligned_past_degree_nine():
    r = run_cli(
        "cohomology",
        "--algebra",
        str(bundled_path("field.json")),
        "--max-degree",
        "11",
    )
    assert r.returncode == 0
    lines = r.stdout.splitlines()[1:]
    assert len(lines) == 1 + 12
    assert len({len(line) for line in lines}) == 1


@pytest.mark.parametrize("max_degree", ["10000", "1000000000"])
def test_cohomology_work_cap_is_a_size_error(max_degree):
    # dim 1 never meets the coefficient cap; the insertion count bounds it
    r = run_cli(
        "cohomology",
        "--algebra",
        str(bundled_path("field.json")),
        "--max-degree",
        max_degree,
        timeout=30,
    )
    assert_one_line_error(r, 2)


def test_cohomology_rejects_float_backend():
    r = run_cli(
        "cohomology",
        "--algebra",
        str(bundled_path("field.json")),
        "--backend",
        "float",
    )
    assert r.returncode == 2


# --- lax -------------------------------------------------------------------------


def test_lax_csv_shape_and_determinism():
    r = run_twice(
        "lax",
        "--system",
        str(bundled_path("lax_deg1.json")),
        "--t-end",
        "0.05",
    )
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "t,trace1,trace2,trace3,L0,L1,L2,L3"
    assert len(lines) == 1 + 51  # header + samples at dt = 1e-3


def test_csv_rows_have_the_bytes_of_format_float():
    values = [0.0, -0.0, 0.1, -1.5e-300, 5e-324, 1e300, math.pi, 2.0**60]
    values += [math.nan, math.inf, -math.inf]
    pieces = cli._csv([f"c{k}" for k in range(len(values))], np.array([values] * 2))
    row = ",".join(f"{v:.17g}" for v in values)
    assert "".join(pieces).splitlines()[1:] == [row, row]


def test_csv_pieces_hold_at_most_1024_rows():
    table = np.arange(5000 * 2, dtype=float).reshape(5000, 2)
    pieces = list(cli._csv(["a", "b"], table, ("# end",)))
    assert max(piece.count("\n") for piece in pieces) <= 1024
    lines = "".join(pieces).splitlines()
    assert len(lines) == 1 + 5000 + 1
    assert lines[0] == "a,b" and lines[1] == "0,1" and lines[-2] == "9998,9999"
    assert lines[-1] == "# end"


def test_lax_machine_format():
    r = run_cli(
        "lax",
        "--system",
        str(bundled_path("lax_deg2.json")),
        "--t-end",
        "0.02",
        "--format",
        "machine",
    )
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["columns"][0] == "t"
    assert len(doc["rows"]) == 21


def test_lax_missing_system_file(tmp_path):
    r = run_cli("lax", "--system", str(tmp_path / "absent.json"))
    assert r.returncode == 4


def test_lax_divergent_run_exits_five(tmp_path):
    doc = {
        "dim": 2,
        "M": [1e200, 0.0, 0.0, -1e200],
        "L0": {"degree": 1, "coeffs": [0.0, 1e200, 1e-200, 0.0]},
        "dt": 1.0,
        "t_end": 5.0,
        "observe": [],
    }
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(doc))
    r = run_cli("lax", "--system", str(path))
    assert r.returncode == 5
    assert "non-finite" in r.stderr


@pytest.mark.parametrize("m11", [1e308, -1e308])
def test_huge_entry_of_m_exits_five_with_one_line(tmp_path, capsys, m11):
    # the operator overflows as it is built, and the finiteness check reports
    # it with no numpy warning, cold or in process with warnings as errors
    doc = json.loads(bundled_path("lax_deg2.json").read_text())
    doc["M"] = [0.0, -1.0, 1.0, m11]
    path = tmp_path / "huge_m.json"
    path.write_text(json.dumps(doc))
    args = ["lax", "--system", str(path)]
    r = run_cli(*args)
    assert_one_line_error(r, 5)
    assert r.stderr == "error: non-finite coefficients at t = 0.001\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(args) == 5
    assert capsys.readouterr().err == r.stderr


def _lax_doc(**overrides):
    doc = json.loads(bundled_path("lax_deg1.json").read_text())
    doc.update(overrides)
    return doc


def _lax_file(tmp_path, **overrides):
    path = tmp_path / "system.json"
    # json.dumps writes NaN and Infinity, which json.loads accepts
    path.write_text(json.dumps(_lax_doc(**overrides)))
    return str(path)


@pytest.mark.parametrize(
    "overrides",
    [
        {"t_end": float("inf")},
        {"t_end": 10**400},
        {"dt": float("nan")},
        {"t_end": float("nan")},
        {"M": [0.0, float("-inf"), 1.0, 0.0]},
        {"L0": {"degree": 1, "coeffs": [0.0, float("nan"), 2.0, 0.0]}},
    ],
)
def test_lax_non_finite_file_input_is_a_parse_error(tmp_path, overrides):
    path = _lax_file(tmp_path, **overrides)
    assert_one_line_error(run_cli("lax", "--system", path), 4)


@pytest.mark.parametrize(
    "overrides",
    [
        {"t_end": 1e7},  # 1e10 steps at dt 0.001, over MAX_STEPS
        # 200001 samples of 129 values, over MAX_CELLS
        {"L0": {"degree": 6, "coeffs": [0.5] * 128}, "t_end": 200.0, "observe": ["norm"]},
    ],
)
def test_lax_flags_replace_the_file_values_before_the_caps(tmp_path, overrides):
    # the file alone is over a cap; the run is checked with the --t-end it
    # runs with and prints what a file with that t_end prints
    (tmp_path / "long").mkdir()
    (tmp_path / "short").mkdir()
    long = _lax_file(tmp_path / "long", **overrides)
    short = _lax_file(tmp_path / "short", **{**overrides, "t_end": 0.01})
    r = run_cli("lax", "--system", long, "--t-end", "0.01")
    assert r.returncode == 0, r.stderr
    assert r.stdout == run_cli("lax", "--system", short).stdout


@pytest.mark.parametrize("flag", ["--t-end", "--dt"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_lax_non_finite_flag_is_a_config_error(flag, value):
    system = str(bundled_path("lax_deg1.json"))
    assert_one_line_error(run_cli("lax", "--system", system, flag, value), 2)


def test_step_cap_is_a_config_error(tmp_path):
    # Each run asks for more than MAX_STEPS steps, which the cap rejects
    # before any sample is kept; the short timeout bounds a broken cap.
    path = _lax_file(tmp_path, dt=1e-6, t_end=1.5)
    for args in (
        ("oscillator", "--dt", "1e-300", "--t-end", "1e-290"),
        ("oscillator", "--t-end", "inf"),
        ("lax", "--system", path),
    ):
        assert_one_line_error(run_cli(*args, timeout=30), 2)


def test_lax_in_dim_one_at_huge_degree(tmp_path):
    # the operator of a dim-1 L0 is the scalar m * (1 - degree), built
    # without a pass over the 60000 slots
    doc = {"dim": 1, "M": [0.5], "L0": {"degree": 60000, "coeffs": [1.0]}}
    doc.update(dt=1e-6, t_end=2e-6, observe=["norm"])
    path = tmp_path / "dim1.json"
    path.write_text(json.dumps(doc))
    r = run_cli("lax", "--system", str(path), timeout=30)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "t,norm,L0" and len(lines) == 4
    z = 0.5 * (1 - 60000) * 1e-6
    growth = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24  # one RK4 step
    assert float(lines[-1].split(",")[-1]) == pytest.approx(growth**2, rel=1e-12)


def test_diverging_flow_stops_at_its_first_non_finite_block(tmp_path):
    # the operator is 0.5 * (1 - 60000), far outside the stability region of
    # RK4 at dt 1e-3, so L overflows at t = 0.069; all 10**6 steps take
    # about 25 s, so the timeout fails a run that does not stop within a
    # block of the first bad row
    doc = {"dim": 1, "M": [0.5], "L0": {"degree": 60000, "coeffs": [1.0]}}
    doc.update(dt=1e-3, t_end=1000.0)
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(doc))
    r = run_cli("lax", "--system", str(path), timeout=10)
    assert_one_line_error(r, 5)
    assert r.stderr == "error: non-finite coefficients at t = 0.069\n"


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_cli_in_1gib(*args, timeout=120):
    """run_cli under a 1 GiB address-space limit and one BLAS thread, whose
    buffers would otherwise count against the limit."""
    return subprocess.run(
        [sys.executable, "-m", "operadics.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=_limit_address_space,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )


def test_lax_at_the_size_cap_runs_in_bounded_memory(tmp_path):
    # dim 2, degree 15 is 65536 coefficients, the size cap; the operator on
    # them is 1.1M triplets, where a dense matrix would take 32 GiB.
    degree = 15
    l0 = np.random.default_rng(15).uniform(-1.0, 1.0, 2 ** (degree + 1))
    doc = {"dim": 2, "M": [0.0, -1.0, 1.0, 0.0]}
    doc.update(L0={"degree": degree, "coeffs": l0.tolist()}, dt=1e-3, t_end=1e-2)
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(doc))
    r = run_cli_in_1gib("lax", "--system", str(path))
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert len(lines) == 12
    last = np.array(lines[-1].split(","), dtype=np.float64)
    # closed form: exp(tM) is the rotation by t, applied to the output index
    # and its inverse to every input index
    t = last[0]
    c, s = math.cos(t), math.sin(t)
    forward, backward = np.array([[c, -s], [s, c]]), np.array([[c, s], [-s, c]])
    want = np.tensordot(forward, l0.reshape((2,) * (degree + 1)), axes=(1, 0))
    for k in range(1, degree + 1):
        want = np.moveaxis(np.tensordot(want, backward, axes=(k, 0)), -1, k)
    assert np.abs(last[1:] - want.ravel()).max() <= 1e-6


def test_triplet_cap_is_a_config_error(tmp_path):
    # a dim-256 degree-1 L0 gives 33.5M triplets, over MAX_TRIPLETS; their
    # arrays would take about 2 GiB, so the cap must reject the run before
    # they are allocated, here under a 1 GiB address-space limit
    dim = 256
    doc = {"dim": dim, "M": [0.5] * dim**2, "dt": 1e-3, "t_end": 2e-3}
    doc.update(L0={"degree": 1, "coeffs": [0.25] * dim**2})
    path = tmp_path / "dim256.json"
    path.write_text(json.dumps(doc))
    r = run_cli_in_1gib("lax", "--system", str(path))
    assert_one_line_error(r, 2)
    assert "triplets" in r.stderr


def test_cell_cap_is_a_config_error(tmp_path):
    # 200001 samples of a degree-6 L0 and its norm are 25.8M values, over
    # MAX_CELLS; the cap rejects the run before anything is allocated
    doc = json.loads(bundled_path("lax_deg1.json").read_text())
    L0 = {"degree": 6, "coeffs": [0.5] * 128}
    doc.update(L0=L0, dt=1e-3, t_end=200.0, observe=["norm"])
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    r = run_cli("lax", "--system", str(path), timeout=30)
    assert_one_line_error(r, 2)
    assert "cells" in r.stderr


def test_huge_degree_in_operation_file_is_a_parse_error(tmp_path):
    # dim ** (degree + 1) at this degree would not finish; the short timeout
    # bounds a missing check
    huge = {"degree": 10**4000, "coeffs": [0.0] * 8}
    init = tmp_path / "init.json"
    init.write_text(json.dumps(huge))
    system = _lax_file(tmp_path, L0=huge)
    for args in (
        ("oscillator", "--degree", "2", "--l-init", str(init)),
        ("lax", "--system", system),
    ):
        assert_one_line_error(run_cli(*args, timeout=30), 4)


@pytest.mark.parametrize(
    "args, doc",
    [
        (("cohomology", "--algebra"), {"name": "x", "dim": 10**4000, "mu": ["1"]}),
        (
            ("lax", "--system"),
            {
                "dim": 10**4000,
                "M": [0.0],
                "L0": {"degree": 1, "coeffs": [0.0]},
                "dt": 0.1,
                "t_end": 1.0,
            },
        ),
    ],
    ids=["cohomology", "lax"],
)
def test_huge_dim_in_input_file_is_a_parse_error(tmp_path, args, doc):
    # dim**3 and dim*dim have more than the 4300 digits Python prints
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert_one_line_error(run_cli(*args, str(path), timeout=30), 4)


def test_json_true_is_not_an_integer_dim_or_degree(tmp_path):
    # bool is a subclass of int in Python, so true once passed as 1
    algebra = tmp_path / "algebra.json"
    algebra.write_text(json.dumps({"name": "x", "dim": True, "mu": ["1"]}))
    system = tmp_path / "system.json"
    system.write_text(
        json.dumps(
            {
                "dim": True,
                "M": [0.0],
                "L0": {"degree": 1, "coeffs": [1.0]},
                "dt": 0.1,
                "t_end": 0.2,
            }
        )
    )
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"degree": True, "coeffs": [1.0, 0.0, 0.0, 1.0]}))
    for args in (
        ("cohomology", "--algebra", str(algebra)),
        ("lax", "--system", str(system)),
        ("oscillator", "--l-init", str(init), "--t-end", "0.002"),
    ):
        assert_one_line_error(run_cli(*args), 4)


def test_lax_out_file_matches_stdout(tmp_path):
    out = tmp_path / "run.csv"
    system = ("lax", "--system", str(bundled_path("lax_deg1.json")))
    # 11 rows, and 1501 rows, which take two pieces of CSV
    for t_end in ("0.01", "1.5"):
        args = (*system, "--t-end", t_end)
        r_file = run_cli(*args, "--out", str(out))
        r_stdout = run_cli(*args)
        assert r_file.returncode == 0
        assert r_file.stdout == ""
        assert out.read_text() == r_stdout.stdout


# --- oscillator -------------------------------------------------------------------


def test_oscillator_default_run():
    r = run_twice("oscillator", "--t-end", "0.01")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "t,q,p,H,trace2,L0,L1,L2,L3"
    assert lines[-1].startswith("# monodromy degree=1 ")
    assert "periodic=true" in lines[-1]


def test_oscillator_degree_two_needs_l_init():
    r = run_cli("oscillator", "--degree", "2", "--t-end", "0.01")
    assert_one_line_error(r, 6)
    assert "--l-init" in r.stderr


@pytest.mark.parametrize(
    "flags", [("--degree", "2", "--omega", "-1"), ("--degree", "3", "--q0", "nan")]
)
def test_missing_initial_operation_is_checked_before_the_values(flags):
    # the missing --l-init is the first thing OscillatorParams checks, so a
    # bad omega or q0 beside it does not change the exit code
    assert_one_line_error(run_cli("oscillator", *flags), 6)


def test_oscillator_degree_two_with_l_init(tmp_path):
    path = tmp_path / "l2.json"
    path.write_text(
        json.dumps({"degree": 2, "coeffs": [1.0, 0, 0, 0, 0, 0, 0, 1.0]})
    )
    r = run_twice(
        "oscillator",
        "--degree",
        "2",
        "--l-init",
        str(path),
        "--omega",
        "2",
        "--t-end",
        "0.01",
    )
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0].startswith("t,q,p,H,assoc_defect,L0")
    assert "periodic=false" in lines[-1]


def _scaled_lax_file(tmp_path):
    doc = json.loads(bundled_path("lax_deg2.json").read_text())
    doc["L0"]["coeffs"] = [c * 1e160 for c in doc["L0"]["coeffs"]]
    doc.update(dt=0.001, t_end=0.003)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    return ["lax", "--system", str(path)]


def _huge_l_init(tmp_path, coeffs, *flags):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"degree": 2, "coeffs": coeffs}))
    args = ["oscillator", "--degree", "2", "--l-init", str(path), "--t-end", "0.002"]
    return args + list(flags)


@pytest.mark.parametrize(
    "make_args, what",
    [
        (
            lambda tmp: "oscillator --q0 1e200 --p0 1e200 --t-end 0.003".split(),
            "observer 'trace2'",
        ),
        (_scaled_lax_file, "observer 'assoc_defect'"),
        (
            lambda tmp: _huge_l_init(tmp, [1e308, 0, 0, 0, 0, 0, 0, 1e308]),
            "observer 'assoc_defect'",
        ),
        # L stays small; only the classical state overflows H
        (
            lambda tmp: _huge_l_init(tmp, [1.0] + [0] * 6 + [1.0], "--q0", "1e200"),
            "H",
        ),
    ],
)
def test_non_finite_observers_exit_five(tmp_path, make_args, what):
    for fmt in ("text", "machine"):
        r = run_cli(*make_args(tmp_path), "--format", fmt)
        assert_one_line_error(r, 5)
        assert r.stderr == f"error: non-finite {what} at t = 0.0\n"
        assert r.stdout == ""


def test_oscillator_machine_monodromy_block():
    r = run_cli(
        "oscillator", "--t-end", "0.01", "--format", "machine", "--omega", "2"
    )
    doc = json.loads(r.stdout)
    assert doc["monodromy"]["degree"] == 1
    assert doc["monodromy"]["periodic"] is True
    assert doc["monodromy"]["period"] == pytest.approx(3.141592653589793)


def _degree_three_l_init(tmp_path):
    path = tmp_path / "l3.json"
    coeffs = [(k * 7 % 5 - 2) / 3 for k in range(16)]
    path.write_text(json.dumps({"degree": 3, "coeffs": coeffs}))
    return ["--degree", "3", "--l-init", str(path)]


@pytest.mark.parametrize(
    "make_args",
    [
        lambda tmp: ["lax", "--system", str(bundled_path("lax_deg1.json"))],
        lambda tmp: ["lax", "--system", str(bundled_path("lax_deg2.json"))],
        lambda tmp: ["oscillator", "--t-end", "3"],
        lambda tmp: ["oscillator", "--t-end", "3", *_degree_three_l_init(tmp)],
    ],
    ids=["lax-deg1", "lax-deg2", "oscillator-deg1", "oscillator-deg3"],
)
def test_machine_and_csv_flow_reports_hold_one_table(tmp_path, capsys, make_args):
    args = make_args(tmp_path)
    assert cli.main(args) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert cli.main([*args, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert header.split(",") == doc["columns"]
    # "%.17g" round-trips, so every CSV value equals its JSON value exactly
    rows = [[float(x) for x in line.split(",")] for line in lines if line[0] != "#"]
    assert rows == doc["rows"]
    footer = [line.split() for line in lines if line[0] == "#"]
    if args[0] == "lax":
        assert footer == [] and "monodromy" not in doc
        return
    [[_, label, *fields]] = footer
    got = dict(field.split("=") for field in fields)
    mono = doc["monodromy"]
    assert label == "monodromy" and got.keys() == mono.keys()
    assert int(got["degree"]) == mono["degree"]
    assert float(got["period"]) == mono["period"]
    assert float(got["defect"]) == mono["defect"]
    assert got["periodic"] == json.dumps(mono["periodic"])


def test_oscillator_rejects_bad_omega():
    assert run_cli("oscillator", "--omega", "0").returncode == 2


def test_oscillator_rejects_degree_zero():
    r = run_cli("oscillator", "--degree", "0")
    assert_one_line_error(r, 2)
    assert r.stderr == "error: degree must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "flag", ["--q0=nan", "--q0=inf", "--p0=-inf", "--omega=inf", "--omega=nan"]
)
def test_oscillator_non_finite_flag_is_a_config_error(flag):
    # rejected before any step, so no numpy warning reaches stderr
    assert_one_line_error(run_cli("oscillator", flag, "--t-end", "0.01"), 2)


# --- loaders ----------------------------------------------------------------------

# json.loads raises a plain ValueError on integer literals over 4300 digits
# and a RecursionError on deep nesting, and read_text a UnicodeDecodeError on
# bytes that are not UTF-8.
@pytest.mark.parametrize(
    "content",
    [b"[" + b"9" * 5000 + b"]", b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000],
    ids=["huge-int", "not-utf8", "deep-nesting"],
)
@pytest.mark.parametrize(
    "args",
    [("cohomology", "--algebra"), ("lax", "--system"), ("oscillator", "--l-init")],
    ids=["cohomology", "lax", "oscillator"],
)
def test_unparsable_file_is_a_parse_error(tmp_path, args, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert_one_line_error(run_cli(*args, str(path)), 4)


@pytest.mark.parametrize(
    "args, doc, message",
    [
        (("cohomology", "--algebra"), [1, 2], "algebra file must be a JSON object"),
        (
            ("cohomology", "--algebra"),
            {"name": "x", "dim": 1, "mu": [1.5]},
            "'mu': exact scalar expected, got 1.5",
        ),
        (
            ("cohomology", "--algebra"),
            {"name": "x", "dim": 1, "mu": [None]},
            "'mu': exact scalar expected, got None",
        ),
        (("lax", "--system"), _lax_doc(dt=0.0), "'dt' must be a positive number"),
        (("lax", "--system"), _lax_doc(dt=0.5, t_end=0.25), "'t_end' must be a number >= dt"),
        (("lax", "--system"), _lax_doc(observe="norm"), "'observe' must be a list"),
    ],
    ids=["algebra-not-object", "mu-float", "mu-null", "dt-zero", "t-end-below-dt", "observe-str"],
)
def test_malformed_input_file_exits_four(tmp_path, args, doc, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    r = run_cli(*args, str(path))
    assert_one_line_error(r, 4)
    assert message in r.stderr


def test_huge_scalar_exponent_is_a_parse_error(tmp_path):
    # Fraction would expand 10**100000000 before any other check
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"name": "x", "dim": 1, "mu": ["1e100000000"]}))
    assert_one_line_error(run_cli("cohomology", "--algebra", str(path), timeout=30), 4)


@pytest.mark.parametrize(
    "args, doc, code",
    [
        (("lax", "--system"), _lax_doc(dim=1, M=[[1] * 20000]), 4),
        (("lax", "--system"), _lax_doc(dt="0.001" * 5000), 4),
        (
            ("cohomology", "--algebra"),
            {"name": "x", "dim": 1, "mu": ["1" * 4000 + "x"]},
            4,
        ),
        (("lax", "--system"), _lax_doc(observe=["x" * 50000]), 4),
        (
            ("cohomology", "--algebra"),
            # e0 e0 = e1 and e1 e0 = e0 is not associative
            {"name": "x" * 50000, "dim": 2, "mu": [0, 0, 1, 0, 1, 0, 0, 0]},
            3,
        ),
    ],
    ids=[
        "long-list-entry",
        "long-string-dt",
        "long-algebra-entry",
        "long-observer-name",
        "long-algebra-name",
    ],
)
def test_bad_scalar_error_line_is_short(tmp_path, args, doc, code):
    # the error names the bad value or name, cut short, not its whole repr
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    r = run_cli(*args, str(path), timeout=30)
    assert_one_line_error(r, code)
    assert len(r.stderr.encode()) < 300, r.stderr[:300]


# --- argparse level ------------------------------------------------------------


def test_unknown_subcommand_exits_two():
    assert run_cli("frobnicate").returncode == 2


def test_help_exits_zero():
    r = run_cli("--help")
    assert r.returncode == 0
    for sub in ("verify", "cohomology", "lax", "oscillator"):
        assert sub in r.stdout


# --- pinned exact outputs ---------------------------------------------------------

# Exit code and sha256 of stdout for commands whose output is exact or
# pass/fail only.  A change that should keep behaviour keeps these digests.
# The two corrupt-sign runs are the only ones that print coefficient lists
# (their counterexamples).
PINNED = [
    (
        ("verify", "--cases", "20", "--seed", "7", "--corrupt-sign"),
        1,
        "fde50d58256f2875303b598943c1997a8cbed37c1eda9b99695dc222ef63f8fb",
    ),
    (
        (
            "verify",
            "--cases",
            "20",
            "--seed",
            "7",
            "--corrupt-sign",
            "--format",
            "machine",
        ),
        1,
        "dc86358584237242362ac0fdbaea72de8a76cdbd17dc596a508329f75c079e0f",
    ),
    (
        ("verify", "--cases", "4"),
        0,
        "e0abb346362df33104747b58cf8c873acfe2e1bc69c7623c7ce86de8cf58fd8c",
    ),
    (
        ("verify", "--cases", "4", "--format", "machine"),
        0,
        "e76f4ba54caaf517d72fbf90424eb2104d0adba6bbd4472e5eeaf4dc78dc8067",
    ),
    (
        ("verify", "--cases", "4", "--backend", "float"),
        0,
        "170f3587b540b442049feafe396c97257727ac38ff1bcc0672e97ea66aec5fbc",
    ),
    (
        ("verify", "--backend", "float", "--cases", "4"),
        0,
        "170f3587b540b442049feafe396c97257727ac38ff1bcc0672e97ea66aec5fbc",
    ),
    (
        ("verify", "--dim", "3", "--max-degree", "2", "--cases", "4"),
        0,
        "1e9674998507cceb0fa741900077c37cc1fba97323628f362828c459bbe8eb80",
    ),
    (
        (
            "verify",
            "--backend",
            "float",
            "--dim",
            "3",
            "--max-degree",
            "2",
            "--cases",
            "4",
        ),
        0,
        "650e491cd2852d1adfa1c24980a0a897884888c17e1f546fff3d871194e35c12",
    ),
    (
        ("cohomology", "--algebra", "field.json"),
        0,
        "48fd3948534d975e29417d14c60c8684caa8e62783170fb1a0ef8fe7954f6622",
    ),
    (
        ("cohomology", "--algebra", "field.json", "--format", "machine"),
        0,
        "b14b0968ebe235c9f5b27d41f59ef6fd41a6eb8821865f3319bda9cc3f8b402d",
    ),
    (
        ("cohomology", "--algebra", "dual_numbers.json"),
        0,
        "5e1a7c1b8341ae4a6d641d0b1b1753eed710315f754c0d16465470d0ab960b50",
    ),
    (
        ("cohomology", "--algebra", "dual_numbers.json", "--format", "machine"),
        0,
        "aa566800af376e9b0bc960dd8e68e4cba55e9695ae23ba031f1abe9040bb6106",
    ),
    (
        ("cohomology", "--algebra", "mat2.json"),
        0,
        "904e71aeae6a3fb8ffdde266e2d0131eb7e0ec6d036d19f1265bd9b0bd13ed0c",
    ),
    (
        ("cohomology", "--algebra", "mat2.json", "--format", "machine"),
        0,
        "168c1919a0ee0a42aba20e80c3a6952a087d6125595eca94720474ecedd7acc3",
    ),
    (
        ("cohomology", "--algebra", "dual_numbers.json", "--max-degree", "8"),
        0,
        "fc25b1bb4ea2bb2970602ccb25b3ae7baaedfd15d0d3781c7a4a1a5e730e5c33",
    ),
    (
        (
            "cohomology",
            "--algebra",
            "dual_numbers.json",
            "--max-degree",
            "8",
            "--format",
            "machine",
        ),
        0,
        "2fb47a3a6b7466b3398be41dd112596344ef16a5b58bdfee86af209c7635d4ad",
    ),
    (
        ("cohomology", "--algebra", "mat2.json", "--max-degree", "3"),
        0,
        "dd5d6a40ce7ba2b99e84961aa0d75d87366b2ac12a61b54a985385d4f4519099",
    ),
    (
        (
            "cohomology",
            "--algebra",
            "mat2.json",
            "--max-degree",
            "3",
            "--format",
            "machine",
        ),
        0,
        "3550cca0e3f738600c2fe08bf74555e3611ba0c4a2a624e9113c621987b5f714",
    ),
    # deep tables, which the normalized complex makes quick to pin
    (
        ("cohomology", "--algebra", "mat2.json", "--max-degree", "4"),
        0,
        "b2a80021aec20b565bf64c24bed8553878f0bce8d0138876f64344a712eefe57",
    ),
    (
        (
            "cohomology",
            "--algebra",
            "mat2.json",
            "--max-degree",
            "4",
            "--format",
            "machine",
        ),
        0,
        "b5d6eda60501372b2bbcd9894608220f0a47ed63ed814dde93ea1a17fc4cd041",
    ),
    (
        ("cohomology", "--algebra", "dual_numbers.json", "--max-degree", "14"),
        0,
        "39b62ae010787d3de89cb7e6607dc387dd41293dff802ebcc12c4dc16d3bc6f0",
    ),
    # the largest table the size cap admits for mat2
    (
        ("cohomology", "--algebra", "mat2.json", "--max-degree", "6"),
        0,
        "049e48e75e9d3f721daa56f1d620520ceb277914b8e1b46c8ded95d26fc97f80",
    ),
    (
        (
            "cohomology",
            "--algebra",
            "mat2.json",
            "--max-degree",
            "6",
            "--format",
            "machine",
        ),
        0,
        "7722820efaa0bd7b3da2551127a88e166bb913e552c64fb2b9efc4414b2db307",
    ),
]


def test_exact_outputs_pinned():
    for args, code, digest in PINNED:
        args = [str(bundled_path(a)) if a.endswith(".json") else a for a in args]
        r = run_cli(*args)
        assert r.returncode == code, (args, r.stderr)
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest, args
