"""Seeded inputs, operations and correctness gates of the benchmark workloads.

Each workload writes its inputs from a seed, loads them through the public
API (its set-up), and yields the operations of one pass over those inputs.
Every operation belongs to slot ``a`` or ``b``; the end-to-end metrics
``op_a_s`` and ``op_b_s`` are the seconds (at run.py's reference CPU speed)
a pass spends in each slot.  Every
output is checked against an oracle that does not use the code under test
where one exists: classical Hochschild values, closed-form flows, exact
re-application of the coboundary.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from operadics import (
    ENDO,
    MultiOp,
    cli,
    coboundary,
    cocycle_basis,
    is_coboundary,
    is_zero,
    load_algebra,
    load_initial_op,
    load_lax_system,
    suite_names,
)


@dataclass(frozen=True)
class CliOutput:
    code: int
    text: str


def run_cli(argv: list[str]) -> CliOutput:
    """One in-process ``operadics`` command, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        # looked up at call time so a traced run sees its wrapper
        code = cli.main(argv)
    return CliOutput(code, buf.getvalue())


@dataclass(frozen=True)
class Op:
    """One operation: run() is timed, check(output) returns an error or None."""

    label: str
    slot: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


class Workload:
    name = ""
    why = ""
    # labels of the slot-a and slot-b operations, for the run record
    slots = {"a": "", "b": ""}

    def write_inputs(self, seed: int, inputs: Path) -> None:
        raise NotImplementedError

    def setup(self, inputs: Path) -> None:
        """Load the inputs through the public API and finish warm-up."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def named_metrics(self, samples: dict[str, list[float]]) -> dict[str, tuple]:
        """Workload-specific (value, unit) figures from per-label op seconds."""
        raise NotImplementedError


def _median(values):
    return float(np.median(values))


# ------------------------------------------------------------------ verify


class Verify(Workload):
    name = "verify"
    why = (
        "a=exact, b=float backend of `verify --cases 25` on 4 seeds: tens of "
        "thousands of small partial_compose/add/scale calls, per-call overhead "
        "in multiop and braces, no rank work"
    )
    slots = {"a": "verify --backend exact", "b": "verify --backend float"}
    CASES = 25
    SEEDS = 4

    def write_inputs(self, seed, inputs):
        rng = random.Random(seed)
        seeds = [rng.randrange(1_000_000) for _ in range(self.SEEDS)]
        (inputs / "verify.json").write_text(json.dumps({"seeds": seeds}))

    def setup(self, inputs):
        self.seeds = json.loads((inputs / "verify.json").read_text())["seeds"]
        self.suites = len(suite_names())
        self.first_output: dict[tuple, str] = {}
        # fills the cocycle-basis cache of the cocycle suites
        for backend in ("exact", "float"):
            run_cli(self._argv(backend, self.seeds[0], cases=5))

    def _argv(self, backend, seed, cases=None):
        return [
            "verify",
            "--backend",
            backend,
            "--cases",
            str(self.CASES if cases is None else cases),
            "--seed",
            str(seed),
            "--dim",
            "2",
            "--max-degree",
            "3",
        ]

    def _check(self, key, out: CliOutput):
        if out.code != 0:
            return f"verify {key} exited {out.code}"
        last = out.text.rstrip("\n").rsplit("\n", 1)[-1]
        passed = re.fullmatch(r"result: (\d+)/(\d+) suites passed", last)
        if not passed or passed[1] != passed[2]:
            return f"verify {key}: {last!r}"
        first = self.first_output.setdefault(key, out.text)
        if first != out.text:
            return f"verify {key}: output differs between repeats of one seed"
        return None

    def ops(self):
        out = []
        for seed in self.seeds:
            for backend, slot in (("exact", "a"), ("float", "b")):
                argv = self._argv(backend, seed)
                key = (backend, seed)
                out.append(
                    Op(
                        backend,
                        slot,
                        lambda argv=argv: run_cli(argv),
                        lambda o, key=key: self._check(key, o),
                    )
                )
        return out

    def named_metrics(self, samples):
        cases = self.suites * self.CASES
        return {
            "verify.exact_cases_per_s": (cases / _median(samples["exact"]), "1/s"),
            "verify.float_cases_per_s": (cases / _median(samples["float"]), "1/s"),
        }


# -------------------------------------------------------------- cohomology


def _mat2_constants() -> list[int]:
    """Structure constants of M2(Q) on the matrix units E11, E12, E21, E22."""
    units = [(i, j) for i in range(2) for j in range(2)]
    out = []
    for i, j in units:  # output index most significant
        for k, l in units:
            for m, n in units:
                # E_kl E_mn = [l == m] E_kn
                out.append(int(l == m and (i, j) == (k, n)))
    return out


# Structure constants of Q[x]/(x^2) on the basis (1, x).
_DUAL_CONSTANTS = [1, 0, 0, 0, 0, 1, 1, 0]

# Classical Hochschild dimensions (Hochschild 1945; Gerstenhaber 1963).
def _hh_mat2(n: int) -> int:
    return 1 if n == 0 else 0  # separable: only the centre survives


def _hh_dual(n: int) -> int:
    return 2 if n == 0 else 1  # characteristic 0


def _kernel_dim(hh, dim: int, n: int) -> int:
    """dim Ker(d | C^n) implied by the Hochschild dimensions."""
    rank_prev = 0
    for k in range(n + 1):
        kernel = hh(k) + rank_prev
        rank_prev = dim ** (k + 1) - kernel
    return kernel


class Cohomology(Workload):
    name = "cohomology"
    why = (
        "a=Betti tables of M2(Q) to degree 2 and Q[x]/(x^2) to degree 6 "
        "(dense exact rank), b=seeded preimage pass (rational RREF): rank vs "
        "solve/nullspace"
    )
    slots = {"a": "cohomology mat2 n<=2 + dual n<=6", "b": "preimage pass"}
    TABLES = (("mat2", 4, 2, _hh_mat2), ("dual", 2, 6, _hh_dual))
    # (algebra, degree of the random preimage g, degree of the non-cocycle)
    PREIMAGES = (("dual", 5, 6), ("mat2", 2, 3))
    BASIS_DEGREE = 2

    def write_inputs(self, seed, inputs):
        rng = random.Random(seed)
        doc = {}
        for alg, dim, constants in (
            ("mat2", 4, _mat2_constants()),
            ("dual", 2, _DUAL_CONSTANTS),
        ):
            path = inputs / f"{alg}.json"
            path.write_text(
                json.dumps({"name": alg, "dim": dim, "mu": [str(v) for v in constants]})
            )
        for alg, g_deg, f_deg in self.PREIMAGES:
            dim = 4 if alg == "mat2" else 2
            doc[alg] = {
                "g": [rng.randint(-3, 3) for _ in range(dim ** (g_deg + 1))],
                "g_degree": g_deg,
                "f": [rng.randint(-3, 3) for _ in range(dim ** (f_deg + 1))],
                "f_degree": f_deg,
            }
        (inputs / "preimage.json").write_text(json.dumps(doc))

    def setup(self, inputs):
        self.paths = {alg: str(inputs / f"{alg}.json") for alg in ("mat2", "dual")}
        self.specs = {alg: load_algebra(p) for alg, p in self.paths.items()}
        for spec in self.specs.values():
            if not spec.is_associative():
                raise ValueError(f"{spec.name} is not associative")
        doc = json.loads((inputs / "preimage.json").read_text())
        self.targets = []  # (algebra, target, expect_preimage)
        for alg, _, _ in self.PREIMAGES:
            spec, entry = self.specs[alg], doc[alg]
            g = MultiOp(spec.dim, entry["g_degree"], ENDO, np.array(entry["g"], np.int64))
            f = MultiOp(spec.dim, entry["f_degree"], ENDO, np.array(entry["f"], np.int64))
            # d(d f) = 0, so an f with d f != 0 cannot be a coboundary
            if is_zero(coboundary(spec.mu, f)):
                raise ValueError(f"seeded {alg} non-cocycle is a cocycle; pick another seed")
            self.targets.append((alg, coboundary(spec.mu, g), True))
            self.targets.append((alg, f, False))

    def _table_argv(self, alg, n_max):
        return ["cohomology", "--algebra", self.paths[alg], "--max-degree", str(n_max)]

    def _check_table(self, alg, dim, n_max, hh, out: CliOutput):
        if out.code != 0:
            return f"cohomology {alg} exited {out.code}"
        rows = out.text.splitlines()[2:]
        if len(rows) != n_max + 1:
            return f"cohomology {alg}: {len(rows)} table rows"
        for n, line in enumerate(rows):
            got = [int(x) for x in line.split()]
            dim_n = dim ** (n + 1)
            kernel = _kernel_dim(hh, dim, n)
            want = [n, dim_n, dim_n - kernel, kernel, hh(n)]
            if got != want:
                return f"cohomology {alg} degree {n}: {got} != classical {want}"
        return None

    def _preimage_pass(self):
        found = [(alg, t, is_coboundary(self.specs[alg], t)) for alg, t, _ in self.targets]
        basis = cocycle_basis(self.specs["mat2"], self.BASIS_DEGREE)
        return found, basis

    def _check_preimages(self, result):
        found, basis = result
        for (alg, target, exact), (_, _, pre) in zip(self.targets, found):
            if not exact:
                if pre is not None:
                    return f"{alg}: a non-cocycle got a preimage"
                continue
            if pre is None or coboundary(self.specs[alg].mu, pre) != target:
                return f"{alg}: preimage does not map to its target"
        mu = self.specs["mat2"].mu
        want = _kernel_dim(_hh_mat2, 4, self.BASIS_DEGREE)
        if len(basis) != want:
            return f"mat2 cocycle basis has {len(basis)} vectors, want {want}"
        if any(not is_zero(coboundary(mu, b)) for b in basis):
            return "mat2 cocycle basis holds a non-cocycle"
        stacked = np.array([b.coeffs.astype(np.float64) for b in basis])
        if np.linalg.matrix_rank(stacked) != want:
            return "mat2 cocycle basis is linearly dependent"
        return None

    def ops(self):
        out = []
        for alg, dim, n_max, hh in self.TABLES:
            argv = self._table_argv(alg, n_max)
            out.append(
                Op(
                    alg,
                    "a",
                    lambda argv=argv: run_cli(argv),
                    lambda o, a=(alg, dim, n_max, hh): self._check_table(*a, o),
                )
            )
        out.append(Op("preimage", "b", self._preimage_pass, self._check_preimages))
        return out

    def named_metrics(self, samples):
        return {
            "cohomology.mat2_s": (_median(samples["mat2"]), "s"),
            "cohomology.dual_s": (_median(samples["dual"]), "s"),
            "cohomology.preimage_s": (_median(samples["preimage"]), "s"),
        }


# -------------------------------------------------------------------- flow


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _conjugate(l_coeffs, degree: int, angle: float) -> np.ndarray:
    """exp(tM) o L o exp(-tM) on every input, for M = [[0, -w], [w, 0]], wt = angle.

    exp(tM) is the rotation by the angle, so the closed form needs no
    integrator and no matrix exponential.
    """
    fwd, back = _rotation(angle), _rotation(-angle)
    right = np.ones((1, 1))
    for _ in range(degree):
        right = np.kron(right, back)
    mat = np.asarray(l_coeffs, dtype=np.float64).reshape(2, 2**degree)
    return (fwd @ mat @ right).reshape(-1)


def _read_csv(text: str):
    """Header, float rows and the '#' footer lines of a CLI CSV stream."""
    lines = text.splitlines()
    header = lines[0].split(",")
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    footer = [ln for ln in lines[1:] if ln.startswith("#")]
    rows = np.array([[float(x) for x in ln.split(",")] for ln in body])
    return header, rows, footer


# Tolerances of acceptance criteria 5 and 6.
DRIFT_TOL = 1e-8
ENDPOINT_TOL = 1e-6
ASSOC_TOL = 1e-8


class Flow(Workload):
    name = "flow"
    why = (
        "a=`lax` degree-2 system, b=`oscillator` degree 1 and 3, 3000 RK4 steps "
        "each: integrator, observers and CSV formatting; no cohomology, little "
        "multiop"
    )
    slots = {"a": "lax --t-end 3", "b": "oscillator --t-end 3, degrees 1 and 3"}
    T_END = 3.0
    DT = 1e-3
    OMEGA = 1.0  # the CLI's default frequency

    def write_inputs(self, seed, inputs):
        rng = random.Random(seed)
        # a scaled, rotated copy of the coordinatewise product: associative
        diag = np.zeros(8)
        diag[0] = diag[7] = 1.0
        theta, c = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.5, 1.5)
        l0 = c * _conjugate(diag, 2, theta)
        system = {
            "dim": 2,
            "M": [0.0, -1.0, 1.0, 0.0],
            "L0": {"degree": 2, "coeffs": l0.tolist()},
            "dt": self.DT,
            "t_end": 1.0,
            "observe": ["assoc_defect", "norm"],
        }
        (inputs / "lax.json").write_text(json.dumps(system))
        l3 = [rng.uniform(-1.0, 1.0) for _ in range(16)]
        (inputs / "l_init3.json").write_text(json.dumps({"degree": 3, "coeffs": l3}))
        q0, p0 = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
        (inputs / "state.json").write_text(json.dumps({"q0": q0, "p0": p0}))

    def setup(self, inputs):
        self.lax_path = str(inputs / "lax.json")
        self.l3_path = str(inputs / "l_init3.json")
        self.lax = load_lax_system(self.lax_path)
        self.l3 = load_initial_op(self.l3_path, 2)
        state = json.loads((inputs / "state.json").read_text())
        self.q0, self.p0 = state["q0"], state["p0"]
        for argv in self._argvs(t_end=0.01).values():
            run_cli(argv)

    def _argvs(self, t_end=None):
        t = repr(self.T_END if t_end is None else t_end)
        osc = ["oscillator", "--t-end", t, "--q0", repr(self.q0), "--p0", repr(self.p0)]
        return {
            "lax": ["lax", "--system", self.lax_path, "--t-end", t],
            "osc1": osc + ["--degree", "1"],
            "osc3": osc + ["--degree", "3", "--l-init", self.l3_path],
        }

    def _check_steps(self, rows) -> str | None:
        steps = len(rows) - 1
        want = round(self.T_END / self.DT)
        if steps != want or abs(rows[-1, 0] - self.T_END) > 1e-9:
            return f"{steps} steps ending at t={rows[-1, 0]}, want {want} to {self.T_END}"
        return None

    def _check_lax(self, out: CliOutput):
        if out.code != 0:
            return f"lax exited {out.code}"
        header, rows, _ = _read_csv(out.text)
        err = self._check_steps(rows)
        if err:
            return "lax: " + err
        defect = rows[:, header.index("assoc_defect")].max()
        if defect > ASSOC_TOL:
            return f"lax: associativity defect {defect:.3e}"
        l0 = np.array(self.lax.l0.coeffs)
        want = _conjugate(l0, 2, self.T_END)  # M = [[0, -1], [1, 0]]
        got = rows[-1, header.index("L0") :]
        gap = np.abs(got - want).max()
        if gap > ENDPOINT_TOL:
            return f"lax: endpoint differs from the closed form by {gap:.3e}"
        return None

    def _check_oscillator(self, degree, out: CliOutput):
        if out.code != 0:
            return f"oscillator degree {degree} exited {out.code}"
        header, rows, footer = _read_csv(out.text)
        err = self._check_steps(rows)
        if err:
            return f"oscillator degree {degree}: {err}"
        w, q0, p0 = self.OMEGA, self.q0, self.p0
        h0 = 0.5 * (p0 * p0 + w * w * q0 * q0)
        drift = np.abs(rows[:, header.index("H")] - h0).max()
        if drift > DRIFT_TOL:
            return f"oscillator degree {degree}: H drift {drift:.3e}"
        if degree == 1:
            # trace(L^2) = 4H along the flow
            drift = np.abs(rows[:, header.index("trace2")] - 4 * h0).max()
            if drift > DRIFT_TOL:
                return f"oscillator degree 1: trace2 drift {drift:.3e}"
            l_init = [p0, w * q0, w * q0, -p0]
        else:
            l_init = np.array(self.l3.coeffs)
        t = self.T_END
        q = q0 * math.cos(w * t) + (p0 / w) * math.sin(w * t)
        p = p0 * math.cos(w * t) - w * q0 * math.sin(w * t)
        want = np.concatenate([[q, p], _conjugate(l_init, degree, w * t / 2)])
        got = np.concatenate(
            [rows[-1, header.index("q") : header.index("p") + 1], rows[-1, header.index("L0") :]]
        )
        gap = np.abs(got - want).max()
        if gap > ENDPOINT_TOL:
            return f"oscillator degree {degree}: endpoint gap {gap:.3e}"
        # exp(TM) = -1 after one period: odd degrees return, even ones flip
        periodic = f"periodic={'true' if degree % 2 else 'false'}"
        if len(footer) != 1 or not footer[0].endswith(periodic):
            return f"oscillator degree {degree}: monodromy footer {footer}"
        return None

    def ops(self):
        argvs = self._argvs()
        return [
            Op("lax", "a", lambda: run_cli(argvs["lax"]), self._check_lax),
            Op(
                "osc1",
                "b",
                lambda: run_cli(argvs["osc1"]),
                lambda o: self._check_oscillator(1, o),
            ),
            Op(
                "osc3",
                "b",
                lambda: run_cli(argvs["osc3"]),
                lambda o: self._check_oscillator(3, o),
            ),
        ]

    def named_metrics(self, samples):
        steps = round(self.T_END / self.DT)
        osc = [a + b for a, b in zip(samples["osc1"], samples["osc3"])]
        return {
            "flow.lax_steps_per_s": (steps / _median(samples["lax"]), "1/s"),
            "flow.oscillator_steps_per_s": (2 * steps / _median(osc), "1/s"),
        }


WORKLOADS = {w.name: w for w in (Verify, Cohomology, Flow)}
