"""Command-line entry point.

Four subcommands: `verify` runs the randomized identity suites, `cohomology`
prints an exact Betti table for an algebra file, `lax` integrates a Lax
system from a JSON description and streams CSV, and `oscillator` runs the
harmonic-oscillator demo.  Identical flags and seed always produce
byte-identical output.

Exit codes are a stable contract:

    0  success            3  mu not associative     5  non-finite values
    1  a verify suite     4  unparsable input       6  missing initial
       failed                file                      operation (deg >= 2)
    2  bad configuration
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Iterator
from dataclasses import asdict, fields

import numpy as np

from .cohomology import betti_table, load_algebra
from .dynamics import integrate, load_initial_op, load_lax_system, require_finite
from .errors import (
    MissingInitialOpError,
    NonFiniteError,
    NotAssociativeError,
    OperadError,
    ParseError,
)
from .oscillator import (
    OscillatorParams,
    hamiltonian,
    monodromy_report,
    oscillator_system,
)
from .verify import MAX_CASES, SuiteConfig, run_all

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_CONFIG = 2
EXIT_NOT_ASSOCIATIVE = 3
EXIT_PARSE = 4
EXIT_NON_FINITE = 5
EXIT_MISSING_INIT = 6


# Looked up along the exception's MRO, so the most specific class wins.
_EXIT_CODES = {
    ParseError: EXIT_PARSE,
    NotAssociativeError: EXIT_NOT_ASSOCIATIVE,
    NonFiniteError: EXIT_NON_FINITE,
    MissingInitialOpError: EXIT_MISSING_INIT,
    OperadError: EXIT_CONFIG,
}


@functools.cache  # built on first use, once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="operadics",
        description="identity suites, cohomology tables, and Lax flows "
        "for graded multilinear operations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument(
            "--format",
            choices=("text", "machine"),
            default="text",
            help="report format (machine = JSON)",
        )

    pv = sub.add_parser("verify", help="run every identity suite")
    common(pv)
    pv.add_argument("--seed", type=int, help="RNG seed (default %(default)s)")
    pv.add_argument("--dim", type=int, help="module dimension")
    pv.add_argument("--max-degree", type=int, help="largest degree drawn")
    pv.add_argument("--cases", type=int, help=f"cases per suite, at most {MAX_CASES}")
    pv.add_argument("--tol", type=float, help="float-backend tolerance")
    pv.add_argument("--backend", choices=("exact", "float"))
    pv.add_argument("--corrupt-sign", action="store_true", help=argparse.SUPPRESS)
    pv.set_defaults(**asdict(SuiteConfig()))

    pc = sub.add_parser("cohomology", help="exact Betti table of an algebra file")
    common(pc)
    pc.add_argument("--algebra", required=True, help="JSON structure-constant file")
    pc.add_argument(
        "--max-degree",
        type=int,
        default=None,
        help="largest cochain degree (default sized to the dimension)",
    )

    pl = sub.add_parser("lax", help="integrate a Lax system file, stream CSV")
    common(pl)
    pl.add_argument("--system", required=True, help="JSON system file")
    pl.add_argument("--dt", type=float, default=None, help="override the file's dt")
    pl.add_argument(
        "--t-end", type=float, default=None, help="override the file's t_end"
    )

    po = sub.add_parser("oscillator", help="harmonic-oscillator demo, stream CSV")
    common(po)
    po.add_argument("--omega", type=float, default=1.0, help="angular frequency > 0")
    po.add_argument("--q0", type=float, default=1.0)
    po.add_argument("--p0", type=float, default=0.0)
    po.add_argument("--degree", type=int, default=1, help="degree of the variable")
    po.add_argument("--t-end", type=float, default=10.0)
    po.add_argument("--dt", type=float, default=1e-3)
    po.add_argument(
        "--l-init",
        default=None,
        help="JSON file with the initial operation (required for degree >= 2)",
    )
    return parser


# Rows in one piece of CSV output.
_CSV_ROWS = 1024


def _machine(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv(columns, table, footer_lines=()) -> Iterator[str]:
    """The CSV text in pieces: the header, at most _CSV_ROWS rows at a time,
    then the footer, so a long run is never held as one string."""
    # "%.17g" % v has the bytes of f"{v:.17g}", nan, inf and -0 included
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    yield ",".join(columns) + "\n"
    for lo in range(0, len(table), _CSV_ROWS):
        yield "".join(row % r for r in map(tuple, table[lo : lo + _CSV_ROWS].tolist()))
    yield "".join(line + "\n" for line in footer_lines)


def _cmd_verify(args) -> tuple[int, str]:
    cfg = SuiteConfig(**{f.name: getattr(args, f.name) for f in fields(SuiteConfig)})
    results = run_all(cfg)
    ok = all(r.passed for r in results)
    if args.format == "machine":
        doc = {
            "command": "verify",
            "config": {
                name: value
                for name, value in asdict(cfg).items()
                if name not in ("variance", "corrupt_sign")
            },
            "suites": [asdict(r) for r in results],
            "ok": ok,
        }
        return (EXIT_OK if ok else EXIT_SUITE_FAILED, _machine(doc))
    lines = [
        f"verify: backend={cfg.backend} dim={cfg.dim} max-degree={cfg.max_degree} "
        f"cases={cfg.cases} tol={cfg.tol:g} seed={cfg.seed}"
    ]
    if cfg.cases == 0:
        lines.append("warning: 0 cases requested; every suite passes vacuously")
    for r in results:
        status = "pass" if r.passed else f"FAIL ({r.failures} failures)"
        if r.note:
            status += f" ({r.note})"
        lines.append(f"  {r.name:<34} {r.cases:>5} cases  {status}")
        if r.counterexample:
            lines.append(f"    counterexample: {r.counterexample}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"result: {passed}/{len(results)} suites passed")
    return (EXIT_OK if ok else EXIT_SUITE_FAILED, "\n".join(lines) + "\n")


def _cmd_cohomology(args) -> tuple[int, str]:
    table = betti_table(load_algebra(args.algebra), args.max_degree)
    if args.format == "machine":
        doc = {
            "command": "cohomology",
            "name": table.name,
            "dim": table.dim,
            "n_max": table.n_max,
            "table": [
                {
                    "n": n,
                    "dim": table.dims[n],
                    "rank": table.ranks[n],
                    "kernel": table.kernels[n],
                    "h": table.betti[n],
                }
                for n in range(table.n_max + 1)
            ],
        }
        return (EXIT_OK, _machine(doc))
    lines = [f"algebra: {table.name} (dim {table.dim}), degrees 0..{table.n_max}"]
    width = len(str(table.n_max))
    lines.append(f"  {'n':>{width}}  dim C^n  rank  kernel  H^n")
    for n in range(table.n_max + 1):
        lines.append(
            f"  {n:>{width}}  {table.dims[n]:>7}  {table.ranks[n]:>4}  "
            f"{table.kernels[n]:>6}  {table.betti[n]:>3}"
        )
    return (EXIT_OK, "\n".join(lines) + "\n")


def _flow_report(args, system, traj, extra=(), keys=(), footer=()):
    """The report of a flow run: columns t, the extra (name, values) columns,
    the observers and L0..., as one JSON document with the extra keys or as
    CSV pieces ending in the footer lines."""
    columns = ["t", *(name for name, _ in extra), *system.observe]
    columns += (f"L{k}" for k in range(traj.coeffs.shape[1]))
    observed = [traj.invariants[name] for name in system.observe]
    table = np.column_stack([traj.t, *(v for _, v in extra), *observed, traj.coeffs])
    if args.format == "machine":
        doc = {"command": args.command, "columns": columns, "rows": table.tolist()}
        doc.update(keys)
        return (EXIT_OK, _machine(doc))
    return (EXIT_OK, _csv(columns, table, footer))


def _cmd_lax(args) -> tuple[int, str | Iterator[str]]:
    system = load_lax_system(args.system, args.dt, args.t_end)
    return _flow_report(args, system, integrate(system))


def _cmd_oscillator(args) -> tuple[int, str | Iterator[str]]:
    l_init = None
    if args.l_init is not None:
        l_init = load_initial_op(args.l_init, 2)
    params = OscillatorParams(
        omega=args.omega,
        q0=args.q0,
        p0=args.p0,
        degree=args.degree,
        l_init=l_init,
    )
    system = oscillator_system(params, args.dt, args.t_end)
    traj = integrate(system)
    q, p = traj.state.T
    with np.errstate(over="ignore"):
        energy = hamiltonian(q, p, params.omega)
    require_finite(energy, system.dt, "H")
    report = monodromy_report(params)
    footer = (
        f"# monodromy degree={report.degree} period={report.period:.17g} "
        f"defect={report.defect:.17g} "
        f"periodic={'true' if report.periodic else 'false'}",
    )
    extra = (("q", q), ("p", p), ("H", energy))
    keys = {"monodromy": asdict(report)}
    return _flow_report(args, system, traj, extra, keys, footer)


_HANDLERS = {
    "verify": _cmd_verify,
    "cohomology": _cmd_cohomology,
    "lax": _cmd_lax,
    "oscillator": _cmd_oscillator,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, text = _HANDLERS[args.command](args)
    except OperadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)
    # a handler returns its text whole or, for CSV, as pieces to write in turn
    pieces = [text] if isinstance(text, str) else text
    if args.out is not None:
        with open(args.out, "w", newline="") as handle:
            handle.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)
    return code


if __name__ == "__main__":
    sys.exit(main())
