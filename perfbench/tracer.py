"""Span tracing of operadics from outside the package.

The tracer wraps the public functions listed in TRACED and rebinds every
name under which an ``operadics`` module holds them (``braces.partial_compose``,
``dynamics.partial_compose``, ...), so calls made inside the package are
seen too.  Each call becomes a span (id, parent id, name, start, end) kept in
flat integer arrays; self time is computed afterwards as a span's duration
minus the durations of its direct children.  Uninstalling restores every
original binding.
"""

from __future__ import annotations

import itertools
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Functions whose calls become spans, by module of definition.
TRACED = {
    "multiop": ("partial_compose", "add", "scale"),
    "braces": (
        "total_compose",
        "cup",
        "tribrace",
        "tetrabrace",
        "bracket",
        "mu_squared",
    ),
    "coboundary": (
        "coboundary",
        "compose_deviation",
        "brace_deviation",
        "cup_deviation",
    ),
    "cohomology": ("coboundary_matrix", "exact_rank", "solve_linear", "nullspace"),
    "dynamics": ("integrate", "evaluate_observer", "conjugation_oracle", "matrix_exp"),
    "oscillator": ("canonical_flow", "monodromy_report"),
    "verify": ("run_suite",),
    "cli": ("main",),
}

# Calls of these functions are recorded under a name taken from the call:
# one span name per verify suite.
_NAME_FROM_ARGS = {"verify.run_suite": lambda args: "verify." + args[0]}

COUNTERS = (
    "object_results",
    "computed_madds",
    "computed_bytes",
    "rk4_steps",
)


class Tracer:
    """Records spans and counts for one traced pass of a workload."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids = array("q")
        self.parents = array("q")
        self.name_ix = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.matrices: list = []
        self._stack = [0]
        self._next_id = itertools.count(1)

    def _name_id(self, name: str) -> int:
        ix = self._name_ids.get(name)
        if ix is None:
            ix = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ix

    # ------------------------------------------------------------ wrapping

    def _wrap(self, label: str, fn, on_result):
        fixed_id = self._name_id(label)
        name_from_args = _NAME_FROM_ARGS.get(label)
        stack, next_id, clock = self._stack, self._next_id, time.perf_counter_ns
        ids, parents, name_ix = self.ids, self.parents, self.name_ix
        starts, ends = self.starts, self.ends

        def wrapper(*args, **kwargs):
            sid = next(next_id)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ids.append(sid)
                parents.append(parent)
                name_ix.append(
                    fixed_id if name_from_args is None else self._name_id(name_from_args(args))
                )
                starts.append(t0)
                ends.append(t1)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _on_compose(self, args, result):
        f, g = args[0], args[1]
        out = result.coeffs
        counts = self.counts
        # each output coefficient is a dot product of length dim
        counts["computed_madds"] += out.size * f.dim
        counts["computed_bytes"] += f.coeffs.nbytes + g.coeffs.nbytes + out.nbytes
        if out.dtype == object:
            counts["object_results"] += 1

    def _on_arith(self, _args, result):
        if result.coeffs.dtype == object:
            self.counts["object_results"] += 1

    def _on_integrate(self, _args, samples):
        self.counts["rk4_steps"] += len(samples) - 1

    def _on_matrix(self, _args, matrix):
        self.matrices.append(matrix)

    @contextmanager
    def installed(self):
        """Rebind every traced function in every loaded operadics module."""
        hooks = {
            "multiop.partial_compose": self._on_compose,
            "multiop.add": self._on_arith,
            "multiop.scale": self._on_arith,
            "dynamics.integrate": self._on_integrate,
            "cohomology.coboundary_matrix": self._on_matrix,
        }
        modules = [
            mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "operadics" or name.startswith("operadics."))
        ]
        bindings = []
        for short, fn_names in TRACED.items():
            home = sys.modules[f"operadics.{short}"]
            for fn_name in fn_names:
                label = f"{short}.{fn_name}"
                original = getattr(home, fn_name)
                wrapper = self._wrap(label, original, hooks.get(label))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            bindings.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original in reversed(bindings):
                setattr(mod, attr, original)

    # ------------------------------------------------------------ analysis

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "id": np.frombuffer(self.ids, dtype=np.int64),
            "parent": np.frombuffer(self.parents, dtype=np.int64),
            "name": np.frombuffer(self.name_ix, dtype=np.int64),
            "start_ns": np.frombuffer(self.starts, dtype=np.int64),
            "end_ns": np.frombuffer(self.ends, dtype=np.int64),
        }

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self and total seconds, and durations."""
        a = self.arrays()
        if not a["id"].size:
            return {}
        dur = a["end_ns"] - a["start_ns"]
        top = int(a["id"].max())
        # time covered by children, indexed by the parent's id
        covered = np.bincount(a["parent"], weights=dur, minlength=top + 1)
        self_ns = dur - covered[a["id"]]
        out = {}
        for ix, name in enumerate(self.names):
            mask = a["name"] == ix
            if not mask.any():
                continue
            out[name] = {
                "calls": int(mask.sum()),
                "self_s": float(self_ns[mask].sum()) / 1e9,
                "total_s": float(dur[mask].sum()) / 1e9,
                "durations_ns": dur[mask],
            }
        return out

    def save(self, path: Path) -> None:
        """Write the recorded spans and the span-name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            np.savez_compressed(handle, names=np.array(self.names), **self.arrays())


def block_structure(matrix) -> tuple[int, int, int]:
    """(nonzeros, blocks, largest block's column count) of a coboundary matrix.

    Blocks are the connected components of the bipartite graph joining row r
    to column c whenever entry (r, c) is nonzero, found by union-find over
    all rows and columns: a zero row or column is a block of its own.
    """
    rows = matrix.rows
    parent = list(range(rows + matrix.cols))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    nnz = 0
    for r, row in enumerate(matrix.entries):
        for c, value in enumerate(row):
            if value:
                nnz += 1
                a, b = find(r), find(rows + c)
                if a != b:
                    parent[a] = b
    roots = [find(x) for x in range(len(parent))]
    cols_per_block: dict[int, int] = {}
    for root in roots[rows:]:
        cols_per_block[root] = cols_per_block.get(root, 0) + 1
    largest = max(cols_per_block.values(), default=0)
    return nnz, len(set(roots)), largest
