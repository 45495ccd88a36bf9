"""Layered benchmark of operadics: seeded workloads, checked outputs, traced layers.

    python3 perfbench/run.py --workload {verify,cohomology,flow} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

One client runs a closed loop in this process: each operation (an
``operadics.cli.main`` call, or a pass of public-API calls) starts after the
previous one ends, and BLAS is pinned to one thread.  A pass runs every
operation of the workload once; passes repeat until ``--seconds`` have
elapsed.  Every output is checked (see workloads.py) and an operation that
raises, exits non-zero or fails its check counts as failed.

Times are reported at a reference CPU speed.  On a shared virtual machine
the speed of a core drifts by tens of percent over tens of seconds, which
makes raw medians of short runs disagree.  A fixed mix of benchmark-owned
work (reference_seconds) is timed before and after every operation, and the
operation's wall time is scaled by REFERENCE_S over the mean of the two.
Wall times are kept in the run record.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
``op_a_s`` and ``op_b_s``, the median over passes of the seconds a pass
spends in the workload's slot-a and slot-b operations, and ``setup_s``, the
median time of fresh interpreters that import operadics, load the inputs and
warm up.  With ``--trace 1`` passes alternate between untraced and traced
(tracer.py), and the run reports the per-layer metrics of BENCHMARK.json
for one pass, plus ``trace.overhead``, traced over untraced pass time.
End-to-end numbers only ever come from untraced passes.  ``--workload all``
runs every workload untraced and reports the workload-specific figures.

The last stdout line is the result object; the line before it is the run
record: commit, versions, CPUs, BLAS threads, source lines, wall times and
the workload-specific figures.  Spans of the first traced pass of a run go
to .perfbench_out/spans-<workload>.npz.
"""

import os

# Pin BLAS threads before numpy loads; child processes inherit the setting.
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
# Duration of reference_seconds() at the reference speed: end-to-end times
# are reported as if the CPU ran at that speed (see run_pass).
REFERENCE_S = 0.020
_REF_F = np.arange(16, dtype=np.int64).reshape(2, 2, 2, 2)
_REF_G = np.arange(8, dtype=np.int64).reshape(2, 4)
_REF_M = np.full((8, 8), 0.1)
_REF_V = np.ones(8)


def _parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []


def reference_seconds() -> float:
    """Wall time of a fixed mix of benchmark-owned work: the CPU's current speed.

    The mix has the kinds of work the workloads do: an interpreted integer
    loop, small integer contractions, Fraction arithmetic and small float
    matrix-vector products.
    """
    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i
    for _ in range(400):
        np.tensordot(_REF_F, _REF_G, axes=([2], [0])).transpose(0, 1, 3, 2).copy()
    x = Fraction(1, 3)
    for i in range(1, 1500):
        x = x * Fraction(i + 1, i) - Fraction(1, i + 2)
    y = _REF_V
    for _ in range(1500):
        y = _REF_M @ y + _REF_V
    return time.perf_counter() - start


def to_reference(seconds: float, probe_before: float, probe_after: float) -> float:
    """Scale a wall time to the reference speed, from the probes around it."""
    return seconds * REFERENCE_S / ((probe_before + probe_after) / 2)


def run_pass(workload, tally: Tally, tracer=None) -> list[tuple]:
    """Run every operation once; return (op, seconds, ref_seconds, output).

    ``ref_seconds`` is the operation's wall time at the reference speed,
    from reference_seconds() measured just before and just after it.
    Outputs are checked after the pass, outside the traced region, so checks
    never show up in spans.
    """
    timed = []
    with tracer.installed() if tracer is not None else nullcontext():
        probe = reference_seconds()
        for op in workload.ops():
            gc.collect()
            start = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # a raising operation is a failed one
                out, err = None, f"{op.label} raised {exc!r}"
            seconds = time.perf_counter() - start
            before, probe = probe, reference_seconds()
            timed.append((op, seconds, to_reference(seconds, before, probe), out, err))
    for op, _, _, out, err in timed:
        tally.attempted += 1
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:
                err = f"{op.label} check raised {exc!r}"
        if err is not None:
            tally.failed += 1
            tally.errors.append(err)
    return [entry[:4] for entry in timed]


def setup_seconds(workload_name: str, inputs: Path) -> tuple[float, float]:
    """Median (reference-speed, wall) seconds of fresh interpreters doing set-up."""
    ref, wall = [], []
    probe = reference_seconds()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # wait() without a timeout blocks in waitpid; with a timeout it
        # polls every 50 ms and would quantise the measurement
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), "--workload", workload_name,
             "--inputs", str(inputs)],
            stdout=subprocess.DEVNULL,
        ) as proc:
            code = proc.wait()
        seconds = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}")
        before, probe = probe, reference_seconds()
        ref.append(to_reference(seconds, before, probe))
        wall.append(seconds)
    return statistics.median(ref), statistics.median(wall)


def timed_run(workload, seconds: float, tally: Tally):
    """Untraced passes until the deadline.

    Returns the slot metrics (median over passes of the reference-speed
    seconds each slot takes), the wall seconds of every pass by slot, and
    the reference-speed seconds of every operation by label.
    """
    ref = {"a": [], "b": []}
    wall = {"a": [], "b": []}
    samples: dict[str, list[float]] = {}
    deadline = time.perf_counter() + seconds
    while not ref["a"] or time.perf_counter() < deadline:
        pass_ref = {"a": 0.0, "b": 0.0}
        pass_wall = {"a": 0.0, "b": 0.0}
        for op, secs, ref_secs, _ in run_pass(workload, tally):
            pass_ref[op.slot] += ref_secs
            pass_wall[op.slot] += secs
            samples.setdefault(op.label, []).append(ref_secs)
        for slot in ref:
            ref[slot].append(pass_ref[slot])
            wall[slot].append(pass_wall[slot])
    metrics = {f"op_{slot}_s": statistics.median(v) for slot, v in ref.items()}
    return metrics, wall, samples


def layer_metrics(tracer, output_bytes: int) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    from operadics.verify import suite_names

    from tracer import TRACED, block_structure

    spans = tracer.summary()

    def field(name, key):
        return spans[name][key] if name in spans else 0

    out = {}
    for short, fn_names in TRACED.items():
        for fn_name in fn_names:
            name = f"{short}.{fn_name}"
            out[f"{name}.calls"] = field(name, "calls")
            out[f"{name}.self_s"] = field(name, "self_s")
    out["coboundary.deviations.self_s"] = sum(
        field(f"coboundary.{n}_deviation", "self_s") for n in ("compose", "brace", "cup")
    )
    durations = spans.get("multiop.partial_compose", {}).get("durations_ns")
    if durations is not None and durations.size:
        p50, p99 = (float(v) / 1e3 for v in np.percentile(durations, [50, 99]))
    else:
        p50 = p99 = 0.0
    out["multiop.partial_compose.p50_us"] = p50
    out["multiop.partial_compose.p99_us"] = p99
    counts = tracer.counts
    for key in ("object_results", "computed_madds", "computed_bytes"):
        out[f"multiop.{key}"] = counts[key]
    out["dynamics.rk4_steps"] = counts["rk4_steps"]
    blocks = [block_structure(m) for m in tracer.matrices]
    out["cohomology.matrix_cells"] = sum(m.rows * m.cols for m in tracer.matrices)
    out["cohomology.matrix_nnz"] = sum(b[0] for b in blocks)
    out["cohomology.matrix_blocks"] = sum(b[1] for b in blocks)
    out["cohomology.largest_block_cols"] = max((b[2] for b in blocks), default=0)
    for suite in suite_names():
        out[f"verify.{suite}.s"] = field(f"verify.{suite}", "total_s")
    out["cli.output_bytes"] = output_bytes
    return out


def traced_run(workload, seconds: float, tally: Tally, spans_path: Path):
    """Alternate untraced and traced passes until the deadline.

    Layer values are medians over the traced passes; trace.overhead is the
    median traced pass time over the median untraced one, both at the
    reference speed.
    """
    from tracer import Tracer
    from workloads import CliOutput

    plain, traced, per_pass = [], [], []
    first = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        if len(plain) <= len(traced):
            plain.append(sum(entry[2] for entry in run_pass(workload, tally)))
            continue
        tracer = Tracer()
        timed = run_pass(workload, tally, tracer)
        traced.append(sum(entry[2] for entry in timed))
        output_bytes = sum(
            len(out.text.encode()) for *_, out in timed if isinstance(out, CliOutput)
        )
        per_pass.append(layer_metrics(tracer, output_bytes))
        first = first or tracer
    first.save(spans_path)
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    return metrics, len(traced)


def run_record() -> dict:
    """The commit, versions, CPUs, BLAS threads and source size measured."""
    sources = sorted((SRC / "operadics").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "source_lines": lines,
        "source_files": len(sources),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "reference_s": REFERENCE_S,
    }


def measure(workload, args, tally: Tally):
    """One workload's run: returns (its record, all metrics it measured)."""
    record = {"workload": workload.name, "why": workload.why, "slots": workload.slots}
    inputs = OUT / f"inputs-{os.getpid()}"
    try:
        inputs.mkdir(parents=True, exist_ok=True)
        workload.write_inputs(args.seed, inputs)
        if args.trace:
            workload.setup(inputs)
            spans_path = OUT / f"spans-{workload.name}.npz"
            metrics, record["passes"] = traced_run(workload, args.seconds, tally, spans_path)
            record["spans"] = str(spans_path.relative_to(ROOT))
            return record, metrics
        setup_s, record["setup_wall_s"] = setup_seconds(workload.name, inputs)
        workload.setup(inputs)
        metrics, record["pass_wall_s"], samples = timed_run(workload, args.seconds, tally)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    metrics["setup_s"] = setup_s
    record["passes"] = len(record["pass_wall_s"]["a"])
    named = workload.named_metrics(samples)
    named[f"{workload.name}.setup_s"] = (setup_s, "s")
    record["named"] = {n: {"value": v, "unit": u} for n, (v, u) in named.items()}
    return record, metrics


def main() -> int:
    args = _parse_args()
    if not (SRC / "operadics" / "__init__.py").is_file():
        print(f"error: no operadics sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    every = args.workload == "all"
    if every and args.trace:
        print("error: --workload all runs untraced only", file=sys.stderr)
        return 2
    if not every and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tally = Tally()
    record = run_record()
    record.update(seed=args.seed, seconds=args.seconds, trace=args.trace)
    runs = [measure(WORKLOADS[name](), args, tally) for name in
            (WORKLOADS if every else [args.workload])]
    for err in tally.errors[:10]:
        print(f"failed: {err}", file=sys.stderr)
    if every:
        # the workload-specific figures of every workload, by name
        record["workloads"] = [run_rec for run_rec, _ in runs]
        metrics = {n: m for run_rec, _ in runs for n, m in run_rec["named"].items()}
    else:
        record.update(runs[0][0])
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        metrics = {
            m["name"]: {"value": runs[0][1][m["name"]], "unit": m["unit"]} for m in wanted
        }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
