#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of involsvd.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Runs one workload in one process as a single closed-loop client (the next
operation starts when the previous one has returned) with BLAS pinned to at
most two threads, checks every operation's output with independent numpy
computations outside the timed region, and prints one JSON object as the
last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics in ``E2E``; ``--trace 1``
wraps the program's public functions (see ``tracing.py``) and reports the
per-layer metrics in ``PER_LAYER``, printing its own end-to-end numbers on
an earlier line.  Workloads run whole rounds of the same operations until
``--seconds`` have passed.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

TOL = 1e-10
IMPORT_PROBES = 4
SETUP_REPEATS = 3
# instances per class and size in a corpus round: more distinct instances
# make the medians depend less on the seed
CORPUS_COPIES = 5

# name, unit, better; the bounds live in BENCHMARK.json
E2E = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("small_ops_per_s", "1/s", "higher"),
    ("big_ops_per_s", "1/s", "higher"),
    ("import_s", "s", "lower"),
)
_STAT_UNITS = {"calls_per_op": ("count", "lower"), "self_ms_per_op": ("ms", "lower"),
               "mib_per_s": ("MiB/s", "higher")}
PER_LAYER = tuple(
    (f"{layer}.{stat}", *_STAT_UNITS[stat])
    for layer, stats in (
        ("kernel.svd", ("calls_per_op", "self_ms_per_op")),
        ("kernel.hermitian_eig", ("self_ms_per_op",)),
        ("kernel.takagi_symmetric_unitary", ("self_ms_per_op",)),
        ("kernel.skew_pair_unitary", ("self_ms_per_op",)),
        ("kernel.qr_column_pivoted", ("self_ms_per_op",)),
        ("structures.classify", ("calls_per_op", "self_ms_per_op")),
        ("structured_svd.restructure", ("self_ms_per_op",)),
        ("structured_svd.pairing_spectrum_check", ("self_ms_per_op",)),
        ("structured_svd.extract_T", ("self_ms_per_op",)),
        ("canonical.canonical_form", ("self_ms_per_op",)),
        ("canonical.eigendecompose", ("self_ms_per_op",)),
        ("canonical.consim_to_identity", ("self_ms_per_op",)),
        ("canonical.consim_to_minusJ", ("self_ms_per_op",)),
        ("projector.projector_svd", ("self_ms_per_op",)),
        ("projector.householder_singular_values", ("self_ms_per_op",)),
        ("mmio.read_matrix", ("self_ms_per_op", "mib_per_s")),
        ("mmio.write_matrix", ("self_ms_per_op", "mib_per_s")),
        ("cli.main", ("self_ms_per_op",)),
    )
    for stat in stats
)


@dataclass
class Op:
    """One operation of a round: a timed call and its untimed check."""

    label: str
    group: str  # "small" or "big": the workload's two problem sizes
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    known_fault: bool = False


@dataclass
class Record:
    op: Op
    start: float
    seconds: float  # as measured
    problems: list = field(default_factory=list)
    scaled: float = 0.0  # in seconds of the nominal machine (speed.py)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# --------------------------------------------------------------------- corpus


def corpus_ops(seed: int, smoke: bool, _workdir, _traced) -> list:
    """Acceptance-corpus traffic: every class at every n in 2..40, full
    library pipeline per instance, plus the fixed near-unit set."""
    from inputs import corpus_instances, near_unit_instances

    sizes = range(2, 9) if smoke else range(2, 41)
    threshold = 5 if smoke else 20
    instances = corpus_instances(seed, sizes, copies=1 if smoke else CORPUS_COPIES) + near_unit_instances()
    return [
        Op(
            inst.label,
            "small" if inst.a.shape[0] <= threshold else "big",
            "pipeline",
            lambda inst=inst: pipeline(inst),
            lambda out, inst=inst: check_pipeline(inst, out),
            inst.known_fault,
        )
        for inst in instances
    ]


def pipeline(inst) -> dict:
    import involsvd as iv

    sc = iv.StructureClass
    a, structure = inst.a, inst.structure
    ssvd = iv.restructure(a, structure, TOL)
    out = {
        "ssvd": ssvd,
        "t": iv.extract_T(ssvd.u, ssvd.v, structure, TOL),
        "form": iv.canonical_form(ssvd),
    }
    if structure in (sc.INVOLUTORY, sc.SKEW_INVOLUTORY):
        out["eig"] = iv.eigendecompose(ssvd)
    elif structure is sc.CONINVOLUTORY:
        out["consim"] = iv.consim_to_identity(ssvd)
        out["singles"] = iv.coneigen_singles(ssvd)
    else:
        out["minus_j"] = iv.consim_to_minusJ(ssvd)
    if structure is sc.INVOLUTORY:
        out["projectors"] = [iv.projector_svd(ssvd, sign) for sign in (1, -1)]
        out["householder"] = iv.householder_singular_values(a, TOL)
    return out


def check_ssvd_and_form(inst, ssvd, form) -> list:
    """Structured SVD and canonical form of one instance."""
    import checks

    c = ssvd.counts
    return checks.ssvd_problems(
        inst.a, inst.structure, inst.spec, ssvd.u, ssvd.v, ssvd.sigma, ssvd.t,
        (c.nu, c.eta1, c.eta2),
    ) + checks.canonical_problems(inst.a, inst.structure, form.t_sigma, form.transform)


def check_pipeline(inst, out) -> list:
    import numpy as np

    import checks

    a, structure, spec = inst.a, inst.structure, inst.spec
    problems = check_ssvd_and_form(inst, out["ssvd"], out["form"])
    if not np.array_equal(out["t"], out["ssvd"].t):
        problems.append("extract_T disagrees with the coupling matrix of restructure")
    if "eig" in out:
        eig = out["eig"]
        problems += checks.eigen_problems(a, structure, spec, eig.x, eig.eigenvalues)
    if "consim" in out:
        problems += checks.consim_problems(a, out["consim"])
        problems += checks.coneigen_problems(a, structure, spec, out["singles"])
    if "minus_j" in out:
        problems += checks.consim_problems(a, out["minus_j"], minus_j=True)
    for psvd in out.get("projectors", ()):
        problems += checks.projector_problems(
            a, psvd.sign, psvd.svd.sigma, psvd.svd.u, psvd.svd.v
        )
    if "householder" in out:
        problems += checks.sigma_problems(a, out["householder"], what="householder sigma")
    return problems


# ------------------------------------------------------------------------ cli


def cli_ops(seed: int, smoke: bool, workdir: Path, traced: bool) -> list:
    """Command-line traffic: decompose --out, verify and (involutory)
    project +/- on pre-written Matrix Market files at n=10 and n=100, each
    command a separate interpreter (in-process ``cli.main`` when traced)."""
    from inputs import SC, fixed_shape_instances, write_mm

    small, big = (6, 12) if smoke else (10, 100)
    ops = []
    for inst in fixed_shape_instances(seed, (small, big), stream=3):
        n = inst.a.shape[0]
        name = f"{inst.structure.value}-n{n}"
        path = workdir / f"{name}.mtx"
        write_mm(path, inst.a)
        out_dir = workdir / f"{name}-factors"
        commands = [("decompose", ["decompose", str(path), "--out", str(out_dir)]),
                    ("verify", ["verify", str(path)])]
        if inst.structure is SC.INVOLUTORY:
            commands += [(f"project {sign}", ["project", "--sign", sign, str(path)]) for sign in "+-"]
        for what, argv in commands:
            ops.append(
                Op(
                    f"{what} {name}",
                    "small" if n == small else "big",
                    f"{argv[0]}_s_n{n}",
                    (lambda argv=argv: run_cli_inprocess(argv))
                    if traced
                    else (lambda argv=argv: run_cli_subprocess(argv)),
                    lambda out, inst=inst, argv=argv, path=path, out_dir=out_dir: check_cli(
                        inst, argv, path, out_dir, out
                    ),
                )
            )
    return ops


def run_cli_subprocess(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "involsvd", *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_inprocess(argv):
    from involsvd import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check_cli(inst, argv, path, out_dir, out) -> list:
    import checks
    from inputs import read_mm, read_values

    code, stdout, stderr = out
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-200:]}"]
    report = json.loads(stdout)
    problems = [] if report.get("passed") is True else ["report says passed != true"]
    a = read_mm(path)
    command = argv[0]
    if command == "project":
        b = checks.projector(a, 1 if argv[2] == "+" else -1)
        return problems + checks.sigma_problems(b, report["sigma"], what="projector sigma")
    if report.get("class") != inst.structure.value:
        problems.append(f"class {report.get('class')!r}, input is {inst.structure.value}")
    counts = report["counts"]
    problems += checks.counts_problems(
        inst.structure, inst.spec, counts["nu"], counts["eta1"], counts["eta2"]
    )
    problems += checks.sigma_problems(a, report["sigma"])
    if command == "decompose":
        problems += checks.reconstruction_problems(
            a, read_mm(out_dir / "U.mtx"), read_values(out_dir / "sigma.txt"),
            read_mm(out_dir / "V.mtx"), what="--out factors reproduce A",
        )
    return problems


# A third workload, every class at n=100 and n=200 through restructure, was
# dropped: its times could not be made steady on a shared machine (see
# README.md).
WORKLOADS = {"corpus": corpus_ops, "cli": cli_ops}
# workloads whose times are scaled by the machine-speed probe (speed.py)
SCALED = ("corpus",)


# -------------------------------------------------------------------- metrics


def import_interval() -> tuple:
    """(start, end) of a fresh interpreter that only imports the CLI."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import involsvd.cli"], cwd=ROOT, env=child_env(), check=True
    )
    return t0, time.perf_counter()


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; None below forty samples."""
    if len(values) < 40:
        return None
    ordered = sorted(values)
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def end_to_end(records, setup_s, import_s, peak_kib) -> dict:
    """End-to-end metrics; every time in seconds of the nominal machine."""
    def throughput(group=None):
        mine = [r for r in records if group in (None, r.op.group)]
        return sum(1 for r in mine if not r.problems) / sum(r.scaled for r in mine)

    values = {
        "setup_s": setup_s,
        "peak_rss_mib": peak_kib / 1024.0,
        "ops_per_s": throughput(),
        # the lower median is a real operation: where a workload's two sizes
        # split the operations in halves, the mean of the two middle ones
        # would fall in the gap between the sizes and jump with the noise
        "op_ms_p50": 1e3 * statistics.median_low(r.scaled for r in records),
        "small_ops_per_s": throughput("small"),
        "big_ops_per_s": throughput("big"),
        "import_s": import_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in E2E}


def per_layer(tracer, attempted: int, factor: float) -> dict:
    """Per-layer metrics, times divided by the machine-speed factor."""
    layers = tracer.layers()
    out = {}
    for name, unit, _ in PER_LAYER:
        layer, stat = name.rsplit(".", 1)
        entry = layers.get(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0})
        if stat == "calls_per_op":
            value = entry["calls"] / attempted
        elif stat == "self_ms_per_op":
            value = 1e3 * entry["self_s"] / attempted / factor
        else:
            value = entry["bytes"] / 2**20 / entry["total_s"] * factor if entry["total_s"] else 0.0
        out[name] = {"value": value, "unit": unit}
    return out


def print_details(workload, records, rounds, metrics) -> None:
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.op.kind, []).append(r.scaled)
    print(f"{workload}: {rounds} round(s), {len(records)} operations")
    for name, entry in metrics.items():
        print(f"  {name:<16} {entry['value']:.6g} {entry['unit']}")
    for kind, times in sorted(by_kind.items()):
        if kind != "pipeline":
            print(f"  {kind:<20} {statistics.median(times):.6g} s  (median of {len(times)})")
    t = tail([r.scaled for r in records])
    if t is None:
        print(f"  op_ms_tail           n/a ({len(records)} samples, fewer than 40)")
    else:
        print(f"  op_ms_tail           {1e3 * t[1]:.6g} ms  (p{t[0]:.1f} of {len(records)})")
    seen = set()
    for r in records:
        if r.problems and r.op.label not in seen:
            seen.add(r.op.label)
            tag = "known fault" if r.op.known_fault else "UNEXPECTED"
            print(f"  failed [{tag}] {r.op.label}: {'; '.join(r.problems[:3])}")


def print_layers(tracer, attempted: int, factor: float) -> None:
    print(f"per-layer spans (per operation, {attempted} operations, times / factor):")
    print(f"  {'layer':<40} {'calls/op':>10} {'self ms/op':>11} {'total ms/op':>12}")
    for name, entry in sorted(tracer.layers().items()):
        print(
            f"  {name:<40} {entry['calls'] / attempted:>10.3f} "
            f"{1e3 * entry['self_s'] / attempted / factor:>11.4f} "
            f"{1e3 * entry['total_s'] / attempted / factor:>12.4f}"
        )
    for name, entry in sorted(tracer.layers(in_ops=False).items()):
        print(f"  set-up: {name} {entry['calls']} calls, {entry['total_s']:.4f} s")


# ----------------------------------------------------------------------- main


def run(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    t0 = time.perf_counter()
    import involsvd  # noqa: F401  (first import of the program: part of set-up)
    import involsvd.cli  # noqa: F401

    import_span = (t0, time.perf_counter())
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import speed

    probe = speed.SpeedProbe() if workload in SCALED else speed.AsMeasured()

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    workdir = WORK / f"run-{os.getpid()}"
    try:
        setup_intervals = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            t0 = time.perf_counter()
            ops = WORKLOADS[workload](seed, smoke, workdir, traced)
            setup_intervals.append((t0, time.perf_counter()))
            probe.keep_up()

        import_interval()  # writes the bytecode caches a user's second run finds
        imports = []
        records = []
        rounds = 0
        start = time.perf_counter()
        while True:
            for op in ops:
                if tracer:
                    tracer.op = len(records)
                t0 = time.perf_counter()
                try:
                    result = op.run()
                    error = None
                except Exception as exc:  # an operation that raises is a failed operation
                    result, error = None, exc
                elapsed = time.perf_counter() - t0
                if tracer:
                    tracer.op = -1
                if error is not None:
                    problems = [f"raised {type(error).__name__}: {error}"]
                else:
                    try:
                        problems = op.check(result)
                    except Exception as exc:  # unreadable output is a failed check
                        problems = [f"check raised {type(exc).__name__}: {exc}"]
                records.append(Record(op, t0, elapsed, problems))
                # import probes spread over the run, not bunched at its end
                if time.perf_counter() - start > len(imports) * seconds / IMPORT_PROBES:
                    imports.append(import_interval())
                probe.keep_up()
            rounds += 1
            if smoke or time.perf_counter() - start >= seconds:
                break

        while len(imports) < IMPORT_PROBES:
            imports.append(import_interval())
            probe.keep_up()
        factor = probe.factor()
        who = resource.RUSAGE_CHILDREN if workload == "cli" and not traced else resource.RUSAGE_SELF
        peak_kib = resource.getrusage(who).ru_maxrss
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer:
            tracer.uninstall()

    attempted = len(records)
    failed = sum(1 for r in records if r.problems)
    correct = all(r.op.known_fault for r in records if r.problems)
    for r in records:
        r.scaled = probe.scale(r.start, r.start + r.seconds)
    setup_s = probe.scale(*import_span) + statistics.median(
        probe.scale(*interval) for interval in setup_intervals
    )
    import_s = statistics.median(probe.scale(*interval) for interval in imports)
    e2e = end_to_end(records, setup_s, import_s, peak_kib)
    print_details(workload, records, rounds, e2e)
    if probe.times:
        print(
            f"  machine-speed factor {factor:.4f} over the run, "
            f"{min(probe.times) / speed.NOMINAL_S:.3f}-{max(probe.times) / speed.NOMINAL_S:.3f} "
            f"per probe ({len(probe.times)} probes); as measured: "
            f"{sum(1 for r in records if not r.problems) / sum(r.seconds for r in records):.6g} ops/s"
        )
    else:
        print("  times as measured (no machine-speed scaling on this workload)")
    if tracer:
        print("traced end-to-end (compare with an untraced run for the tracing overhead):")
        print("  " + json.dumps({k: v["value"] for k, v in e2e.items()}))
        print_layers(tracer, attempted, factor)
        WORK.mkdir(exist_ok=True)
        spans = WORK / f"spans-{workload}-{seed}.jsonl"
        tracer.dump(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
        metrics = per_layer(tracer, attempted, factor)
    else:
        metrics = e2e
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="one round at small sizes (benchmark self-test)"
    )
    args = parser.parse_args(argv)
    if not (SRC / "involsvd" / "__init__.py").is_file():
        print(f"error: no involsvd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
