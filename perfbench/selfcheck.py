#!/usr/bin/env python3
"""Self-test of the benchmark (about two minutes on two cores).

    python3 perfbench/selfcheck.py

* BENCHMARK.json lists exactly the workloads and metrics run.py reports.
* Every workload runs one smoke round at small sizes, untraced and traced.
  Every check passes except on the named near-unit set of ``corpus``,
  which fails on every seed, and the result line has the required form.
* Traced spans sit where the work happens: the kernel SVD outweighs the
  rest of restructure, and on ``cli`` the Matrix Market spans are nonzero.
* Inputs are a function of the seed alone.
* ``compare.py diff`` flags a regression beyond a bound and passes
  identical sets.
* In a directory holding only BENCHMARK.json and perfbench/ the benchmark
  exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402

NEAR_UNIT = {
    "involutory n=6 near-unit",
    "skew-involutory n=6 near-unit",
    "coninvolutory n=6 near-unit",
}


def fail(message: str) -> None:
    raise SystemExit(f"selfcheck FAILED: {message}")


def check_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.WORKLOADS")
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if e2e != list(run.E2E):
        fail("BENCHMARK.json end_to_end differs from run.E2E")
    if layers != list(run.PER_LAYER):
        fail("BENCHMARK.json per_layer differs from run.PER_LAYER")
    return spec


def smoke(workload: str, seed: int, trace: int, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def check_smoke(spec: dict) -> None:
    shares = set()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = smoke(workload, seed=3 + trace, trace=trace)
            if proc.returncode != 0:
                fail(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys {sorted(result)}")
            if result["correct"] is not True:
                fail(f"{workload} trace={trace}: correct is false\n{proc.stdout}")
            failed_labels = {
                ln.split("] ", 1)[1].split(":", 1)[0] for ln in lines if "failed [" in ln
            }
            want = NEAR_UNIT if workload == "corpus" else set()
            if failed_labels != want or "UNEXPECTED" in proc.stdout:
                fail(f"{workload} trace={trace}: failed operations {sorted(failed_labels)}")
            if workload == "corpus":
                shares.add(result["failed"] / result["attempted"])
            section = "per_layer" if trace else "end_to_end"
            names = [m["name"] for m in spec[section]]
            if list(result["metrics"]) != names:
                fail(f"{workload} trace={trace}: metrics {list(result['metrics'])}")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if not trace and min(values.values()) <= 0:
                fail(f"{workload}: an end-to-end metric is not positive: {values}")
            if trace:
                check_spans(workload, values)
            print(f"ok  {workload} trace={trace}: {result['attempted']} operations, "
                  f"{result['failed']} failed")
    if len(shares) != 1:
        fail(f"corpus failed shares differ between seeds: {shares}")


def check_spans(workload: str, values: dict) -> None:
    kernel = values["kernel.svd.self_ms_per_op"]
    rest = values["structured_svd.restructure.self_ms_per_op"] + values[
        "structured_svd.pairing_spectrum_check.self_ms_per_op"
    ]
    if kernel <= rest:
        fail(f"{workload}: kernel.svd self time {kernel} not above the rest of restructure {rest}")
    io = [values[f"mmio.{f}.{s}"] for f in ("read_matrix", "write_matrix")
          for s in ("self_ms_per_op", "mib_per_s")]
    if workload == "cli" and min(io) <= 0:
        fail(f"cli: Matrix Market spans are zero: {io}")
    if workload != "cli" and max(io) != 0:
        fail(f"{workload}: Matrix Market spans where no file is touched: {io}")


def check_seeded_inputs() -> None:
    from inputs import corpus_instances, fixed_shape_instances

    for build in (lambda s: corpus_instances(s, range(2, 8)),
                  lambda s: fixed_shape_instances(s, (6, 8), stream=9)):
        a, b, c = build(5), build(5), build(6)
        if not all((x.a == y.a).all() for x, y in zip(a, b)):
            fail("the same seed gave different inputs")
        if all(x.a.shape == z.a.shape and (x.a == z.a).all() for x, z in zip(a, c)):
            fail("different seeds gave the same inputs")
    print("ok  inputs depend on the seed alone")


def check_diff(spec: dict) -> None:
    work = run.WORK / "selfcheck"
    work.mkdir(parents=True, exist_ok=True)

    def write(path, scale):
        with open(path, "w", encoding="utf-8") as out:
            for seed in range(1, 6):
                metrics = {}
                for m in spec["end_to_end"]:
                    jitter = 1.0 + 0.001 * seed
                    factor = scale if m["better"] == "lower" else 1.0 / scale
                    metrics[m["name"]] = {"value": jitter * factor, "unit": m["unit"]}
                result = {"correct": True, "attempted": 100, "failed": 3, "metrics": metrics}
                out.write(json.dumps({"workload": "corpus", "seed": seed, "trace": 0,
                                      "wall_s": 1.0, "result": result}) + "\n")

    base, same, worse = work / "base.jsonl", work / "same.jsonl", work / "worse.jsonl"
    write(base, 1.0)
    write(same, 1.0)
    write(worse, 1.3)
    quiet = open(work / "diff.txt", "w", encoding="utf-8")
    try:
        stdout, sys.stdout = sys.stdout, quiet
        ok_same = compare.main(["diff", str(base), str(same)]) == 0
        ok_worse = compare.main(["diff", str(base), str(worse)]) == 1
    finally:
        sys.stdout = stdout
        quiet.close()
        shutil.rmtree(work, ignore_errors=True)
    if not (ok_same and ok_worse):
        fail("compare.py diff does not separate identical sets from a regression")
    print("ok  compare.py diff flags a 30% regression and passes identical sets")


def check_bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for path in HERE.iterdir():
            if path.is_file():
                shutil.copy2(path, bare / "perfbench")
        proc = smoke("corpus", seed=1, trace=0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("the benchmark printed a result without the program's sources")
    print(f"ok  without sources: exit {proc.returncode}, no result printed")


def main() -> int:
    spec = check_spec()
    print("ok  BENCHMARK.json matches run.py")
    check_seeded_inputs()
    check_diff(spec)
    check_bare_directory()
    check_smoke(spec)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
