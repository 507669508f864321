"""Self-check of the benchmark at a tiny size (about a minute).

    python3 perfbench/selfcheck.py

Asserts that:
  * BENCHMARK.json names exactly the workloads and metrics the code emits;
  * a one-second run of every workload, untraced and traced, ends with a
    result line holding every named metric with its unit, and no failed op;
  * an op whose output file is corrupted, or whose command exits non-zero,
    counts as failed;
  * a directory holding only BENCHMARK.json and perfbench/ makes the
    benchmark exit non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCRATCH = ROOT / ".perfbench_work" / "selfcheck"


def check_declaration() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END_UNITS, declared
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == dict(PER_LAYER), declared
    return spec


def check_runs(spec: dict) -> None:
    for workload in run.WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, proc.stderr)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, sorted(set(want) ^ set(got)))
            assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops")


def _corrupt(path: Path) -> None:
    """Change the last decimal digit of a file."""
    data = bytearray(path.read_bytes())
    i = max(data.rfind(bytes([c])) for c in b"0123456789")
    data[i] = ord("0") + (data[i] - ord("0") + 1) % 10
    path.write_bytes(bytes(data))


def check_corruption() -> None:
    for name, cls in WORKLOADS.items():
        work = SCRATCH / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload = cls(ROOT, work, 7)
        assert workload.setup() == [], name
        assert workload.check(0, workload.op(0)) == [], name
        for target in workload.outputs:
            outcome = workload.op(0)
            _corrupt(target)
            assert workload.check(0, outcome), (name, target.name)
        outcome = workload.op(0)
        command = next(iter(outcome["cli"]))
        outcome["cli"][command] = (1, "E_IO\tinjected failure\n")
        assert workload.check(0, outcome), (name, "exit status")
        print(f"ok  {name}: {len(workload.outputs)} corrupted outputs and a "
              "non-zero exit each fail the op")


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "trace-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main() -> int:
    try:
        spec = check_declaration()
        print("ok  BENCHMARK.json matches the emitted workloads and metrics")
        check_corruption()
        check_bare_directory()
        check_runs(spec)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.parent.rmdir()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
