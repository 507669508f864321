"""Benchmark of the bnkeypad batch pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus-report --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop with one client: the next
operation starts when the previous one has returned. Inputs come from the
seed; every operation's outputs are checked by ``oracles``. With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run, in which
traced and untraced operations alternate so the tracing overhead is
measured too. End-to-end timings are scaled to a reference CPU speed
(see ``SpeedProbe``); the line before the result records the inputs, the
sample counts and the unscaled wall times.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("corpus-report", "trace-small", "optimize-study")
SETUP_SPAWNS = 11
SETUP_CODE = "import bnkeypad.cli as cli; cli.default_model()"

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_p90_s": "s",
                    "units_per_s": "units/s", "peak_rss_mib": "MiB"}

# The speed of a shared host drifts by a quarter within seconds to minutes.
# Short slices of a fixed pure-Python loop run between the measured work
# and probe that speed; timings are reported at the speed at which one
# slice takes REF_SLICE_S, its median on the machine of the baseline.
REF_ITERATIONS = 50_000
REF_SLICE_S = 0.005


def reference_slice() -> float:
    start = perf_counter()
    x = 0
    for i in range(REF_ITERATIONS):
        x += i * i
    return perf_counter() - start


class SpeedProbe:
    """Reference slices taking ``share`` of the time of the work they follow."""

    def __init__(self, share: float):
        self.share = share
        self.slices: list[float] = []
        self._work = self._probed = 0.0

    def after(self, elapsed: float) -> None:
        self._work += elapsed
        while not self.slices or self._probed < self.share * self._work:
            self.slices.append(reference_slice())
            self._probed += self.slices[-1]

    def factor(self) -> float:
        """Multiplier from wall seconds of this run to seconds at reference speed."""
        return REF_SLICE_S / statistics.median(self.slices)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def measure_setup_s(env: dict, probe: SpeedProbe) -> float:
    """Median wall time of fresh interpreters importing the CLI and its model."""
    argv = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(argv, env=env, cwd=ROOT, check=True)  # compiles the bytecode once
    times = []
    for _ in range(SETUP_SPAWNS):
        start = perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
        probe.after(times[-1])
    return statistics.median(times)


def tail_percentile(times: list[float]) -> tuple[int, float]:
    """The highest percentile up to 90 with ten samples above it, and its value.

    Runs of fewer than 20 operations fall back to the median.
    """
    n = len(times)
    if n < 2:
        return 50, times[0]
    q = min(90, (100 * (n - 10)) // n) if n >= 20 else 50
    return q, statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    missing = [p for p in (src / "bnkeypad" / "cli.py", ROOT / "tests" / "fixtures" / "corpus_bn.txt")
               if not p.is_file()]
    if missing:
        sys.stderr.write(f"perfbench: not a bnkeypad checkout, missing {missing[0]}\n")
        return 2
    sys.path.insert(0, str(src))
    from tracer import PER_LAYER, Tracer
    from workloads import WORKLOADS

    import bnkeypad
    if Path(bnkeypad.__file__).resolve().parent != src / "bnkeypad":
        sys.stderr.write(f"perfbench: imported bnkeypad from {bnkeypad.__file__}\n")
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_probe, op_probe = SpeedProbe(0.05), SpeedProbe(0.04)
        setup_s = None
        if not args.trace:
            setup_s = measure_setup_s(dict(os.environ, PYTHONPATH=str(src)), setup_probe)
        workload = WORKLOADS[args.workload](ROOT, work, args.seed)
        precheck = workload.setup()
        for problem in precheck:
            sys.stderr.write(f"perfbench: pre-check: {problem}\n")

        tracer = Tracer()
        times = {False: [], True: []}  # keyed by whether the op was traced
        layer_samples = []
        units = failed = attempted = 0
        min_ops = 2 if args.trace else 1
        deadline = perf_counter() + args.seconds
        while attempted < min_ops or perf_counter() < deadline:
            traced = bool(args.trace) and attempted % 2 == 1
            try:
                if traced:
                    with tracer.installed():
                        start = perf_counter()
                        outcome = workload.op(attempted)
                        elapsed = perf_counter() - start
                    layer_samples.append(tracer.take(workload.units(attempted)))
                else:
                    start = perf_counter()
                    outcome = workload.op(attempted)
                    elapsed = perf_counter() - start
                problems = workload.check(attempted, outcome)
            except Exception:  # an op that crashes is a failed op; keep measuring
                elapsed, problems = perf_counter() - start, [traceback.format_exc()]
                if traced:
                    tracer.take(0)  # drop the partial spans
            times[traced].append(elapsed)
            if not args.trace:
                op_probe.after(elapsed)
            units += workload.units(attempted)
            if problems:
                failed += 1
                if failed <= 3:
                    sys.stderr.write(f"perfbench: op {attempted} failed: {problems}\n")
            attempted += 1

        all_times = times[False] + times[True]
        q, tail = tail_percentile(times[False])
        wall = {}
        if args.trace:
            metrics = {name: statistics.median(s[name] for s in layer_samples or [{name: 0.0}])
                       for name, _unit in PER_LAYER if name != "trace.overhead_s"}
            metrics["trace.overhead_s"] = (statistics.median(times[True])
                                           - statistics.median(times[False]))
            units_of = dict(PER_LAYER)
        else:
            wall = {"setup_s": setup_s, "op_p50_s": statistics.median(all_times),
                    "op_p90_s": tail, "units_per_s": units / sum(all_times)}
            f, f_setup = op_probe.factor(), setup_probe.factor()
            metrics = {
                "setup_s": wall["setup_s"] * f_setup,
                "op_p50_s": wall["op_p50_s"] * f,
                "op_p90_s": wall["op_p90_s"] * f,
                "units_per_s": wall["units_per_s"] / f,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units_of = END_TO_END_UNITS
        print(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "inputs": workload.inputs, "ops": attempted,
            "untraced_ops": len(times[False]), "traced_ops": len(times[True]),
            "op_p90_percentile": q, "op_s_min": min(all_times), "op_s_max": max(all_times),
            "setup_spawns": 0 if args.trace else SETUP_SPAWNS, "wall": wall,
            "ref_slices": len(op_probe.slices) + len(setup_probe.slices),
            "ref_slice_median_s": {"setup": _median(setup_probe.slices),
                                   "ops": _median(op_probe.slices)},
            "fail_ratio": failed / attempted,
        }))
        print(json.dumps({
            "correct": not precheck and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units_of[name]}
                        for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()


def _median(values):
    return statistics.median(values) if values else None


if __name__ == "__main__":
    sys.exit(main())
