"""The three benchmark workloads.

Each workload prepares its inputs and a pre-check in ``setup`` (not
timed), then runs one operation per ``op`` call (timed) and verifies the
outputs in ``check`` (not timed). Operations call ``bnkeypad.cli.main``
in-process, and library functions where the CLI cannot express the input;
they look functions up on their modules at call time, so the tracer's
wrappers are seen.
"""

from __future__ import annotations

import contextlib
import importlib
import io
from pathlib import Path

import oracles
from inputs import record, trace_texts, write_corpus
from oracles import sha256

# The package re-exports functions under some module names (``transcribe``),
# so the modules are fetched by their full names.
bn_text, cli, ergonomics, layout, optimize, transcribe = (
    importlib.import_module(f"bnkeypad.{name}")
    for name in ("bn_text", "cli", "ergonomics", "layout", "optimize", "transcribe"))

SCALE = 8  # corpus-report replicates the fixture this many times


def run_cli(argv: list) -> tuple[int, str]:
    """Exit status and standard error of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = cli.main([str(a) for a in argv])
    return status, err.getvalue()


def _statuses(outcome) -> list[str]:
    return [f"{name} exited {status}: {err.strip()}"
            for name, (status, err) in outcome["cli"].items() if status != 0]


class Workload:
    name = ""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.out = work / "op"
        self.inputs: list[dict] = []
        self.outputs: list[Path] = []  # files each op writes, checked and removed

    def finish(self, problems: list[str]) -> list[str]:
        for path in self.outputs:
            path.unlink(missing_ok=True)
        return problems


class CorpusReport(Workload):
    """``analyze`` then ``reproduce-paper`` on the fixture replicated x8."""

    name = "corpus-report"

    def setup(self) -> list[str]:
        self.x1 = self.work / "x1.txt"
        self.x8 = self.work / f"x{SCALE}.txt"
        self.inputs = [write_corpus(self.root, self.x1, 1, self.seed),
                       write_corpus(self.root, self.x8, SCALE, self.seed)]
        self.op_units = 2 * self.inputs[1]["units"]
        self.outputs = [self.out / "freq.tsv"] + [
            self.out / "paper" / name
            for name in ("report.tsv", "proposed_layout.tsv", "baseline_layout.tsv")]

        ref = self.work / "x1_out"
        statuses = [run_cli(["analyze", "--corpus", self.x1, "-o", ref / "freq.tsv"]),
                    run_cli(["reproduce-paper", "--corpus", self.x1, "--out-dir", ref])]
        problems = [f"x1 check exited {s}: {e.strip()}" for s, e in statuses if s != 0]
        if problems:
            return problems
        got = {name: (ref / name).read_bytes() for name in oracles.X1_SHA256}
        problems += [f"x1 {name} differs from the seed commit's"
                     for name, want in oracles.X1_SHA256.items() if sha256(got[name]) != want]
        report = got["report.tsv"].decode("utf-8")
        if f"flexibility_ranking\t{oracles.RANKING}\n" not in report:
            problems.append("x1 ranking is not " + oracles.RANKING)
        if f"jam_reduction_pct\t{oracles.JAM_REDUCTION_PCT:.9f}\n" not in report:
            problems.append(f"x1 jam reduction is not {oracles.JAM_REDUCTION_PCT}")
        self.expected = {
            self.outputs[0]: oracles.scaled_frequency_tsv(
                got["freq.tsv"].decode("utf-8"), SCALE).encode("utf-8"),
            self.outputs[1]: oracles.scaled_report(report, SCALE).encode("utf-8"),
            self.outputs[2]: got["proposed_layout.tsv"],
            self.outputs[3]: got["baseline_layout.tsv"],
        }
        return problems

    def op(self, _i: int) -> dict:
        return {"cli": {
            "analyze": run_cli(["analyze", "--corpus", self.x8, "-o", self.outputs[0]]),
            "reproduce-paper": run_cli(["reproduce-paper", "--corpus", self.x8,
                                        "--out-dir", self.out / "paper"]),
        }}

    def units(self, _i: int) -> int:
        return self.op_units

    def check(self, _i: int, outcome: dict) -> list[str]:
        problems = _statuses(outcome)
        _status, err = outcome["cli"]["analyze"]
        want_err = (f"analyzed {SCALE * oracles.FIXTURE_UNITS} units, "
                    f"skipped {SCALE * oracles.FIXTURE_SKIPPED} scalars\n")
        if err != want_err:
            problems.append(f"analyze reported {err.strip()!r}")
        for path, want in self.expected.items():
            if not path.is_file() or path.read_bytes() != want:
                problems.append(f"{path.name} is not the scaled x1 artifact")
        return self.finish(problems)


class TraceSmall(Workload):
    """``transcribe``, ``evaluate`` and a library round trip of a short text."""

    name = "trace-small"

    def setup(self) -> list[str]:
        x1 = self.work / "x1.txt"
        self.inputs = [write_corpus(self.root, x1, 1, self.seed)]
        self.texts = trace_texts(self.root, self.seed)
        self.paths = []
        for i, text in enumerate(self.texts):
            path = self.work / "texts" / f"t{i:03d}.txt"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8", newline="")
            self.paths.append(path)
        pooled = "".join(self.texts)
        self.inputs.append(dict(record("trace-texts", pooled.encode("utf-8"),
                                       len(oracles.typable(pooled))), texts=len(self.texts)))
        self.outputs = [self.out / "trace.tsv", self.out / "eval.json"]

        self.layout_path = self.work / "layout.tsv"
        status, err = run_cli(["build-layout", "--corpus", x1, "-o", self.layout_path])
        if status != 0:
            return [f"build-layout exited {status}: {err.strip()}"]
        data = self.layout_path.read_bytes()
        if sha256(data) != oracles.X1_SHA256["proposed_layout.tsv"]:
            return ["build-layout on x1 differs from the seed commit's layout"]
        self.rows = oracles.parse_layout(data.decode("utf-8"))
        self.layout = layout.load_layout(self.layout_path)
        self.expected = []
        for text in self.texts:
            cps = oracles.typable(text)
            self.expected.append((cps, len(text) - len(cps),
                                  oracles.multitap_metrics(cps, self.rows)))
        return []

    def op(self, i: int) -> dict:
        k = i % len(self.texts)
        outcome = {"cli": {
            "transcribe": run_cli(["transcribe", "--layout", self.layout_path,
                                   "--in", self.paths[k], "--out", self.outputs[0]]),
            "evaluate": run_cli(["evaluate", "--layout", self.layout_path,
                                 "--corpus", self.paths[k], "--format", "json",
                                 "-o", self.outputs[1]]),
        }}
        units, _skipped = bn_text.scan_units(self.texts[k])
        trace = transcribe.transcribe(units, self.layout)
        outcome["decoded"] = transcribe.decode(trace, self.layout)
        return outcome

    def units(self, i: int) -> int:
        return 3 * len(self.expected[i % len(self.texts)][0])

    def check(self, i: int, outcome: dict) -> list[str]:
        cps, skipped, metrics = self.expected[i % len(self.texts)]
        problems = _statuses(outcome)
        want_err = f"skipped {skipped} non-typable scalars, 0 units not in the layout\n"
        if outcome["cli"]["transcribe"][1] != want_err:
            problems.append(f"transcribe reported {outcome['cli']['transcribe'][1].strip()!r}")
        trace_path, eval_path = self.outputs
        try:
            if oracles.decode_trace(trace_path.read_text(encoding="utf-8"), self.rows) != cps:
                problems.append("trace file does not decode to the input units")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"trace file unreadable: {exc!r}")
        try:
            problems += oracles.check_evaluation_json(eval_path.read_text(encoding="utf-8"),
                                                      metrics)
        except OSError as exc:
            problems.append(f"evaluate output unreadable: {exc!r}")
        if [u.codepoints[0] for u in outcome["decoded"]] != cps:
            problems.append("library decode(transcribe(units)) lost units")
        return self.finish(problems)


class OptimizeStudy(Workload):
    """Local search at 35 consonants, then exhaustive search at 6."""

    name = "optimize-study"

    JAM_WEIGHT = 0.5
    SMALL_KEYS = ("2", "3", "4", "5", "6")

    def setup(self) -> list[str]:
        self.x1 = self.work / "x1.txt"
        self.inputs = [write_corpus(self.root, self.x1, 1, self.seed)]
        self.outputs = [self.out / "opt.tsv"]
        text = self.x1.read_text(encoding="utf-8")
        cps = oracles.typable(text)
        self.counts, self.bigrams = oracles.consonant_statistics(cps)

        # The 6-consonant instance is built once; only the search is timed.
        table = bn_text.count_frequencies(text)
        model = ergonomics.default_model()
        self.instance = optimize.consonant_instance(
            table.restricted([bn_text.Category.CONSONANT]), model, max_units=6,
            keys=self.SMALL_KEYS, slots_per_key=2)
        chosen = [u for u, _ in self.instance.units]
        pairs = optimize.restrict_bigrams(
            bn_text.count_unit_bigrams(bn_text.scan_units(text)[0]), chosen)
        self.objective = optimize.Objective(
            bn_text.FrequencyTable.from_counts(dict(self.instance.units)), model,
            self.JAM_WEIGHT, pairs)
        greedy, self.small_greedy = optimize.solve_greedy(self.instance, self.objective)
        _, self.small_local = optimize.improve_local(greedy, self.objective)

        small = sorted(self.counts, key=lambda cp: (-self.counts[cp], cp))[:6]
        self.small_counts, self.small_bigrams = oracles.consonant_statistics(cps, set(small))
        problems = []
        if sorted(u.codepoints[0] for u in chosen) != sorted(small):
            problems.append("6-consonant instance is not the 6 most frequent consonants")
        if self.small_greedy != oracles.SMALL_GREEDY_VALUE:
            problems.append(f"6-consonant greedy value {self.small_greedy!r} moved")
        if self.small_local != oracles.SMALL_LOCAL_VALUE:
            problems.append(f"6-consonant local value {self.small_local!r} moved")
        return problems

    def op(self, _i: int) -> dict:
        outcome = {"cli": {"optimize": run_cli([
            "optimize", "--corpus", self.x1, "--method", "local",
            "--jam-weight", self.JAM_WEIGHT, "-o", self.outputs[0]])}}
        outcome["exhaustive"] = optimize.solve_exhaustive(self.instance, self.objective)
        return outcome

    def units(self, _i: int) -> int:
        return self.inputs[0]["units"]

    def check(self, _i: int, outcome: dict) -> list[str]:
        problems = _statuses(outcome)
        reported = {}
        for line in outcome["cli"]["optimize"][1].splitlines():
            name, eq, value = line.partition(" value=")
            if eq:
                reported[name] = float(value)
        start, value = reported.get("greedy start"), reported.get("objective")
        if start != oracles.OPT_GREEDY_VALUE or value != oracles.OPT_LOCAL_VALUE:
            problems.append(f"optimize reported start {start!r}, value {value!r}")
        elif value > start:
            problems.append("local search ended worse than its greedy start")
        try:
            data = self.outputs[0].read_bytes()
            rows = oracles.parse_layout(data.decode("utf-8"))
            placed = sorted(cp for units in rows.values() for cp in units)
            if placed != sorted(oracles.CONSONANT_CPS):
                problems.append("optimized layout is not a permutation of the 35 consonants")
            elif not oracles.close(value, oracles.consonant_objective(
                    rows, self.counts, self.bigrams, self.JAM_WEIGHT)):
                problems.append("reported value is not the objective of the written layout")
            if sha256(data) != oracles.OPT_LAYOUT_SHA256:
                problems.append("optimized layout differs from the seed commit's")
        except (OSError, ValueError) as exc:
            problems.append(f"optimized layout unreadable: {exc!r}")

        best, best_value = outcome["exhaustive"]
        if best_value != oracles.SMALL_EXHAUSTIVE_VALUE:
            problems.append(f"exhaustive value {best_value!r} moved")
        if best_value > min(self.small_greedy, self.small_local):
            problems.append("exhaustive value is worse than greedy or local search")
        rows = {key: [u.codepoints[0] for u in units]
                for key, units in best.slots.items() if units}
        if (set(rows) - set(self.SMALL_KEYS) or any(len(u) > 2 for u in rows.values())
                or sorted(cp for u in rows.values() for cp in u) != sorted(self.small_counts)):
            problems.append("exhaustive layout leaves the instance's keys, slots or units")
        elif not oracles.close(best_value, oracles.consonant_objective(
                rows, self.small_counts, self.small_bigrams, self.JAM_WEIGHT)):
            problems.append("exhaustive value is not the objective of its layout")
        return self.finish(problems)


WORKLOADS = {w.name: w for w in (CorpusReport, TraceSmall, OptimizeStudy)}
