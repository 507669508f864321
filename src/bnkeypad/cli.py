"""Command-line front end.

Subcommands: analyze, build-layout, evaluate, compare, transcribe,
optimize, reproduce-paper. Each command computes its artifacts, with
canonical formatting so that identical inputs give byte-identical
outputs, and its report; ``main`` writes the artifacts, all or none, and
then the report to stderr. Domain errors exit 1, usage errors exit 2, and
both print one machine-parsable ``code<TAB>message`` line on stderr and
no other. Option precedence is flags > --config file > defaults.

``main(argv)`` may be called any number of times in one process. The
argument parser is built on the first call and reused by the later ones.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import stat
import sys
from math import isfinite
from pathlib import Path

from . import bn_text
from .bn_text import CorpusStats, _Record, _check_float, _check_int
from .ergonomics import (
    KEYPAD_KEYS,
    ErgonomicModel,
    default_model,
    key_cost,
    load_model,
    rank_keys,
)
from .errors import EmptyCorpusError, KeypadError, UsageError
from .layout import (
    Layout,
    PlacementPolicy,
    Role,
    Strategy,
    build_layout,
    load_layout,
    serialize,
)
from .transcribe import EvaluationReport, _trace, evaluate_many

# The keys --config accepts, each with the check its value must pass: the
# flag's type applied to the value's text, the flag's choices, or the JSON
# type of a switch (bool) or a path (str). RunConfig holds the defaults.
_OPTIONS = {
    "ergonomics": str,
    "extension_penalty": float,
    "angle_weight": float,
    "strategy": ("serpentine", "sequential"),
    "method": ("greedy", "exhaustive", "local"),
    "jam_weight": float,
    "max_units": int,
    "slots_per_key": int,
    "max_iters": int,
    "report_format": ("tsv", "json"),
    "skip_untypable": bool,
    "override_guard": bool,
}


class RunConfig(_Record):
    """One validated invocation; input paths are checked at build time."""

    command: str
    corpus: tuple[Path, ...] = ()
    layouts: tuple[Path, ...] = ()
    text_in: Path | None = None
    output: Path | None = None
    out_dir: Path | None = None
    ergonomics: Path | None = None
    extension_penalty: float = 1.0
    angle_weight: float = 1.0
    strategy: str = "serpentine"
    method: str = "greedy"
    jam_weight: float = 0.0
    max_units: int | None = None
    slots_per_key: int | None = None
    max_iters: int = 100
    report_format: str = "tsv"
    skip_untypable: bool = False
    override_guard: bool = False
    layout_name: str | None = None
    # built by _resolve from ergonomics, extension_penalty and angle_weight
    model: ErgonomicModel | None = None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _option(p, flag, dest=None, **kwargs):
    """A flag whose type, choices or switch action comes from _OPTIONS."""
    dest = dest or flag[2:].replace("-", "_")
    check = _OPTIONS[dest]
    if check is bool:  # None when absent, so that --config can set it
        kwargs.update(action="store_true", default=None)
    elif isinstance(check, tuple):
        kwargs["choices"] = check
    elif check is not str:
        kwargs["type"] = check
    p.add_argument(flag, dest=dest, **kwargs)


def _add_model_flags(p):
    _option(p, "--ergonomics", metavar="FILE",
            help="TSV overriding the built-in per-key measurements")
    _option(p, "--extension-penalty", help="cost added to every extension (lateral) key press")
    _option(p, "--angle-weight", help="weight of the joint-angle cost term")


# Built on the first main() call, not at import, and reused by every later
# call. Reuse is safe because argparse keeps all parse state in the Namespace
# it returns, the subparsers action parses into a new sub-namespace on each
# call, and no action here has a mutable default. An "append"-style action
# with a list default would break this: parses would share, and grow, the list.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="bnkeypad",
                     description="Bengali multi-tap keypad analysis and layout tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="count unit frequencies in a corpus")
    p.add_argument("--corpus", nargs="+", required=True, metavar="FILE")
    p.add_argument("-o", "--output", metavar="FILE")

    p = sub.add_parser("build-layout", help="build a layout from corpus frequencies")
    p.add_argument("--corpus", nargs="+", required=True, metavar="FILE")
    _option(p, "--strategy")
    p.add_argument("--name", dest="layout_name")
    p.add_argument("-o", "--output", metavar="FILE")
    _add_model_flags(p)

    p = sub.add_parser("evaluate", help="typing metrics of a layout on a corpus")
    p.add_argument("--layout", required=True, metavar="FILE")
    p.add_argument("--corpus", nargs="+", required=True, metavar="FILE")
    _option(p, "--format", "report_format")
    _option(p, "--skip-untypable")
    p.add_argument("-o", "--output", metavar="FILE")
    _add_model_flags(p)

    p = sub.add_parser("compare", help="metrics of several layouts side by side")
    p.add_argument("--layouts", nargs="+", required=True, metavar="FILE")
    p.add_argument("--corpus", nargs="+", required=True, metavar="FILE")
    _option(p, "--format", "report_format")
    _option(p, "--skip-untypable")
    p.add_argument("-o", "--output", metavar="FILE")
    _add_model_flags(p)

    p = sub.add_parser("transcribe", help="text to multi-tap keystroke trace")
    p.add_argument("--layout", required=True, metavar="FILE")
    p.add_argument("--in", dest="text_in", required=True, metavar="FILE")
    p.add_argument("--out", dest="output", required=True, metavar="FILE")
    _option(p, "--skip-untypable")

    p = sub.add_parser("optimize", help="search consonant placements for minimum cost")
    p.add_argument("--corpus", nargs="+", required=True, metavar="FILE")
    _option(p, "--jam-weight")
    _option(p, "--method")
    _option(p, "--max-units")
    _option(p, "--slots-per-key")
    _option(p, "--max-iters")
    _option(p, "--override-guard")
    p.add_argument("-o", "--output", metavar="FILE")
    _add_model_flags(p)

    p = sub.add_parser("reproduce-paper",
                       help="build proposed + baseline layouts and report the jam reduction")
    p.add_argument("--corpus", nargs="+", required=True, metavar="FILE")
    p.add_argument("--out-dir", dest="out_dir", required=True, metavar="DIR")
    _add_model_flags(p)

    for p in sub.choices.values():  # every command's last flag
        p.add_argument("--config", metavar="FILE",
                       help="JSON object with defaults for the keys " + ", ".join(_OPTIONS))
    return parser


def _load_config_file(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file does not exist: {path}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an int too long to convert
        raise UsageError(f"config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config file {path}: expected a JSON object")
    unknown = sorted(set(data) - set(_OPTIONS))
    if unknown:
        raise UsageError(f"config file {path}: unknown key(s) {', '.join(unknown)}")
    return {name: _config_value(path, name, value) for name, value in data.items()}


def _config_value(path: str, name: str, value):
    """One --config value, converted and checked the way argparse treats its flag."""
    check = _OPTIONS[name]
    if isinstance(check, tuple):
        if value in check:
            return value
    elif check in (bool, str):
        if isinstance(value, check):
            return value
    else:
        try:
            return check(str(value))
        except ValueError:
            pass
    raise UsageError(f"config file {path}: invalid value {value!r} for {name}")


def _resolve(args: argparse.Namespace) -> RunConfig:
    given = vars(args)
    # RunConfig's defaults, then the --config values, then the flags given
    options = _load_config_file(args.config) if given.get("config") is not None else {}
    options.update({name: given[name] for name in _OPTIONS if given.get(name) is not None})

    def paths(values, allow_stdin=False) -> tuple[Path, ...]:
        out = []
        for v in values:
            if not v:
                raise UsageError("an input path must not be empty")
            if allow_stdin and v == "-":
                out.append(Path("-"))
                continue
            p = Path(v)
            if not p.is_file():
                raise UsageError(f"input path does not exist: {v}")
            out.append(p)
        if sum(1 for p in out if str(p) == "-") > 1:
            raise UsageError("standard input ('-') may be given at most once")
        return tuple(out)

    corpus = paths(given.get("corpus") or (), allow_stdin=True)
    # a path given as '' is refused here or in paths(), not read as absent
    layout, text_in = given.get("layout"), given.get("text_in")
    layouts = paths([layout] if layout is not None else given.get("layouts") or ())
    text_in = paths([text_in], allow_stdin=True)[0] if text_in is not None else None
    output, out_dir = given.get("output"), given.get("out_dir")
    if "" in (output, out_dir):
        raise UsageError("an output path must not be empty")
    if out_dir == "-":
        raise UsageError("--out-dir must name a directory, not standard output ('-')")
    if given.get("layout_name") == "":  # compare would report the file's stem instead
        raise UsageError("--name must not be empty")
    if "ergonomics" in options:
        options["ergonomics"] = paths([options["ergonomics"]])[0]
    # every command checks every number, ints under their flag's name and floats
    # under the library's; a key never needs more slots than there are units
    limits = {"max_units": (1, None), "slots_per_key": (1, len(bn_text.ALL_UNITS)),
              "max_iters": (0, None)}
    try:
        for name, (low, high) in limits.items():
            if name in options:
                _check_int(f"--{name.replace('_', '-')}", options[name], low, high)
        for name in ("extension_penalty", "angle_weight", "jam_weight"):
            if name in options:
                _check_float(name, options[name], positive=name == "angle_weight")
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    fields = dict(command=args.command, corpus=corpus, layouts=layouts, text_in=text_in,
                  output=Path(output) if output not in (None, "-") else None,
                  out_dir=Path(out_dir) if out_dir else None,
                  layout_name=given.get("layout_name"), **options)
    # every command builds and checks the cost model, and the commands that
    # use it take this one
    return RunConfig(**fields, model=_model(RunConfig(**fields)))


def write_artifacts(artifacts) -> None:
    """Write ``(path, text)`` artifacts, all or none; a path of None is stdout.

    Each file's text is encoded to UTF-8 once, with no newline translation,
    and staged through ``os.write``, until every byte is written, in a temp
    file beside its target. Only when every file is staged are they renamed
    into place, in order, and then stdout gets its bytes. A failure before
    that removes every temp file, so each target and its directory's listing
    stay as they were (a missing directory is still created). A rename that
    fails after another has succeeded is outside this guarantee.

    A file gets the mode ``open(path, "w")`` would leave: the replaced
    file's, else ``0o666`` less the umask. A symbolic link is followed to
    its target, which is replaced and may be created; the link stays. Only
    the last component needs resolving: the temp file and the target share
    the directory their path names either way. A file in the directory's
    way, or a directory at the target, raises an error that names the path.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    staged = []  # (temp file, target) in artifact order
    try:
        for path, text in artifacts:
            if path is None:
                continue
            if os.path.islink(path):
                # write through the link, as open() does, not over it
                path = Path(os.path.realpath(path))
            try:
                # a file in the directory's way raises here, naming the path
                mode = os.stat(path).st_mode
            except FileNotFoundError:
                mode = None
                if not path.parent.is_dir():
                    try:
                        path.parent.mkdir(parents=True, exist_ok=True)
                    except (FileExistsError, NotADirectoryError):
                        # e.g. a dangling link in the way: name the output
                        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                                 str(path)) from None
            if mode is not None and stat.S_ISDIR(mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            data = memoryview(text.encode("utf-8"))
            while True:
                tmp = os.path.join(path.parent, f".{path.name}.{os.urandom(6).hex()}.tmp")
                try:
                    fd = os.open(tmp, flags, 0o666)  # the umask applies, as for open()
                    break
                except FileExistsError:
                    continue
            staged.append((tmp, path))
            try:
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _path in staged:
            try:
                os.unlink(tmp)  # gone already if it was renamed
            except OSError:
                pass
        raise
    for path, text in artifacts:
        if path is None:
            # the bytes of the file, whatever the stream's encoding; a text-only
            # stream such as io.StringIO has no byte layer and takes the str
            out = sys.stdout
            if hasattr(out, "buffer"):
                out.flush()
                out.buffer.write(text.encode("utf-8"))
            else:
                out.write(text)


def _model(config: RunConfig) -> ErgonomicModel:
    # _resolve has checked the cost parameters
    if config.ergonomics is not None:
        model = load_model(config.ergonomics, config.extension_penalty, config.angle_weight)
    else:
        model = default_model(config.extension_penalty, config.angle_weight)
    # Metrics and objectives sum count * taps * key cost. A key holds at most
    # every typable unit (--slots-per-key is capped there too), and a corpus
    # has at most sys.maxsize units, so a model that passes here overflows no
    # sum.
    taps = len(bn_text.ALL_UNITS)
    for key in KEYPAD_KEYS:
        cost = key_cost(model, key)
        if not isfinite(cost * taps * sys.maxsize):
            raise UsageError(f"cost parameters too large: key {key} costs {cost:g}, "
                             f"so a corpus typed at {taps} taps a unit could cost "
                             f"more than the largest float")
    return model


def _format_report_tsv(report: EvaluationReport) -> str:
    lines = [
        "metric\tvalue",
        f"kspc\t{report.kspc:.9f}",
        f"expected_cost\t{report.expected_cost:.9f}",
        f"jam_rate\t{report.jam_rate:.9f}",
        f"unit_count\t{report.unit_count}",
        f"press_count\t{report.press_count}",
    ]
    for key in KEYPAD_KEYS:
        lines.append(f"load[{key}]\t{report.per_key_load[key]:.9f}")
    return "\n".join(lines) + "\n"


def _require_units(stats: CorpusStats, task: str, source: str = "the corpus") -> None:
    """Refuse input with no typable unit for ``task``."""
    if not stats.typable:
        raise EmptyCorpusError(f"{source} has no typable unit to {task} "
                               f"({stats.skipped} scalars skipped)")


def _require_placed(units: int, skipped_units: int, layout_name: str,
                    source: str = "the corpus") -> None:
    """Refuse input whose every unit --skip-untypable deleted."""
    if not units:
        raise EmptyCorpusError(f"--skip-untypable deleted all {skipped_units} units "
                               f"of {source}: layout {layout_name} places none of them")


def _evaluate_corpus(stats: CorpusStats, named: list[tuple[str, Layout]],
                     config: RunConfig) -> list[EvaluationReport]:
    """``evaluate_many`` of ``(name, layout)`` pairs, refusing a corpus that leaves one no unit."""
    _require_units(stats, "evaluate")
    reports = evaluate_many(stats, [layout for _, layout in named], config.model,
                            skip_untypable=config.skip_untypable)
    for (name, _), report in zip(named, reports):
        _require_placed(report.unit_count, report.skipped_units, name)
    return reports


def _cmd_analyze(config: RunConfig) -> tuple[list, str]:
    stats = CorpusStats.read(config.corpus)
    _require_units(stats, "analyze")
    return ([(config.output, bn_text.format_frequency_tsv(stats.table))],
            f"analyzed {len(stats.typable)} units, skipped {stats.skipped} scalars\n")


def _cmd_build_layout(config: RunConfig) -> tuple[list, str]:
    table = CorpusStats.read(config.corpus).table
    policy = PlacementPolicy(strategy=Strategy(config.strategy))
    try:
        layout = build_layout(table, config.model, policy, name=config.layout_name)
    except ValueError as exc:  # a --name the layout file cannot hold
        raise UsageError(str(exc)) from None
    return [(config.output, serialize(layout))], ""


def _cmd_evaluate(config: RunConfig) -> tuple[list, str]:
    path = config.layouts[0]
    layout = load_layout(path)
    stats = CorpusStats.read(config.corpus)
    [report] = _evaluate_corpus(stats, [(layout.name or path.stem, layout)], config)
    if config.report_format == "json":  # the report's fields, in sorted order
        text = json.dumps(vars(report), sort_keys=True, indent=2) + "\n"
    else:
        text = _format_report_tsv(report)
    return [(config.output, text)], ""


def _cmd_compare(config: RunConfig) -> tuple[list, str]:
    stats = CorpusStats.read(config.corpus)
    named = []
    for path in config.layouts:  # every file is loaded before any is evaluated
        layout = load_layout(path)
        named.append((layout.name or path.stem, layout))
    rows = list(zip([name for name, _ in named], _evaluate_corpus(stats, named, config)))
    if config.report_format == "json":
        payload = [dict(layout=name, **vars(report)) for name, report in rows]
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = ["layout\tkspc\texpected_cost\tjam_rate"]
        for name, report in rows:
            lines.append(f"{name}\t{report.kspc:.9f}\t{report.expected_cost:.9f}"
                         f"\t{report.jam_rate:.9f}")
        text = "\n".join(lines) + "\n"
    return [(config.output, text)], ""


def _cmd_transcribe(config: RunConfig) -> tuple[list, str]:
    path = config.layouts[0]
    layout = load_layout(path)
    stats = CorpusStats.read([config.text_in])
    _require_units(stats, "transcribe", "the --in text")
    trace = _trace(stats.typable, layout, skip_untypable=config.skip_untypable)
    _require_placed(len(trace.boundaries), len(trace.skipped_positions),
                    layout.name or path.stem, "the --in text")
    lines = ["press_index\tkey\ttext_position"]
    for pos, (start, end) in trace.boundaries:
        for press_index in range(start, end):
            lines.append(f"{press_index}\t{trace.presses[press_index]}\t{pos}")
    report = ""
    if stats.skipped or trace.skipped_positions:
        report = (f"skipped {stats.skipped} non-typable scalars, "
                  f"{len(trace.skipped_positions)} units not in the layout\n")
    return [(config.output, "\n".join(lines) + "\n")], report


def _cmd_optimize(config: RunConfig) -> tuple[list, str]:
    from . import optimize  # imported here, so that the other commands never load it

    problem = optimize.problem_from_stats(CorpusStats.read(config.corpus), config.model,
                                          config.jam_weight, max_units=config.max_units,
                                          slots_per_key=config.slots_per_key)
    report = (f"method={config.method} units={len(problem.units)} "
              f"slots={len(problem.key_slots)} jam_weight={config.jam_weight:g}\n")
    if config.method == "exhaustive":
        solution, value = optimize.solve_exhaustive(problem, override_guard=config.override_guard)
    elif config.method == "local":
        solution, start_value, value = optimize._local_from_greedy(problem, config.max_iters)
        report += f"greedy start value={start_value!r}\n"
    else:
        solution, value = optimize.solve_greedy(problem)
    return [(config.output, serialize(solution))], report + f"objective value={value!r}\n"


def reproduce_paper(corpus_paths, model: ErgonomicModel) -> tuple[Layout, Layout, str]:
    """Build the proposed and baseline layouts and report their metrics.

    Returns (proposed serpentine layout, sequential baseline layout,
    canonical report text). The report carries the flexibility ranking,
    the reserved-key roles, per-layout metrics, and the measured key-jam
    reduction of the proposed layout over the baseline.
    """
    stats = CorpusStats.read(corpus_paths)
    proposed = build_layout(stats.table, model, PlacementPolicy(Strategy.SERPENTINE),
                            name="serpentine")
    baseline = build_layout(stats.table, model, PlacementPolicy(Strategy.SEQUENTIAL),
                            name="sequential")
    layouts = (proposed, baseline)
    reports = list(zip(layouts, evaluate_many(stats, layouts, model)))
    ranking = rank_keys(model, [str(d) for d in range(1, 10)])
    jam_proposed = reports[0][1].jam_rate
    jam_baseline = reports[1][1].jam_rate
    reduction = 100.0 * (jam_baseline - jam_proposed) / jam_baseline if jam_baseline else 0.0

    lines = [
        "reproduce-paper v1",
        f"flexibility_ranking\t{'>'.join(ranking)}",
        f"symbol_key\t{proposed.roles[Role.SYMBOL]}",
        f"vowel_key\t{proposed.roles[Role.VOWEL]}",
        f"space_key\t{proposed.roles[Role.SPACE]}",
        f"link_key\t{proposed.roles[Role.LINK]}",
        "vowel_order\t" + ",".join(
            bn_text.unit_token(u) for u in proposed.slots[proposed.roles[Role.VOWEL]]),
        "layout\tkspc\texpected_cost\tjam_rate\tunit_count\tpress_count",
    ]
    for layout, report in reports:
        lines.append(f"{layout.name}\t{report.kspc:.9f}\t{report.expected_cost:.9f}"
                     f"\t{report.jam_rate:.9f}\t{report.unit_count}\t{report.press_count}")
    lines.append(f"jam_reduction_pct\t{reduction:.9f}")
    return proposed, baseline, "\n".join(lines) + "\n"


def _cmd_reproduce_paper(config: RunConfig) -> tuple[list, str]:
    proposed, baseline, report_text = reproduce_paper(config.corpus, config.model)
    out_dir = config.out_dir
    return [(out_dir / "proposed_layout.tsv", serialize(proposed)),
            (out_dir / "baseline_layout.tsv", serialize(baseline)),
            (out_dir / "report.tsv", report_text)], ""


_COMMANDS = {
    "analyze": _cmd_analyze,
    "build-layout": _cmd_build_layout,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
    "transcribe": _cmd_transcribe,
    "optimize": _cmd_optimize,
    "reproduce-paper": _cmd_reproduce_paper,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _resolve(args)
        artifacts, report = _COMMANDS[config.command](config)
        write_artifacts(artifacts)
        sys.stderr.write(report)
        return 0
    except UsageError as exc:
        sys.stderr.write(f"{exc.code}\t{exc}\n")
        return 2
    except KeypadError as exc:
        sys.stderr.write(f"{exc.code}\t{exc}\n")
        return 1
    except OSError as exc:
        # reads/writes that fail after validation (permissions, disk)
        sys.stderr.write(f"E_IO\t{exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
