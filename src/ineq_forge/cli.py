"""Command-line front end.

Four subcommands: `verify` sweeps the whole catalog (or a selection) for
violations with ascent off, `falsify` hunts with local ascent on, `equality`
round-trips constructed equality instances through the certificate solvers,
and `moore-complex` runs the complex-premise transfer experiment.

Output is JSON Lines on stdout (or the --out file): record lines first, then
exactly one run manifest as the final stdout line.  A summary, moore-complex
or manifest line is its record (SearchReport, MooreComplexReport,
RunManifest) with the fields in declaration order.  Floats are serialized
with 17 significant digits so every value round-trips bit-exactly; the two
timestamp fields are the only bytes that differ between identical runs.

With --emit-instances, `verify` also writes one line per trial whose premises
hold.  Those lines come from the falsify shard pass that fills the summary,
so each instance is sampled, evaluated and digested once; they are written
shard by shard in trial order, before the name's summary line.

Exit codes: 0 pass, 1 usage error (--out and --csv naming one file
included), unwritable output path or a stdout pipe closed by its reader
(which prints nothing), 2 confirmed violation or failed equality
round-trip, 3 experimental counterexample finding (moore-complex only).
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import itertools
import json
import math
import os
import re
import stat
import sys
from contextlib import ExitStack, contextmanager
from datetime import datetime, timezone

from .catalog import CATALOG_VERSION, catalog_entry, catalog_names
from .equality import EQUALITY_BUILDERS, builder_space
from .falsifier import (
    FieldChoice,
    GramKind,
    SearchConfig,
    Verdict,
    _field_plan,
    _trial_cell,
    _trial_rng,
    falsify,
    moore_complex_experiment,
)
from .spaces import DomainError, Field


@dataclasses.dataclass(frozen=True)
class RunManifest:
    command: str
    config: SearchConfig
    catalog_version: str
    started_at: str
    finished_at: str
    totals: dict


# serialization -------------------------------------------------------------


def format_float(x: float) -> str:
    """17 significant digits, the shortest spelling that always round-trips
    a double.  JSON has no spelling for non-finite values, so those map to
    null."""
    if not math.isfinite(x):
        return "null"
    return "%.17g" % x


_encode_str = json.JSONEncoder(ensure_ascii=False).encode


@functools.lru_cache(maxsize=1024)
def _str_key(key: str) -> str:
    return _encode_str(key) + ":"


def _member_key(key) -> str:
    """`"key":` for one dict member.  The spelling of a str key is memoized,
    since record lines repeat the same keys; other keys go through str()."""
    if type(key) is str:
        return _str_key(key)
    return to_json(str(key)) + ":"


def to_json(value) -> str:
    """One JSON value, with no whitespace.  An enum is written as its value,
    and a dataclass instance as an object of its fields in declaration
    order, so a record's line lists exactly its dataclass's fields."""
    # exact scalar types first: bool, None, numpy floats and sequences take
    # the isinstance chain below
    kind = type(value)
    if kind is float:
        return format_float(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return str(value)
    if isinstance(value, dict):
        return "{" + ",".join([_member_key(k) + to_json(v) for k, v in value.items()]) + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(to_json(v) for v in value) + "]"
    if isinstance(value, enum.Enum):
        return to_json(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return "{" + ",".join([_str_key(f.name) + to_json(getattr(value, f.name))
                               for f in dataclasses.fields(value)]) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


@contextmanager
def _outputs(*paths):
    """Open each path (None: no file) for writing, all or none: every path
    is opened before any is truncated, and if one cannot be opened, or two
    name one file, the others are left as they were (a file created here is
    removed)."""
    absent = [path is not None and not os.path.exists(path) for path in paths]
    with ExitStack() as stack:
        try:
            handles = [None if path is None else stack.enter_context(open(path, "a", encoding="utf-8"))
                       for path in paths]
            opened = [(path, handle, os.fstat(handle.fileno())) for path, handle in zip(paths, handles)
                      if handle is not None]
            for (path, _, status), (other, _, other_status) in itertools.combinations(opened, 2):
                if os.path.samestat(status, other_status):
                    raise DomainError(f"{path!r} and {other!r} name the same file")
        except (OSError, DomainError):
            stack.close()
            for path, made in zip(paths, absent):
                if made and os.path.exists(path):
                    os.unlink(path)
            raise
        for _, handle, status in opened:
            if stat.S_ISREG(status.st_mode):
                handle.truncate(0)
        yield handles


def _write_csv(handle, reports):
    handle.write("ineq,trials,violations,near_equality,worst_margin\n")
    for report in reports:
        worst = "" if report.worst_margin is None else format_float(report.worst_margin)
        handle.write(
            f"{report.ineq},{report.trials_run},{report.violation_count},"
            f"{report.near_equality_count},{worst}\n"
        )


# flag plumbing --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here reserves 2 for
    violations, so usage problems exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _dims_flag(text: str):
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if m:
        return int(m.group(1)), int(m.group(2))
    if re.fullmatch(r"\d+", text):
        return int(text), int(text)
    raise argparse.ArgumentTypeError(f"expected A..B or N, got {text!r}")


def _seed_flag(text: str) -> int:
    if not re.fullmatch(r"\d+", text):
        raise argparse.ArgumentTypeError(f"seed must be an unsigned decimal, got {text!r}")
    return int(text)


def _add_common(sub, *, count_flag: str, count_default: int = 10000, field_flag: bool = True,
                gram_flag: bool = True):
    sub.add_argument(count_flag, dest="trials", type=int, default=count_default, metavar="N")
    sub.add_argument("--dims", type=_dims_flag, default=(2, 6), metavar="A..B")
    if field_flag:
        sub.add_argument("--field", choices=["real", "complex", "both"], default="both")
    if gram_flag:
        sub.add_argument("--gram", choices=["identity", "random"], default="identity")
    sub.add_argument("--seed", type=_seed_flag, default=0)
    sub.add_argument("--out", metavar="PATH")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ineq-forge", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    verify = commands.add_parser("verify", help="sweep for violations, ascent off")
    verify.add_argument("--ineq", default="all", metavar="NAME[,NAME...]")
    _add_common(verify, count_flag="--samples")
    verify.add_argument("--emit-instances", action="store_true")
    verify.add_argument("--csv", metavar="PATH")
    verify.set_defaults(handler=cmd_search, ascent_steps=0, step=1e-2)

    hunt = commands.add_parser("falsify", help="hunt for violations, ascent on")
    hunt.add_argument("--ineq", default="all", metavar="NAME[,NAME...]")
    _add_common(hunt, count_flag="--trials")
    hunt.add_argument("--ascent-steps", type=int, default=50, metavar="K")
    hunt.add_argument("--step", type=float, default=1e-2, metavar="S")
    hunt.add_argument("--csv", metavar="PATH")
    hunt.set_defaults(handler=cmd_search, emit_instances=False)

    equality = commands.add_parser("equality", help="round-trip constructed equality instances")
    equality.add_argument("--ineq", default="all", metavar="NAME[,NAME...]")
    # the builders construct their instances in identity-gram spaces
    _add_common(equality, count_flag="--samples", gram_flag=False)
    equality.set_defaults(handler=cmd_equality, gram="identity", ascent_steps=0, step=1e-2)

    moore = commands.add_parser("moore-complex", help="complex-premise transfer experiment")
    moore.add_argument("--eps", type=float, required=True)
    # the experiment always runs over complex spaces
    _add_common(moore, count_flag="--samples", field_flag=False)
    moore.add_argument("--ascent-steps", type=int, default=0, metavar="K")
    moore.set_defaults(handler=cmd_moore_complex, field="complex", step=1e-2)

    return parser


def _threads_from_env() -> int:
    raw = os.environ.get("INEQ_FORGE_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw.strip())
    except ValueError:
        raise DomainError(f"INEQ_FORGE_THREADS must be a nonnegative integer, got {raw!r}") from None
    if value < 0:
        raise DomainError(f"INEQ_FORGE_THREADS must be a nonnegative integer, got {raw!r}")
    if value == 0:
        return os.cpu_count() or 1
    return value


def _select_names(flag: str, universe) -> list:
    if flag == "all":
        return list(universe)
    names = [part.strip() for part in flag.split(",") if part.strip()]
    if not names:
        raise DomainError(f"no inequality names in {flag!r}")
    for name in names:
        if name not in universe:
            raise DomainError(f"unknown inequality {name!r}; valid names: {', '.join(universe)}")
    if len(set(names)) != len(names):
        raise DomainError(f"an inequality name is repeated in {flag!r}")
    return names


def _search_names(flag: str, choice: FieldChoice) -> list:
    """The selected catalog names, each checked against the field choice
    before the first run, so a rejected name leaves no partial output."""
    names = _select_names(flag, catalog_names())
    for name in names:
        _field_plan(name, catalog_entry(name).fields, choice)
    return names


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        seed=args.seed,
        trials=args.trials,
        dims=args.dims,
        ascent_steps=args.ascent_steps,
        step_size=args.step,
        field=FieldChoice(args.field),
        gram=GramKind(args.gram),
    )


def _finish(args, config: SearchConfig, totals: dict, started: str) -> None:
    """The manifest always ends up as the final stdout line."""
    manifest = RunManifest(args.command, config, CATALOG_VERSION, started, _utc_now(), totals)
    sys.stdout.write(to_json(manifest) + "\n")


# command handlers ------------------------------------------------------------


def cmd_search(args, threads: int) -> int:
    """verify and falsify: one summary line per name, preceded by its
    instance lines under --emit-instances."""
    started = _utc_now()
    config = _search_config(args)
    names = _search_names(args.ineq, config.field)
    # both outputs open first, so an unwritable --out or --csv fails before the run
    with _outputs(args.out, args.csv) as (out, csv):
        stream = out or sys.stdout

        def write(records):
            for record in records:
                stream.write(to_json(record) + "\n")

        reports = []
        for name in names:
            report = falsify(name, config, threads=threads, on_records=write if args.emit_instances else None)
            stream.write(to_json(report) + "\n")
            reports.append(report)
        if csv is not None:
            _write_csv(csv, reports)
        _finish(args, config, {r.ineq: r.trials_run for r in reports}, started)
    return 2 if any(r.violation_count for r in reports) else 0


def cmd_equality(args, threads: int) -> int:
    started = _utc_now()
    names = _select_names(args.ineq, list(EQUALITY_BUILDERS))
    config = _search_config(args)
    # builder_space maps each cell to a field the builder can run in
    plan = _field_plan("equality", (Field.REAL, Field.COMPLEX), config.field)
    failures = 0
    totals = {}
    with _outputs(args.out) as (out,):
        for name in names:
            build = EQUALITY_BUILDERS[name]
            passes = 0
            for index in range(config.trials):
                space = builder_space(name, *_trial_cell(config, plan, index))
                rng = _trial_rng(config.seed, "equality:" + name, index)
                built = build(space, rng)
                passes += 1 if built.ok else 0
            failed = config.trials - passes
            failures += failed
            totals[name] = config.trials
            record = {"ineq": name, "samples": config.trials, "passes": passes, "failures": failed}
            (out or sys.stdout).write(to_json(record) + "\n")
        _finish(args, config, totals, started)
    return 2 if failures else 0


def cmd_moore_complex(args, threads: int) -> int:
    started = _utc_now()
    config = _search_config(args)
    # --out opens first, so an unwritable one fails before the run
    with _outputs(args.out) as (out,):
        report = moore_complex_experiment(args.eps, config)
        (out or sys.stdout).write(to_json(report) + "\n")
        _finish(args, config, {args.command: report.samples}, started)
    return 3 if report.verdict is Verdict.COUNTEREXAMPLE_FOUND else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        threads = _threads_from_env()
        return args.handler(args, threads)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so that the flush at interpreter exit reports nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (DomainError, OSError) as exc:
        # OSError: an --out or --csv path that cannot be written
        sys.stderr.write(f"ineq-forge: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
