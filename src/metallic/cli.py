"""Command-line front end.

Subcommands: word, tiling, dim, cover, estimate, render, table. COMMANDS is the one
place where a command or a flag is declared: its handler, help line and flag rows.
Data goes to stdout (or --out), diagnostics to stderr. Exit codes: 0 success, 2
validation error, 3 enumeration cap exceeded or memory exhausted, 141 stdout closed by
its reader. A key=value config file can preset any flag of the chosen subcommand;
explicit flags win. --cap (else METALLIC_CAP, else 10^7) caps the whole run: a given --cap is
set as METALLIC_CAP while the command runs, so every check, the step word's too, reads it.

Tiling and cover rows are one format string each, filled from the integers of a
start (u + v*gamma)/den: u/den and v/den in lowest terms and the correctly rounded
double (`quadfield.to_double`, a cover start's from its enclosure first); the length
fields are formatted once per exponent. Rows, and render's lines (a segment's three
lines count as one), are written ROWS_PER_WRITE at a time, one write per chunk, and
--out is opened at the first write. No command loads mpmath: dim and estimate round
their doubles correctly from integer logs, and --bits is the floor of the root
bracket's fraction bits. A command loads only what it runs: estimate and render
(and json, for dim and estimate) are imported by the commands that use them.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import sys
from collections.abc import Iterator
from functools import lru_cache, partial
from itertools import islice
from math import gcd, isfinite

from .dimension import cantor_similarity, dimension
from .errors import CapExceeded, ValidationError
from .fractal import POLICIES, FractalSpec, check_cover_cap, cover_summary, iter_cover_intervals
from .limits import DEFAULT_BITS, check_bits, resolve_cap
from .quadfield import MEAN_SYMBOLS, MetallicParams, gamma_pow, to_double
from .substitution import iter_word_at_step, word_length
from .tiling import Tile, tiling_at_step

NAMED_MEANS = (
    ("golden", 1, 1),
    ("silver", 2, 1),
    ("bronze", 3, 1),
    ("copper", 1, 2),
    ("nickel", 1, 3),
)

# the exact fields that tiling and cover rows share, in column order
EXACT_COLUMNS = (
    "start_c0_num", "start_c0_den", "start_c1_num", "start_c1_den",
    "start_float", "length_exponent", "length_float",
)
COVER_COLUMNS = ("depth", "index", "kind_path", *EXACT_COLUMNS)
# Rows hold ints, finite floats and a/b strings, so these give the bytes of csv.writer
# (floats to 17 significant digits, enough to read them back) and json.dumps. Each row
# ends in its length fields, filled in whole from a *_LENGTH template.
_EXACT_CSV = "{},{},{},{},{:.17g},{}"
TILING_CSV_ROW = "{},{}," + _EXACT_CSV
COVER_CSV_ROW = "{},{},{}," + _EXACT_CSV
CSV_LENGTH = "{},{:.17g}\n"
COVER_JSON_RECORD = ('{{"depth": {}, "index": {}, "kind_path": "{}", "start_c0_num": {}, '
                     '"start_c0_den": {}, "start_c1_num": {}, "start_c1_den": {}, '
                     '"start_float": {}, {}')
JSON_LENGTH = '"length_exponent": {}, "length_float": {}}}'
ROWS_PER_WRITE = 512  # rows joined into one write, at most ~128 KB


# Bound in this module, and importing on first call, because bench/spans.py traces
# these names here; ROADMAP item H (a stats channel) retires them. cmd_render streams
# `render.*_lines` instead, so the render pair only keeps the tracer installable.
def empirical_dimension(*args, **kwargs):
    from .estimate import empirical_dimension
    return empirical_dimension(*args, **kwargs)


def box_dimension(*args, **kwargs):
    from .estimate import box_dimension
    return box_dimension(*args, **kwargs)


def render_construction(*args, **kwargs):
    from .render import render_construction
    return render_construction(*args, **kwargs)


def render_tiling_stack(*args, **kwargs):
    from .render import render_tiling_stack
    return render_tiling_stack(*args, **kwargs)


@lru_cache(maxsize=1024)
def _length_fields(params: MetallicParams, exponent: int, template: str) -> str:
    return template.format(exponent, float(gamma_pow(params, -exponent)))


def _exact_fields(tile: Tile, length_template: str) -> tuple:
    """The EXACT_COLUMNS values of a tile or cover interval, the length fields as one string."""
    u, v, den = tile.u, tile.v, tile.den
    g0, g1 = gcd(u, den), gcd(v, den)
    return (u // g0, den // g0, v // g1, den // g1, to_double(tile.params, u, v, den, tile.fix),
            _length_fields(tile.params, tile.length_exponent, length_template))


def _write_rows(out: io.TextIOBase, rows: Iterator[str]) -> None:
    while chunk := "".join(islice(rows, ROWS_PER_WRITE)):
        out.write(chunk)


class _OutFile:
    """--out, opened at its first write, so a command rejected before any output leaves
    an existing file as it was (not a renamed temporary file: --out may be a FIFO)."""

    def __init__(self, path: str) -> None:
        self.path, self.fh = path, None

    def write(self, text: str) -> int:
        try:
            self.fh = self.fh or open(self.path, "w", encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"--out: {exc}") from None
        return self.fh.write(text)

    def flush(self) -> None:
        self.write("")  # a command that succeeds leaves its file, even one it wrote nothing to

    def close(self) -> None:
        if self.fh:
            self.fh.close()


def _parse_extra(text: str) -> MetallicParams:
    p_text, _, q_text = text.partition(",")
    try:
        return MetallicParams(int(p_text), int(q_text))
    except ValueError:
        raise ValidationError(f"--extra takes P,Q with integers P, Q >= 1, got {text!r}") from None


def _parse_indices(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    return tuple(int(part) for part in text.split(",") if part.strip() != "")


def _make_spec(args: argparse.Namespace) -> FractalSpec:
    params = MetallicParams(args.p, args.q)
    return FractalSpec(
        params, args.n, args.remove_long, args.remove_short,
        policy=args.policy, indices=_parse_indices(args.indices),
    )


def cmd_word(args: argparse.Namespace, out: io.TextIOBase) -> None:
    if args.max_letters < 0:
        raise ValidationError(f"--max-letters must be >= 0, got {args.max_letters}")
    params = MetallicParams(args.p, args.q)
    length = word_length(params, args.n)
    letters = iter_word_at_step(params, args.n)
    if length <= args.max_letters:
        out.write("".join(letters) + "\n")
    else:
        prefix = "".join(islice(letters, args.max_letters))
        out.write(prefix + "...\n")
        out.write(f"letters: {length}\n")


def cmd_tiling(args: argparse.Namespace, out: io.TextIOBase) -> None:
    params = MetallicParams(args.p, args.q)
    tiles = tiling_at_step(params, args.n).tiles
    if args.format == "csv":
        out.write(",".join(("index", "kind", *EXACT_COLUMNS)) + "\n")
        _write_rows(out, (TILING_CSV_ROW.format(i, t.kind_path, *_exact_fields(t, CSV_LENGTH))
                          for i, t in enumerate(tiles)))
        return
    symbol = MEAN_SYMBOLS.get((args.p, args.q), "γ")
    out.write(f"step-{args.n} tiling for p={args.p}, q={args.q}\n")
    _write_rows(out, (f"{i:4d}  {tile.kind_path}  start = {tile.start}  "
                      f"≈ {to_double(params, tile.u, tile.v, tile.den):.12f}  "
                      f"length = 1/{symbol}^{tile.length_exponent}\n"
                      for i, tile in enumerate(tiles)))


def cmd_dim(args: argparse.Namespace, out: io.TextIOBase) -> None:
    import json
    if (args.m is None) != (args.r is None):
        raise ValidationError("generic mode needs both --m and --r")
    if args.m is not None:
        payload = {"m": args.m, "r": args.r, "dim": cantor_similarity(args.m, args.r)}
        out.write(json.dumps(payload) + "\n")
        return
    if args.n is None:
        raise ValidationError("--n is required (or use --m with --r)")
    spec = _make_spec(args)
    report = dimension(spec, bits=args.bits)
    payload = {
        "p": args.p, "q": args.q, "n": args.n,
        "l": args.remove_long, "s": args.remove_short,
        "Na_prime": report.poly.linear_coeff,
        "Nb_prime": report.poly.constant_coeff,
        "poly": str(report.poly),
        "root": report.root,
        "dim": report.dim,
        "gamma": spec.params.gamma_float,
        # |g(X/2^k)| passes the double range once g's coefficients do (--n 2000)
        "residual": report.root_residual if isfinite(report.root_residual) else None,
    }
    out.write(json.dumps(payload, allow_nan=False) + "\n")  # ValueError, not Infinity


def cmd_cover(args: argparse.Namespace, out: io.TextIOBase) -> None:
    spec = _make_spec(args)
    check_cover_cap(spec, args.depth)
    intervals = enumerate(iter_cover_intervals(spec, args.depth))
    if args.format == "csv":
        out.write(",".join(COVER_COLUMNS) + "\n")
        _write_rows(out, (COVER_CSV_ROW.format(args.depth, index, iv.kind_path,
                                               *_exact_fields(iv, CSV_LENGTH))
                          for index, iv in intervals))
        return
    out.write("[\n")
    _write_rows(out, ((",\n" if index else "") + COVER_JSON_RECORD.format(
        args.depth, index, iv.kind_path, *_exact_fields(iv, JSON_LENGTH))
        for index, iv in intervals))
    out.write("\n]\n")


def cmd_estimate(args: argparse.Namespace, out: io.TextIOBase) -> None:
    import json
    spec = _make_spec(args)
    if args.depth < 1:
        raise ValidationError("--depth must be >= 1")
    # S_k = Y^k: the cover-sum exponent is the dimension's own double, so one root serves both
    empirical = analytic = empirical_dimension(cover_summary(spec, args.depth), bits=args.bits)
    fit = box_dimension(spec, max(4, args.depth), bits=args.bits)
    payload = {
        "empirical_dim": empirical,
        "box_dim": fit.slope,
        "analytic_dim": analytic,
        "abs_error_empirical": abs(empirical - analytic),
        "abs_error_box": abs(fit.slope - analytic),
        "k": args.depth,
    }
    out.write(json.dumps(payload) + "\n")


def cmd_render(args: argparse.Namespace, out: io.TextIOBase) -> None:
    from .render import RenderPlan, construction_lines, tiling_stack_lines
    plan = RenderPlan(fmt=args.format)
    if args.mode == "stack":
        lines = tiling_stack_lines(MetallicParams(args.p, args.q), args.n, plan)
    else:
        lines = construction_lines(_make_spec(args), args.depth, plan)
    _write_rows(out, lines)


def cmd_table(args: argparse.Namespace, out: io.TextIOBase) -> None:
    extras = [_parse_extra(text) for text in args.extra]
    rows = [*NAMED_MEANS, *((f"({e.p},{e.q})", e.p, e.q) for e in extras)]
    values = [MetallicParams(p, q).gamma_float for _, p, q in rows]  # overflows before any output
    out.write(f"{'name':<10} {'p':>3} {'q':>3}  {'symbol':<6} {'value':<14}\n")
    for (name, p, q), value in zip(rows, values):
        symbol = MEAN_SYMBOLS.get((p, q), "γ")
        out.write(f"{name:<10} {p:>3} {q:>3}  {symbol:<6} {value:.10f}\n")


# Flag rows: an option string and its add_argument keywords.
MEAN_FLAGS = (
    ("--p", dict(type=int, default=1, help="long-tile multiplicity (default 1)")),
    ("--q", dict(type=int, default=1, help="short-tile multiplicity (default 1)")),
)
STEP_FLAG = ("--n", dict(type=int, required=True, help="substitution step"))
REMOVAL_FLAGS = (
    ("--remove-long", dict(type=int, default=0, help="long tiles removed per level")),
    ("--remove-short", dict(type=int, default=0, help="short tiles removed per level")),
    ("--policy", dict(choices=POLICIES, default=POLICIES[0], help="which tiles to remove")),
    ("--indices", dict(help="comma list of word positions to remove (explicit policy)")),
)
COMMON_FLAGS = (
    ("--out", dict(help="output file (default stdout)")),
    ("--bits", dict(type=int, default=DEFAULT_BITS,
                    help="fraction bits of the root bracket, >= 53; printed doubles "
                         "are correctly rounded at any value")),
    ("--cap", dict(type=int, help="enumeration cap (default METALLIC_CAP or 10^7)")),
    ("--config", dict(help="key=value file of flag defaults")),
)

# command: (handler, help line, flag rows in --help order)
COMMANDS = {
    "word": (cmd_word, "print the step-n substitution word", (
        *MEAN_FLAGS, STEP_FLAG,
        ("--max-letters", dict(type=int, default=10000, help="print at most this many letters")),
        *COMMON_FLAGS)),
    "tiling": (cmd_tiling, "print the step-n tiling with exact endpoints", (
        *MEAN_FLAGS, STEP_FLAG,
        ("--format", dict(choices=("text", "csv"), default="text")),
        *COMMON_FLAGS)),
    "dim": (cmd_dim, "analytic dimension report (JSON)", (
        *MEAN_FLAGS,
        ("--n", dict(type=int, help="substitution step")),
        *REMOVAL_FLAGS,
        ("--m", dict(type=int, help="generic self-similar mode: number of copies")),
        ("--r", dict(type=float, help="generic self-similar mode: scale factor")),
        *COMMON_FLAGS)),
    "cover": (cmd_cover, "stream the depth-k cover (CSV or JSON)", (
        *MEAN_FLAGS, STEP_FLAG, *REMOVAL_FLAGS,
        ("--depth", dict(type=int, required=True, help="construction depth k")),
        ("--format", dict(choices=("csv", "json"), default="csv")),
        *COMMON_FLAGS)),
    "estimate": (cmd_estimate, "numerical dimension estimates vs analytic (JSON)", (
        *MEAN_FLAGS, STEP_FLAG, *REMOVAL_FLAGS,
        ("--depth", dict(type=int, default=4, help="cover depth for the sum estimator")),
        *COMMON_FLAGS)),
    "render": (cmd_render, "emit an SVG or TikZ figure", (
        ("--mode", dict(choices=("construction", "stack"), default="construction")),
        *MEAN_FLAGS,
        ("--n", dict(type=int, required=True, help="substitution step (stack mode: top row)")),
        *REMOVAL_FLAGS,
        ("--depth", dict(type=int, default=3, help="construction rows to draw")),
        ("--format", dict(choices=("svg", "tikz"), default="svg")),
        *COMMON_FLAGS)),
    "table": (cmd_table, "table of the named metallic means", (
        ("--extra", dict(action="append", default=[], metavar="P,Q",
                         help="append a (p,q) row; repeatable")),
        *COMMON_FLAGS)),
}


def build_parser() -> argparse.ArgumentParser:
    # argparse makes a formatter per add_argument; each would read the terminal size
    fmt = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="metallic",
        description="Metallic-means tilings of [0,1], removal fractals, and their dimensions",
        formatter_class=fmt,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, flags) in COMMANDS.items():
        sub = subs.add_parser(command, help=help_line, formatter_class=fmt)
        for flag, kwargs in flags:
            sub.add_argument(flag, **kwargs)
    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Expand --config FILE into flags inserted before the user's own flags.

    A parser holding only the flags every subcommand shares finds --config
    under each spelling a subcommand accepts (--config FILE, --config=FILE,
    abbreviations such as --conf), since it resolves prefixes among the same
    option strings; the full parse then checks the whole command line. Keys
    that are not exactly a flag of the subcommand in COMMANDS (help included)
    are skipped, so one file can serve several subcommands.
    """
    if not argv or argv[0].startswith("-"):
        return argv  # no subcommand: argparse reports it
    finder = argparse.ArgumentParser(prog=f"metallic {argv[0]}", usage=argparse.SUPPRESS,
                                     add_help=False, exit_on_error=False)
    for flag, kwargs in COMMON_FLAGS:
        finder.add_argument(flag, **kwargs)
    try:
        path = finder.parse_known_args(argv[1:])[0].config
    except argparse.ArgumentError:
        return argv  # e.g. --config with no file: argparse reports it
    if path is None or argv[0] not in COMMANDS:
        return argv  # an unknown command is left for argparse to report
    known = {flag for flag, _ in COMMANDS[argv[0]][2]}
    injected: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            flag = "--" + key.strip()
            if flag in known:
                injected.append(f"{flag}={value.strip()}")
    return [argv[0], *injected, *argv[1:]]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    # shared settings, checked before any output; each error names its setting
    setting = "--"
    try:
        check_bits(args.bits)
        setting = "--" if args.cap is not None else "METALLIC_CAP: "
        resolve_cap(args.cap)  # --cap, else the variable, checked before any output
    except (ValidationError, ValueError) as exc:
        print(f"error: {setting}{exc}", file=sys.stderr)
        return 2
    sink = _OutFile(args.out) if args.out else sys.stdout
    handler = COMMANDS[args.command][0]
    # Word lengths and deep cover numerators can pass Python's int->str limit
    # (4300 digits); lift it while the command runs, after argv and --config are parsed.
    int_digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if int_digits is not None:
        sys.set_int_max_str_digits(0)
    env_cap = os.environ.get("METALLIC_CAP")
    if args.cap is not None:  # the run's cap, which every check reads from the variable
        os.environ["METALLIC_CAP"] = str(args.cap)
    try:
        handler(args, sink)
        sink.flush()
    except (CapExceeded, MemoryError) as exc:  # a one-survivor spec passes every count cap
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a mean past the largest double, from gamma_float
        print(f"error: value past the double range: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (`metallic cover ... | head`). Point stdout
        # at devnull so the interpreter's final flush of what is still
        # buffered does not fail again (the SIGPIPE note in the Python docs),
        # and exit as a process killed by SIGPIPE would: 128 + 13.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        if args.out:
            sink.close()
        if int_digits is not None:
            sys.set_int_max_str_digits(int_digits)
        os.environ.pop("METALLIC_CAP", None)
        if env_cap is not None:
            os.environ["METALLIC_CAP"] = env_cap
    return 0


if __name__ == "__main__":
    sys.exit(main())
