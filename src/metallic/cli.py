"""Command-line front end.

Subcommands: word, tiling, dim, cover, estimate, render, table. Data goes to
stdout (or --out), diagnostics to stderr. Exit codes: 0 success, 2 validation
error, 3 enumeration cap exceeded, 141 stdout closed by its reader. A
key=value config file can preset any flag of the chosen subcommand; explicit
flags win. METALLIC_CAP overrides the default enumeration cap.

Tiling and cover rows are one format string each, filled from the integers of
a start (u + v*gamma)/den: u/den and v/den in lowest terms and the correctly
rounded double (`quadfield.to_double`); the length fields are formatted once
per exponent. Rows are written ROWS_PER_WRITE at a time, one write per chunk,
and --out is opened at the first write. Only dim and estimate load mpmath;
--bits sets its precision. A command loads only what it runs: estimate and
render (and json, for dim and estimate) are imported by the commands that use
them.
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
from math import gcd

from .dimension import cantor_similarity, dimension
from .errors import CapExceeded, ValidationError
from .fractal import FractalSpec, check_cover_cap, cover_summary, iter_cover_intervals
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
# these names here; ROADMAP item H (a stats channel) retires them.
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
    return (u // g0, den // g0, v // g1, den // g1, to_double(tile.params, u, v, den),
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


def _add_mean_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, default=1, help="long-tile multiplicity (default 1)")
    sub.add_argument("--q", type=int, default=1, help="short-tile multiplicity (default 1)")


def _add_removal_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--remove-long", type=int, default=0, dest="remove_long",
                     help="long tiles removed per level")
    sub.add_argument("--remove-short", type=int, default=0, dest="remove_short",
                     help="short tiles removed per level")
    sub.add_argument("--policy", choices=("keep-first", "keep-last", "explicit"),
                     default="keep-first", help="which tiles to remove")
    sub.add_argument("--indices", default=None,
                     help="comma list of word positions to remove (explicit policy)")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=None, help="output file (default stdout)")
    sub.add_argument("--bits", type=int, default=DEFAULT_BITS,
                     help="mpmath precision of dim/estimate in bits, >= 53")
    sub.add_argument("--cap", type=int, default=None,
                     help="enumeration cap (default METALLIC_CAP or 10^7)")
    sub.add_argument("--config", default=None,
                     help="key=value file of flag defaults")


def build_parser() -> argparse.ArgumentParser:
    # argparse makes a formatter per add_argument; each would read the terminal size
    fmt = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="metallic",
        description="Metallic-means tilings of [0,1], removal fractals, and their dimensions",
        formatter_class=fmt,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    add_parser = partial(subs.add_parser, formatter_class=fmt)

    w = add_parser("word", help="print the step-n substitution word")
    _add_mean_flags(w)
    w.add_argument("--n", type=int, required=True, help="substitution step")
    w.add_argument("--max-letters", type=int, default=10000, dest="max_letters",
                   help="print at most this many letters")
    _add_common_flags(w)

    t = add_parser("tiling", help="print the step-n tiling with exact endpoints")
    _add_mean_flags(t)
    t.add_argument("--n", type=int, required=True, help="substitution step")
    t.add_argument("--format", choices=("text", "csv"), default="text")
    _add_common_flags(t)

    d = add_parser("dim", help="analytic dimension report (JSON)")
    _add_mean_flags(d)
    d.add_argument("--n", type=int, default=None, help="substitution step")
    _add_removal_flags(d)
    d.add_argument("--m", type=int, default=None,
                   help="generic self-similar mode: number of copies")
    d.add_argument("--r", type=float, default=None,
                   help="generic self-similar mode: scale factor")
    _add_common_flags(d)

    c = add_parser("cover", help="stream the depth-k cover (CSV or JSON)")
    _add_mean_flags(c)
    c.add_argument("--n", type=int, required=True, help="substitution step")
    _add_removal_flags(c)
    c.add_argument("--depth", type=int, required=True, help="construction depth k")
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common_flags(c)

    e = add_parser("estimate", help="numerical dimension estimates vs analytic (JSON)")
    _add_mean_flags(e)
    e.add_argument("--n", type=int, required=True, help="substitution step")
    _add_removal_flags(e)
    e.add_argument("--depth", type=int, default=4, help="cover depth for the sum estimator")
    _add_common_flags(e)

    r = add_parser("render", help="emit an SVG or TikZ figure")
    r.add_argument("--mode", choices=("construction", "stack"), default="construction")
    _add_mean_flags(r)
    r.add_argument("--n", type=int, required=True,
                   help="substitution step (stack mode: top row)")
    _add_removal_flags(r)
    r.add_argument("--depth", type=int, default=3, help="construction rows to draw")
    r.add_argument("--format", choices=("svg", "tikz"), default="svg")
    _add_common_flags(r)

    tb = add_parser("table", help="table of the named metallic means")
    tb.add_argument("--extra", action="append", default=[],
                    metavar="P,Q", help="append a (p,q) row; repeatable")
    _add_common_flags(tb)

    return parser


def _apply_config(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Expand --config FILE into flags inserted before the user's own flags.

    A parser holding only the flags every subcommand shares finds --config
    under each spelling a subcommand accepts (--config FILE, --config=FILE,
    abbreviations such as --conf), since it resolves prefixes among the same
    option strings; the full parse then checks the whole command line. Keys
    that are not exactly a flag of the subcommand are skipped, so one file
    can serve several subcommands.
    """
    if not argv or argv[0].startswith("-"):
        return argv  # no subcommand: argparse reports it
    finder = argparse.ArgumentParser(prog=f"{parser.prog} {argv[0]}", usage=argparse.SUPPRESS,
                                     add_help=False, exit_on_error=False,
                                     formatter_class=parser.formatter_class)
    _add_common_flags(finder)
    try:
        path = finder.parse_known_args(argv[1:])[0].config
    except argparse.ArgumentError:
        return argv  # e.g. --config with no file: argparse reports it
    if path is None:
        return argv
    command, rest = argv[0], argv[1:]
    subactions = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    if command not in subactions.choices:
        return argv  # let argparse report the unknown command itself
    known = subactions.choices[command]._option_string_actions
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
    return [command, *injected, *rest]


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
    tiles = tiling_at_step(params, args.n, cap=args.cap).tiles
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
        "residual": report.root_residual,
    }
    out.write(json.dumps(payload) + "\n")


def cmd_cover(args: argparse.Namespace, out: io.TextIOBase) -> None:
    spec = _make_spec(args)
    check_cover_cap(spec, args.depth, args.cap)
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
    analytic = dimension(spec, bits=args.bits).dim
    empirical = empirical_dimension(cover_summary(spec, args.depth), bits=args.bits)
    fit = box_dimension(spec, max(4, args.depth), cap=args.cap, bits=args.bits)
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
    from .render import RenderPlan
    plan = RenderPlan(fmt=args.format)
    if args.mode == "stack":
        params = MetallicParams(args.p, args.q)
        out.write(render_tiling_stack(params, args.n, plan))
        return
    spec = _make_spec(args)
    out.write(render_construction(spec, args.depth, plan))


def cmd_table(args: argparse.Namespace, out: io.TextIOBase) -> None:
    extras = [_parse_extra(text) for text in args.extra]
    rows = [*NAMED_MEANS, *((f"({e.p},{e.q})", e.p, e.q) for e in extras)]
    out.write(f"{'name':<10} {'p':>3} {'q':>3}  {'symbol':<6} {'value':<14}\n")
    for name, p, q in rows:
        params = MetallicParams(p, q)
        symbol = MEAN_SYMBOLS.get((p, q), "γ")
        out.write(f"{name:<10} {p:>3} {q:>3}  {symbol:<6} {params.gamma_float:.10f}\n")


DISPATCH = {
    "word": cmd_word,
    "tiling": cmd_tiling,
    "dim": cmd_dim,
    "cover": cmd_cover,
    "estimate": cmd_estimate,
    "render": cmd_render,
    "table": cmd_table,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv, parser)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    # shared settings, checked before any output; each error names its setting
    setting = "--"
    try:
        check_bits(args.bits)
        if args.cap is not None:
            resolve_cap(args.cap)
        setting = "METALLIC_CAP: "
        args.cap = resolve_cap(args.cap)  # without --cap, the variable is read here, once
    except (ValidationError, ValueError) as exc:
        print(f"error: {setting}{exc}", file=sys.stderr)
        return 2
    sink = _OutFile(args.out) if args.out else sys.stdout
    handler = DISPATCH[args.command]
    try:
        handler(args, sink)
        sink.flush()
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
