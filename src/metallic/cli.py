"""Command-line front end.

Subcommands: word, tiling, dim, cover, estimate, render, table. Data goes to
stdout (or --out), diagnostics to stderr. Exit codes: 0 success, 2 validation
error, 3 enumeration cap exceeded, 141 stdout closed by its reader. A
key=value config file can preset any flag of the chosen subcommand; explicit
flags win. METALLIC_CAP overrides the default enumeration cap.

The floats of tiling and cover rows are correctly rounded doubles of the
exact values, computed from integers (`quadfield.to_double`); --bits sets only
the mpmath precision of dim and estimate.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import lru_cache
from itertools import islice

from .dimension import cantor_similarity, dimension
from .errors import CapExceeded, ValidationError
from .estimate import box_dimension, empirical_dimension
from .fractal import FractalSpec, check_cover_cap, cover_summary, iter_cover_intervals
from .limits import DEFAULT_BITS
from .quadfield import MetallicParams, gamma_pow
from .render import MEAN_SYMBOLS, RenderPlan, render_construction, render_tiling_stack
from .substitution import iter_word_at_step, word_length
from .tiling import tiling_at_step

NAMED_MEANS = (
    ("golden", 1, 1),
    ("silver", 2, 1),
    ("bronze", 3, 1),
    ("copper", 1, 2),
    ("nickel", 1, 3),
)

COVER_COLUMNS = (
    "depth", "index", "kind_path",
    "start_c0_num", "start_c0_den", "start_c1_num", "start_c1_den",
    "start_float", "length_exponent", "length_float",
)


def _g17(x: float) -> str:
    return f"{x:.17g}"


@lru_cache(maxsize=1024)
def _length_float(params: MetallicParams, exponent: int) -> float:
    return float(gamma_pow(params, -exponent))


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
    parser = argparse.ArgumentParser(
        prog="metallic",
        description="Metallic-means tilings of [0,1], removal fractals, and their dimensions",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    w = subs.add_parser("word", help="print the step-n substitution word")
    _add_mean_flags(w)
    w.add_argument("--n", type=int, required=True, help="substitution step")
    w.add_argument("--max-letters", type=int, default=10000, dest="max_letters",
                   help="print at most this many letters")
    _add_common_flags(w)

    t = subs.add_parser("tiling", help="print the step-n tiling with exact endpoints")
    _add_mean_flags(t)
    t.add_argument("--n", type=int, required=True, help="substitution step")
    t.add_argument("--format", choices=("text", "csv"), default="text")
    _add_common_flags(t)

    d = subs.add_parser("dim", help="analytic dimension report (JSON)")
    _add_mean_flags(d)
    d.add_argument("--n", type=int, default=None, help="substitution step")
    _add_removal_flags(d)
    d.add_argument("--m", type=int, default=None,
                   help="generic self-similar mode: number of copies")
    d.add_argument("--r", type=float, default=None,
                   help="generic self-similar mode: scale factor")
    _add_common_flags(d)

    c = subs.add_parser("cover", help="stream the depth-k cover (CSV or JSON)")
    _add_mean_flags(c)
    c.add_argument("--n", type=int, required=True, help="substitution step")
    _add_removal_flags(c)
    c.add_argument("--depth", type=int, required=True, help="construction depth k")
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common_flags(c)

    e = subs.add_parser("estimate", help="numerical dimension estimates vs analytic (JSON)")
    _add_mean_flags(e)
    e.add_argument("--n", type=int, required=True, help="substitution step")
    _add_removal_flags(e)
    e.add_argument("--depth", type=int, default=4, help="cover depth for the sum estimator")
    _add_common_flags(e)

    r = subs.add_parser("render", help="emit an SVG or TikZ figure")
    r.add_argument("--mode", choices=("construction", "stack"), default="construction")
    _add_mean_flags(r)
    r.add_argument("--n", type=int, required=True,
                   help="substitution step (stack mode: top row)")
    _add_removal_flags(r)
    r.add_argument("--depth", type=int, default=3, help="construction rows to draw")
    r.add_argument("--format", choices=("svg", "tikz"), default="svg")
    _add_common_flags(r)

    tb = subs.add_parser("table", help="table of the named metallic means")
    tb.add_argument("--extra", action="append", default=[],
                    metavar="P,Q", help="append a (p,q) row; repeatable")
    _add_common_flags(tb)

    return parser


def _apply_config(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Expand --config FILE into flags inserted before the user's own flags."""
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        raise ValidationError("--config needs a file argument")
    path = argv[at + 1]
    rest = argv[:at] + argv[at + 2:]
    if not rest:
        raise ValidationError("--config requires a subcommand")
    command = rest[0]
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
                injected.extend([flag, value.strip()])
    return [command, *injected, *rest[1:]]


def cmd_word(args: argparse.Namespace, out: io.TextIOBase) -> None:
    params = MetallicParams(args.p, args.q)
    length = word_length(params, args.n)
    letters = iter_word_at_step(params, args.n)
    if length <= args.max_letters:
        out.write("".join(letters) + "\n")
    else:
        prefix = "".join(islice(letters, args.max_letters))
        out.write(prefix + "...\n")
        out.write(f"letters: {length}\n")


def _tiling_rows(args: argparse.Namespace):
    params = MetallicParams(args.p, args.q)
    tiling = tiling_at_step(params, args.n, cap=args.cap)
    for i, tile in enumerate(tiling.tiles):
        yield i, tile


def cmd_tiling(args: argparse.Namespace, out: io.TextIOBase) -> None:
    params = MetallicParams(args.p, args.q)
    if args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow((
            "index", "kind",
            "start_c0_num", "start_c0_den", "start_c1_num", "start_c1_den",
            "start_float", "length_exponent", "length_float",
        ))
        for i, tile in _tiling_rows(args):
            writer.writerow((
                i, tile.kind.value,
                tile.start.c0.numerator, tile.start.c0.denominator,
                tile.start.c1.numerator, tile.start.c1.denominator,
                _g17(float(tile.start)),
                tile.length_exponent,
                _g17(_length_float(params, tile.length_exponent)),
            ))
    else:
        symbol = MEAN_SYMBOLS.get((args.p, args.q), "γ")
        out.write(f"step-{args.n} tiling for p={args.p}, q={args.q}\n")
        for i, tile in _tiling_rows(args):
            start = float(tile.start)
            out.write(
                f"{i:4d}  {tile.kind.value}  start = {tile.start}  "
                f"≈ {start:.12f}  length = 1/{symbol}^{tile.length_exponent}\n"
            )


def cmd_dim(args: argparse.Namespace, out: io.TextIOBase) -> None:
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


def _cover_record(spec: FractalSpec, depth: int, index: int, iv) -> dict:
    return {
        "depth": depth,
        "index": index,
        "kind_path": iv.kind_path,
        "start_c0_num": iv.start.c0.numerator,
        "start_c0_den": iv.start.c0.denominator,
        "start_c1_num": iv.start.c1.numerator,
        "start_c1_den": iv.start.c1.denominator,
        "start_float": float(iv.start),
        "length_exponent": iv.length_exponent,
        "length_float": _length_float(spec.params, iv.length_exponent),
    }


def cmd_cover(args: argparse.Namespace, out: io.TextIOBase) -> None:
    spec = _make_spec(args)
    check_cover_cap(spec, args.depth, args.cap)
    intervals = iter_cover_intervals(spec, args.depth)
    if args.format == "json":
        out.write("[\n")
        for index, iv in enumerate(intervals):
            rec = _cover_record(spec, args.depth, index, iv)
            if index:
                out.write(",\n")
            out.write(json.dumps(rec))
        out.write("\n]\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COVER_COLUMNS)
    for index, iv in enumerate(intervals):
        rec = _cover_record(spec, args.depth, index, iv)
        writer.writerow(_g17(x) if isinstance(x, float) else x for x in rec.values())


def cmd_estimate(args: argparse.Namespace, out: io.TextIOBase) -> None:
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
    plan = RenderPlan(fmt=args.format)
    if args.mode == "stack":
        params = MetallicParams(args.p, args.q)
        out.write(render_tiling_stack(params, args.n, plan))
        return
    spec = _make_spec(args)
    out.write(render_construction(spec, args.depth, plan))


def cmd_table(args: argparse.Namespace, out: io.TextIOBase) -> None:
    rows = [(name, p, q) for name, p, q in NAMED_MEANS]
    for extra in args.extra:
        p_text, _, q_text = extra.partition(",")
        p, q = int(p_text), int(q_text)
        rows.append((f"({p},{q})", p, q))
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
    except (OSError, ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    if args.bits < 53:
        print(f"error: --bits must be >= 53, got {args.bits}", file=sys.stderr)
        return 2
    handler = DISPATCH[args.command]
    sink = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
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
