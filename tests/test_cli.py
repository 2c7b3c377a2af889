"""End-to-end CLI behaviour: output formats, exit codes, config handling."""

import argparse
import csv
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from metallic import MetallicParams, QuadElement, cantor_similarity, word_at_step, word_length
from metallic.cli import build_parser, main

GOLDEN = MetallicParams(1, 1)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_word_examples():
    assert run_cli("word", "--p", "1", "--q", "1", "--n", "4") == (0, "abaab\n")
    assert run_cli("word", "--p", "2", "--q", "1", "--n", "3") == (0, "aabaaba\n")
    assert run_cli("word", "--p", "1", "--q", "1", "--n", "0") == (0, "b\n")


def test_word_truncation_marker():
    code, out = run_cli("word", "--p", "1", "--q", "1", "--n", "12", "--max-letters", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "abaababaab..."
    assert lines[1] == "letters: 233"


def test_dim_json_fields_and_values():
    code, out = run_cli("dim", "--p", "1", "--q", "1", "--n", "4",
                        "--remove-long", "1", "--remove-short", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["poly"] == "x^4 - 2x - 1"
    assert payload["Na_prime"] == 2 and payload["Nb_prime"] == 1
    assert abs(payload["root"] - 1.3953369944670730) < 1e-12
    assert abs(payload["dim"] - 0.6922854797939778) < 1e-12
    assert abs(payload["gamma"] - 1.618033988749895) < 1e-12
    assert payload["residual"] <= 1e-12
    assert {"p", "q", "n", "l", "s"} <= payload.keys()


def test_dim_generic_cantor_mode():
    code, out = run_cli("dim", "--m", "2", "--r", "3")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["dim"] - 0.6309297535714574) < 1e-12


def test_dim_no_removal_unit_dimension():
    code, out = run_cli("dim", "--p", "1", "--q", "1", "--n", "3")
    assert code == 0
    assert abs(json.loads(out)["dim"] - 1.0) <= 1e-12


def test_cover_csv_depth0():
    code, out = run_cli("cover", "--p", "1", "--q", "1", "--n", "3",
                        "--remove-short", "1", "--depth", "0")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    row = rows[0]
    assert row["depth"] == "0" and row["kind_path"] == ""
    assert row["start_c0_num"] == "0" and row["length_exponent"] == "0"


def test_cover_csv_301_depth1():
    code, out = run_cli("cover", "--p", "1", "--q", "1", "--n", "3",
                        "--remove-short", "1", "--depth", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert [r["length_exponent"] for r in rows] == ["2", "2"]


def test_cover_csv_411_depth2_multiset():
    code, out = run_cli("cover", "--p", "1", "--q", "1", "--n", "4",
                        "--remove-long", "1", "--remove-short", "1", "--depth", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert sorted(r["length_exponent"] for r in rows) == \
        ["6", "6", "6", "6", "7", "7", "7", "7", "8"]
    assert [r["index"] for r in rows] == [str(i) for i in range(9)]


def test_cover_csv_roundtrip_floats():
    params = MetallicParams(2, 1)
    code, out = run_cli("cover", "--p", "2", "--q", "1", "--n", "2",
                        "--remove-long", "1", "--depth", "3")
    assert code == 0
    for row in csv.DictReader(io.StringIO(out)):
        start = QuadElement(
            Fraction(int(row["start_c0_num"]), int(row["start_c0_den"])),
            Fraction(int(row["start_c1_num"]), int(row["start_c1_den"])),
            params,
        )
        assert f"{float(start.to_mpf(128)):.17g}" == row["start_float"]


def test_cover_json_format():
    code, out = run_cli("cover", "--p", "1", "--q", "1", "--n", "3",
                        "--remove-short", "1", "--depth", "2", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 4
    assert all(rec["length_exponent"] == 4 for rec in records)
    assert records[0]["kind_path"] == "aa"


def test_estimate_json():
    code, out = run_cli("estimate", "--p", "2", "--q", "1", "--n", "2",
                        "--remove-long", "1", "--depth", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 4
    assert payload["abs_error_empirical"] <= 1e-9
    assert abs(payload["analytic_dim"] - 0.545979403225449) < 1e-12
    assert abs(payload["box_dim"] - payload["analytic_dim"]) < 0.1
    assert payload["abs_error_box"] == abs(payload["box_dim"] - payload["analytic_dim"])


def test_tiling_text_and_csv():
    code, out = run_cli("tiling", "--p", "2", "--q", "1", "--n", "2")
    assert code == 0
    assert "aab"[0] in out and "length" in out
    code, out = run_cli("tiling", "--p", "2", "--q", "1", "--n", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["kind"] for r in rows] == ["a", "a", "b"]
    assert [r["length_exponent"] for r in rows] == ["1", "1", "2"]


def test_render_to_file(tmp_path):
    out_path = tmp_path / "figure.svg"
    code, _ = run_cli("render", "--p", "1", "--q", "1", "--n", "3",
                      "--remove-short", "1", "--depth", "3", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("<?xml") and text.rstrip().endswith("</svg>")


def test_render_stack_tikz():
    code, out = run_cli("render", "--mode", "stack", "--p", "2", "--q", "1",
                        "--n", "2", "--format", "tikz")
    assert code == 0
    assert out.startswith(r"\begin{tikzpicture}")


def test_table_values():
    code, out = run_cli("table", "--extra", "3,2")
    assert code == 0
    values = {}
    for line in out.splitlines()[1:]:
        parts = line.split()
        values[parts[0]] = float(parts[-1])
    assert abs(values["golden"] - 1.6180339887) <= 1e-9
    assert abs(values["silver"] - 2.4142135624) <= 1e-9
    assert abs(values["bronze"] - 3.3027756377) <= 1e-9
    assert values["copper"] == 2.0
    assert abs(values["nickel"] - 2.3027756377) <= 1e-9
    assert abs(values["(3,2)"] - 3.5615528128) <= 1e-9


def test_exit_code_validation_error(capsys):
    code = main(["dim", "--p", "1", "--q", "1", "--n", "3", "--remove-long", "5"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_exit_code_cap_exceeded(capsys):
    code = main(["tiling", "--p", "1", "--q", "1", "--n", "20", "--cap", "10"])
    assert code == 3
    assert "error" in capsys.readouterr().err


class _NoOutput(io.StringIO):
    def write(self, text):
        raise AssertionError(f"wrote {text!r} before the argument checks")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cover_errors_before_first_row(fmt, monkeypatch, capsys):
    argv = ["cover", "--p", "1", "--q", "1", "--n", "3", "--remove-short", "1",
            "--format", fmt]
    with redirect_stdout(_NoOutput()):
        assert main([*argv, "--depth", "40", "--cap", "100"]) == 3
        assert main([*argv, "--depth", "-1"]) == 2
        monkeypatch.setenv("METALLIC_CAP", "100")
        assert main([*argv, "--depth", "40"]) == 3
    assert "cap" in capsys.readouterr().err


def test_negative_cap_is_validation_error(monkeypatch, capsys):
    assert main(["tiling", "--p", "1", "--q", "1", "--n", "3", "--cap", "-1"]) == 2
    assert main(["cover", "--p", "1", "--q", "1", "--n", "3", "--depth", "1",
                 "--cap", "-1"]) == 2
    monkeypatch.setenv("METALLIC_CAP", "-1")
    assert main(["tiling", "--p", "1", "--q", "1", "--n", "3"]) == 2
    assert "cap must be >= 0" in capsys.readouterr().err


def test_out_in_missing_directory_is_validation_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.csv"
    assert main([*SUBCOMMAND_ARGV["cover"], "--out", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out: ") and str(missing) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["cover", "--n", "1", "--depth", "2"],
    ["tiling", "--n", "20", "--cap", "10"],
    ["render", "--n", "3", "--remove-long", "5"],
])
def test_rejected_command_leaves_out_file(argv, tmp_path, capsys):
    keep = tmp_path / "keep.txt"
    keep.write_bytes(b"precious\n")
    assert main([*argv, "--out", str(keep)]) in (2, 3)
    assert keep.read_bytes() == b"precious\n"
    assert capsys.readouterr().err.count("\n") == 1
    assert main([*SUBCOMMAND_ARGV[argv[0]], "--out", str(keep)]) == 0
    assert keep.read_text() == run_cli(*SUBCOMMAND_ARGV[argv[0]])[1] != "precious\n"


@pytest.mark.parametrize("r", ["nan", "inf", "-inf"])
def test_non_finite_scale_factor_rejected(r, capsys):
    with pytest.raises(ValueError, match="scale factor"):
        cantor_similarity(2, float(r))
    with redirect_stdout(_NoOutput()):
        assert main(["dim", "--m", "2", f"--r={r}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scale factor") and err.count("\n") == 1


class _WriteCounter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("argv", [
    ["cover", "--p", "2", "--q", "1", "--n", "2", "--remove-short", "1", "--depth", "13"],
    ["cover", "--p", "2", "--q", "1", "--n", "2", "--remove-short", "1", "--depth", "13",
     "--format", "json"],
    ["tiling", "--p", "1", "--q", "3", "--n", "12", "--format", "csv"],
    ["tiling", "--p", "1", "--q", "3", "--n", "12"],
])
def test_rows_written_in_chunks(argv):
    sink = _WriteCounter()
    with redirect_stdout(sink):
        assert main(argv) == 0
    rows = sink.getvalue().count("\n")
    assert rows > 8000
    assert sink.writes <= rows / 256 + 4


@pytest.mark.parametrize("argv, message", [
    (["table", "--extra", "0,1"], "error: --extra takes P,Q with integers P, Q >= 1, got '0,1'\n"),
    (["table", "--extra", "1"], "error: --extra takes P,Q with integers P, Q >= 1, got '1'\n"),
    (["table", "--extra", "2,3", "--extra", "3,x"],
     "error: --extra takes P,Q with integers P, Q >= 1, got '3,x'\n"),
    (["word", "--n", "5", "--max-letters", "-1"], "error: --max-letters must be >= 0, got -1\n"),
])
def test_bad_arguments_rejected_before_output(argv, message, capsys):
    with redirect_stdout(_NoOutput()):
        assert main(argv) == 2
    assert capsys.readouterr().err == message


def test_word_deep_step_streams():
    code, out = run_cli("word", "--p", "1", "--q", "1", "--n", "1500", "--max-letters", "40")
    assert code == 0
    lines = out.splitlines()
    # every golden step word is a prefix of the next one
    assert lines[0] == word_at_step(GOLDEN, 12)[:40] + "..."
    assert lines[1] == f"letters: {word_length(GOLDEN, 1500)}"


def test_argparse_rejects_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        main(["word", "--nonsense", "1"])
    assert exc.value.code == 2


def test_metallic_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("METALLIC_CAP", "10")
    code = main(["tiling", "--p", "1", "--q", "1", "--n", "20"])
    assert code == 3
    capsys.readouterr()


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# silver defaults\np=2\nq=1\nn=3\n")
    code, out = run_cli("word", "--config", str(cfg))
    assert (code, out) == (0, "aabaaba\n")
    # explicit flags win over the config file
    code, out = run_cli("word", "--config", str(cfg), "--n", "2")
    assert (code, out) == (0, "aab\n")


@pytest.mark.parametrize("spelling", [
    ["--config", "{cfg}"], ["--config={cfg}"], ["--conf", "{cfg}"], ["--conf={cfg}"],
])
def test_config_file_any_spelling(tmp_path, spelling):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=2\nn=4\n")
    flags = [part.format(cfg=cfg) for part in spelling]
    assert run_cli("word", *flags) == (0, word_at_step(MetallicParams(2, 1), 4) + "\n")
    # after an explicit flag too, which still wins
    assert run_cli("word", "--n", "3", *flags) == (0, "aabaaba\n")


def test_config_keys_of_other_subcommands_skipped(tmp_path):
    # dim's --m and --r must not reach word's --max-letters by abbreviation
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=4\nm=2\nr=3\ndepth=5\n")
    assert run_cli("word", "--config", str(cfg)) == (0, "abaab\n")


def test_console_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "metallic.cli", "word", "--p", "1", "--q", "1", "--n", "3"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "aba\n"


SRC = str(Path(__file__).resolve().parent.parent / "src")
# the environment of a child python that imports this checkout's package first
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def cli_process(*argv, **kwargs):
    """Start `python -m metallic.cli argv` with this checkout's package first on the path."""
    return subprocess.Popen([sys.executable, "-m", "metallic.cli", *argv], env=CHILD_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            **kwargs)


SUBCOMMAND_ARGV = {
    "word": ["word", "--n", "3"],
    "tiling": ["tiling", "--n", "3"],
    "dim": ["dim", "--n", "4", "--remove-long", "1", "--remove-short", "1"],
    "cover": ["cover", "--n", "3", "--remove-short", "1", "--depth", "2"],
    # the cover-sum bisection never closed its interval at 10 bits
    "estimate": ["estimate", "--n", "4", "--remove-long", "1", "--remove-short", "1"],
    "render": ["render", "--n", "3", "--remove-short", "1"],
    "table": ["table"],
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
def test_bits_below_53_rejected(command):
    proc = cli_process(*SUBCOMMAND_ARGV[command], "--bits", "10")
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 2
    assert out == ""
    assert err == "error: --bits must be >= 53, got 10\n"


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
@pytest.mark.parametrize("value", ["-1", "ten"])
def test_bad_metallic_cap_rejected_by_every_subcommand(command, value):
    result = subprocess.run([sys.executable, "-m", "metallic.cli", *SUBCOMMAND_ARGV[command]],
                            env={**CHILD_ENV, "METALLIC_CAP": value},
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: METALLIC_CAP: ")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
def test_negative_cap_rejected_by_every_subcommand(command, capsys):
    with redirect_stdout(_NoOutput()):
        assert main([*SUBCOMMAND_ARGV[command], "--cap", "-1"]) == 2
    assert capsys.readouterr().err == "error: --cap must be >= 0, got -1\n"


def test_cli_import_leaves_out_numpy():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, metallic.cli; print('numpy' in sys.modules)"],
        env=CHILD_ENV, capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout) == (0, "False\n")


def test_cli_leaves_out_mpmath_unless_dim_or_estimate_runs():
    script = """
import contextlib, io, sys
import metallic
print(sorted({{'metallic.fractal', 'dataclasses'}} & set(sys.modules)))
import metallic.cli
print('mpmath' in sys.modules)
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert metallic.cli.main(argv) == 0, argv
print('mpmath' in sys.modules)
print(sorted(set({unused!r}) & set(sys.modules)))
for argv in {renders!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert metallic.cli.main(argv) == 0, argv
print('mpmath' in sys.modules)
print(sorted(set({unused!r}) & set(sys.modules)))
"""
    argvs = [SUBCOMMAND_ARGV[c] for c in ("word", "tiling", "cover", "table")]
    argvs += [["tiling", "--n", "3", "--format", "csv"],
              ["cover", "--n", "3", "--remove-short", "1", "--depth", "2", "--format", "json"]]
    unused = ["dataclasses", "inspect", "json", "statistics", "metallic.estimate",
              "metallic.render"]
    renders = [SUBCOMMAND_ARGV["render"],
               ["render", "--mode", "stack", "--n", "3", "--format", "tikz"]]
    result = subprocess.run([sys.executable, "-c", script.format(
                                argvs=argvs, unused=unused, renders=renders)],
                            env=CHILD_ENV, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "[]\nFalse\nFalse\n[]\nFalse\n['metallic.render']\n"


def test_cover_past_the_fixed_point_bracket():
    # the one depth-900 interval is [1 - gamma^-1800, 1]: its start rounds to 1 and its
    # length underflows, where the fixed-point float bracket overflowed
    code, out = run_cli("cover", "--n", "2", "--remove-long", "1", "--depth", "900")
    assert code == 0
    (row,) = list(csv.DictReader(io.StringIO(out)))
    assert (row["start_float"], row["length_exponent"], row["length_float"]) == ("1", "1800", "0")


def test_parser_reads_terminal_size_once(monkeypatch):
    calls = []
    real = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or real(*a))
    build_parser()
    assert len(calls) == 1


@pytest.mark.parametrize("columns", ["60", "120"])
@pytest.mark.parametrize("argv", [["--help"], ["cover", "--help"]])
def test_help_matches_default_formatter(monkeypatch, columns, argv):
    monkeypatch.setenv("COLUMNS", columns)

    def help_text(parser):
        buf = io.StringIO()
        with redirect_stdout(buf), pytest.raises(SystemExit):
            parser.parse_args(argv)
        return buf.getvalue()

    default = build_parser()
    (subs,) = default._subparsers._group_actions
    for parser in (default, *subs.choices.values()):
        parser.formatter_class = argparse.HelpFormatter  # reads the terminal size each time
    text = help_text(build_parser())
    assert text == help_text(default)


@pytest.mark.parametrize("params, argv, expected", [
    # one short survivor per level: the single depth-k row is gamma^-(n*k) long
    (MetallicParams(1, 3), ["--n", "3", "--remove-long", "4", "--remove-short", "2",
                            "--depth", "11"], "1.1109546628391328e-12"),  # exponent 33
    (GOLDEN, ["--n", "2", "--remove-long", "1", "--depth", "43"], "1.0642972463423692e-18"),
    (GOLDEN, ["--n", "2", "--remove-long", "1", "--depth", "58"], "5.7204965893146709e-25"),
])
@pytest.mark.parametrize("bits", ["53", "128"])
def test_cover_floats_correctly_rounded_at_any_bits(params, argv, expected, bits):
    code, out = run_cli("cover", "--p", str(params.p), "--q", str(params.q), *argv,
                        "--bits", bits)
    assert code == 0
    (row,) = list(csv.DictReader(io.StringIO(out)))
    assert row["length_float"] == expected
    start = QuadElement(Fraction(int(row["start_c0_num"]), int(row["start_c0_den"])),
                        Fraction(int(row["start_c1_num"]), int(row["start_c1_den"])), params)
    assert float(row["start_float"]) == float(start) != 0.0


@pytest.mark.parametrize("argv", [
    ["cover", "--n", "3", "--remove-short", "1", "--depth", "12"],
    ["cover", "--n", "3", "--remove-short", "1", "--depth", "12", "--format", "json"],
    ["tiling", "--n", "20"],
])
def test_closed_pipe_exits_quietly(argv):
    proc = cli_process(*argv)
    try:
        head = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()  # the reader goes away, as `| head -3` does
        err = proc.stderr.read()
        proc.wait(timeout=60)
    finally:
        proc.kill()
    assert all(head)
    assert proc.returncode == 141
    assert err == ""
