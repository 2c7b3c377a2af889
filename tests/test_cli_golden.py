"""Byte-for-byte guard on CLI output.

The digests were taken from the output of the recursive QuadElement walkers
that the integer tree walker replaced; any change to a row, a float digit or
a figure coordinate changes them.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from metallic.cli import main

SPEC_301 = ["--p", "1", "--q", "1", "--n", "3", "--remove-short", "1"]
SPEC_212 = ["--p", "2", "--q", "1", "--n", "2", "--remove-short", "1"]
SPEC_411 = ["--p", "1", "--q", "1", "--n", "4", "--remove-long", "1", "--remove-short", "1"]

GOLDEN = {
    "cover_301_d8_csv": (["cover", *SPEC_301, "--depth", "8"],
     18979, "ae6b5ae91d83962cc53e5b20859a87ba6c7a9f9b9e531b009ecf905bcf698b45"),
    "cover_301_d8_json": (["cover", *SPEC_301, "--depth", "8", "--format", "json"],
     59130, "465c7e73ebbfc8d97e1615e143ec62cbe25c02737d21eb0b28ada941027fc011"),
    "cover_212_d10_csv": (["cover", *SPEC_212, "--depth", "10"],
     80244, "e92fa30b3ea3ddcaa8484888b7f32b42619134b0c1946850ece0e7680b71ec92"),
    "cover_212_d10_json": (["cover", *SPEC_212, "--depth", "10", "--format", "json"],
     241289, "3f6ebbaeaa57d235a555f5d03068563f2d155c1755eced0aac1df90e79e61491"),
    "render_411_d4_svg": (["render", *SPEC_411, "--depth", "4"],
     39981, "44bfe65776ed9baa55c98bb298b70b666354cc380e1de44dec779d638afd48ac"),
    "render_411_d4_tikz": (["render", *SPEC_411, "--depth", "4", "--format", "tikz"],
     21915, "ac29cae5e314f85f7e7e5e1b7b7caae184507c63dbe9b8feedd0c74bbc106ef1"),
    "tiling_118_csv": (["tiling", "--p", "1", "--q", "1", "--n", "8", "--format", "csv"],
     2051, "932b658a8c3504228ab545df770177c163d42fe6908a5052813b11020617ecad"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_output_bytes_unchanged(case):
    argv, size, digest = GOLDEN[case]
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    data = buf.getvalue().encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)
