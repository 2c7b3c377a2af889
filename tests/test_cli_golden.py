"""Byte-for-byte guard on CLI output.

The digests were taken from the output of the recursive QuadElement walkers
that the integer tree walker replaced, and (the stack, silver construction and
tiling text/(1,3) entries) from the mpmath float conversion that the isqrt
kernel replaced; any change to a row, a float digit or a figure coordinate
changes them.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from metallic.cli import main

SPEC_301 = ["--p", "1", "--q", "1", "--n", "3", "--remove-short", "1"]
SPEC_212 = ["--p", "2", "--q", "1", "--n", "2", "--remove-short", "1"]
SPEC_411 = ["--p", "1", "--q", "1", "--n", "4", "--remove-long", "1", "--remove-short", "1"]
SPEC_21210 = ["--p", "2", "--q", "1", "--n", "2", "--remove-long", "1"]
STACK_216 = ["render", "--mode", "stack", "--p", "2", "--q", "1", "--n", "6"]

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
    "render_stack_216_svg": (STACK_216,
     60421, "364dee3e1a339e89083a71a9b71a23029ef15a1682c8644dcd5b9ff93409f2f3"),
    "render_stack_216_tikz": ([*STACK_216, "--format", "tikz"],
     33891, "e45167ae69148b9ed78bd35b72cde5cdf33783d9b603c77959bc68b7ae743f6d"),
    "render_21210_d5_tikz": (["render", *SPEC_21210, "--depth", "5", "--format", "tikz"],
     13560, "0b06ba8fdeed84c37fd9733eb028cf1ebf229b06ee4e03e50854921c10ec2d5c"),
    "tiling_118_text": (["tiling", "--p", "1", "--q", "1", "--n", "8"],
     2341, "822dd98af562cd3228bd74a1d4dbbd2a403621d056f68a006fb6303c31784b2d"),
    "tiling_136_csv": (["tiling", "--p", "1", "--q", "3", "--n", "6", "--format", "csv"],
     6165, "cbe056f5e1e388ea69be9336fd9bbf298f472b99c5589622b6cd6374873a7dc9"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_output_bytes_unchanged(case):
    argv, size, digest = GOLDEN[case]
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    data = buf.getvalue().encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)
