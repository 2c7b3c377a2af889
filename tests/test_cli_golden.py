"""Byte-for-byte guard on CLI output.

The digests were taken from the output of the recursive QuadElement walkers
that the integer tree walker replaced, and (the stack, silver construction and
tiling text/(1,3) entries) from the mpmath float conversion that the isqrt
kernel replaced, and (the q > 1 covers and the keep-last and explicit
policies) from the Fraction-built rows and csv/json writers that the
integer-backed rows replaced: they cover the gcd reduction of u/q^(n*k) and
v/q^(n*k), negative numerators and the rational mean gamma = 2 of (1, 2). The
dim and estimate digests were taken while the cover-sum exponent still had its
own root of the degree-n*k cover polynomial. Any change to a row, a float digit
or a figure coordinate changes them.
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
SPEC_1310 = ["--p", "1", "--q", "3", "--n", "3", "--remove-long", "1"]
SPEC_1210 = ["--p", "1", "--q", "2", "--n", "3", "--remove-long", "1"]
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
    "cover_1310_d5_csv": (["cover", *SPEC_1310, "--depth", "5"],
     668101, "f1f932437eb066aaf0a64c60302682b993f092dc14732ec38ca856c26a04bd8d"),
    "cover_1310_d5_json": (["cover", *SPEC_1310, "--depth", "5", "--format", "json"],
     1895498, "ee21f9d386271aaa15a593ae6b0a9043acfba6b0b61d6574bf8e148be32fd811"),
    "cover_1210_d5_csv": (["cover", *SPEC_1210, "--depth", "5"],
     65470, "d0b47defca70ad16c5aaa6b35fffac0989a52202d7481f7d89ae753f8a65550b"),
    "cover_1210_d5_json": (["cover", *SPEC_1210, "--depth", "5", "--format", "json"],
     228176, "bf98318ebcc9486fd296e78e522e836c8f322a9450b0ea468024615e28ad283c"),
    "cover_411_keep_last_d5_csv": (["cover", *SPEC_411, "--policy", "keep-last", "--depth", "5"],
     17460, "ce75608ed72e8d574a5f7d1f40a5475e2f230ebb142a37d8190791b5980edf1c"),
    "cover_2311_explicit_d3_json": (["cover", "--p", "2", "--q", "3", "--n", "3",
                                     "--remove-long", "1", "--remove-short", "1",
                                     "--policy", "explicit", "--indices", "2,6",
                                     "--depth", "3", "--format", "json"],
     308382, "1b812e893702eb4e30c872ee2d8871756229f34e68a13ace551bb2321eda15b1"),
    "dim_411": (["dim", *SPEC_411],
     213, "0fa766f00df2e2d1357343f52eedfb1f4e979dc2db43f817b4a2697084e28be6"),
    "dim_411_bits53": (["dim", *SPEC_411, "--bits", "53"],
     212, "2334effb3091da4bd9ebf83a524f342e4a94815dc912717361766cd8770a570c"),
    "dim_411_bits1000": (["dim", *SPEC_411, "--bits", "1000"],
     214, "8d8c40a39ddcc670e7fc7ce1c49997332ad66c8e72c608876d2a1703269826fc"),
    "dim_23521": (["dim", "--p", "2", "--q", "3", "--n", "5", "--remove-long", "2",
                   "--remove-short", "1"],
     202, "af5cc5f983b97933cb65230cd4f8aa6ec335d04f66a0118f9c448d21010add31"),
    "estimate_411_d4": (["estimate", *SPEC_411, "--depth", "4"],
     180, "a16eeef9d8d89f8129eb5407506a30267fd4b1d2cd4bf0989de733dae74c5a84"),
    "estimate_3211_explicit_d5": (["estimate", "--p", "3", "--n", "2", "--remove-long", "1",
                                   "--remove-short", "1", "--policy", "explicit",
                                   "--indices", "1,3", "--depth", "5"],
     180, "4dc386826f824a3e2eab5280049ffaf3667a987d8c212ee83420951f943931ea"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_output_bytes_unchanged(case):
    argv, size, digest = GOLDEN[case]
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    data = buf.getvalue().encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)
