"""Enumeration caps and the one check of a count against them (`check_cap`), precision
defaults and the optional mpmath import."""

import os
from math import log10

from .errors import CapExceeded, ValidationError

DEFAULT_CAP = 10_000_000
DEFAULT_BITS = 128
MIN_BITS = 53
RENDER_CAP = 10_000


def resolve_cap(explicit: int | None = None) -> int:
    """Effective enumeration cap: explicit value, else METALLIC_CAP, else the default.

    A negative cap is a ValidationError.
    """
    if explicit is None:
        explicit = int(os.environ.get("METALLIC_CAP", DEFAULT_CAP))
    if explicit < 0:
        raise ValidationError(f"cap must be >= 0, got {explicit}")
    return explicit


def format_count(base: int, power: int = 1) -> str:
    """The count base**power for an error message: in full below 10^30, else as ~10^x.

    A long count is never converted to a string whole, which past 4300 digits
    Python refuses to do, and which would print a line of thousands of digits.
    Nor is a power past 10^31 built: its x is power*log10(base).
    """
    size = power * log10(base)
    if size < 31 and (count := base**power) < 10**30:
        return str(count)
    return f"~10^{log10(count) if size < 31 else size:.1f}"


def check_cap(message: str, base: int, power: int = 1, cap: int | None = None) -> None:
    """CapExceeded(message.format(format_count(base, power), cap)) when base**power passes
    `resolve_cap(cap)`: a base of 2 or more passes it by the power (cap bit length + 1)."""
    limit = resolve_cap(cap)
    if base ** min(power, limit.bit_length() + 1) > limit:
        raise CapExceeded(message.format(format_count(base, power), limit))


def check_bits(bits: int) -> None:
    """ValidationError for a working precision below a double's 53 bits.

    `bits` is the floor of the root bracket's fraction bits, whose doubles are
    correctly rounded at any accepted value, or `hausdorff_sum`'s mpmath precision.
    """
    if bits < MIN_BITS:
        raise ValidationError(f"bits must be >= {MIN_BITS}, got {bits}")


def import_mpmath():
    """mpmath, or an ImportError whose one line names the extra that installs it."""
    try:
        import mpmath
    except ImportError:
        raise ImportError("mpmath is missing: pip install 'metallic-fractals[mpmath]'") from None
    return mpmath
