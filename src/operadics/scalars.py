"""Scalar conventions shared across the package.

Two coefficient backends exist: exact (Python int / Fraction) and float
(IEEE double).  All sign bookkeeping uses the mathematical parity of the
exponent, so negative exponents are legal: (-1)**(-1) == -1.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError


def sign_pow(exponent: int) -> int:
    """(-1)**exponent for any integer exponent, as +1 or -1."""
    return 1 if exponent % 2 == 0 else -1


def parse_exact(text: str) -> Fraction:
    """Parse an exact scalar written as 'p' or 'p/q'."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad exact scalar {text!r}: {exc}") from None


def format_exact(value) -> str:
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def format_float(value: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    return f"{value:.17g}"
