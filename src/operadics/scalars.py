"""Scalar conventions shared across the package, and the input-file policy.

Two coefficient backends exist: exact (Python int / Fraction) and float
(IEEE double).  All sign bookkeeping uses the mathematical parity of the
exponent, so negative exponents are legal: (-1)**(-1) == -1.

Every input file (algebra, Lax system, initial operation) is read here:
read_json makes each way a file fails to be JSON a ParseError, fields and
positive_int read its keys, and op_values reads an operation's coefficient
list with a scalar reader (exact_scalar or finite), bounded by SIZE_CAP.
An error names the offending value by its reprlib.repr, which cuts a long
value down to a few dozen characters.
"""

from __future__ import annotations

import json
import math
import re
import reprlib
from fractions import Fraction
from pathlib import Path

from .errors import ParseError, SizeCapError
from .multiop import ENDO, SIZE_CAP, _checked_size


def sign_pow(exponent: int) -> int:
    """(-1)**exponent for any integer exponent, as +1 or -1."""
    return 1 if exponent % 2 == 0 else -1


def parse_exact(text: str) -> Fraction:
    """Parse an exact scalar as Fraction does: 'p', 'p/q' or a decimal such
    as '-1.25e3'.  An exponent over 4300 in magnitude, the longest integer
    Python reads from digits, is an error before its power is expanded."""
    try:
        if "e" in text.lower():
            exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
            if exponent and abs(int(exponent[1])) > 4300:
                raise ValueError("exponent over 4300 in magnitude")
        return Fraction(text.strip())
    except ZeroDivisionError:
        reason = "zero denominator"
    except ValueError as exc:
        reason = str(exc).partition(":")[0]  # Fraction's message repeats the text
    raise ParseError(f"bad exact scalar {reprlib.repr(text)}: {reason}")


def read_json(path):
    """The JSON document in the UTF-8 file at path.  A file that cannot be
    read, bytes that are not UTF-8, invalid JSON, an integer literal over
    4300 digits and nesting past the recursion limit are all ParseErrors."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None


def fields(doc, what: str, *keys: str) -> list:
    """The values of keys in the JSON object doc, the input named what."""
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    for key in keys:
        if key not in doc:
            raise ParseError(f"{what} is missing key '{key}'")
    return [doc[key] for key in keys]


def positive_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ParseError(f"{what} must be a positive integer")
    return value


def op_values(raw, dim: int, degree: int, what: str, scalar) -> list:
    """The dim**(degree + 1) coefficients of an operation listed in raw, each
    read by scalar(value, what).  The count is bounded by multiop's size rule
    before it is computed or printed."""
    try:
        size = _checked_size(dim, degree, ENDO)
    except SizeCapError:
        raise ParseError(f"{what} needs more than {SIZE_CAP} coefficients") from None
    if not isinstance(raw, list) or len(raw) != size:
        raise ParseError(f"{what} must list {size} coefficients")
    return [scalar(value, what) for value in raw]


def exact_scalar(value, what: str):
    """A JSON int or an exact scalar string (parse_exact)."""
    if isinstance(value, str):
        return parse_exact(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what}: exact scalar expected, got {reprlib.repr(value)}")
    return value


def finite(value, what: str) -> float:
    """A JSON number as a finite float; NaN, infinities and overflow are errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{what}: {reprlib.repr(value)} is not a number")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ParseError(f"{what}: {out} is not finite")
    return out
