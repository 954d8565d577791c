"""Small shared helpers: bitmask iteration, exact rationals, integer text
rows, canonical JSON."""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import FormatError, ValidationError


def bits(mask: int):
    """Yield the indices of set bits of ``mask`` in ascending order.

    For cold paths.  Opening a generator and resuming it per bit costs more
    than the loop body of a hot search, so the embedder, the packing search,
    seeded systems and bad-pair counts pop the lowest bit off the mask
    inline instead: ``low = m & -m; m ^= low``.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def int_rows(text: str, what: str, width: int = None, sep: str = None) -> list:
    """One tuple of ints per line of ``text``; blank and '#' lines are skipped.

    Tokens are separated by whitespace, and by ``sep`` too when given.  A
    non-integer token, an empty ``sep`` field, or a row whose length is
    not ``width`` when one is given, raises FormatError quoting the line.
    """
    rows = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln[0] == "#":
            continue
        try:
            if sep and not all(map(str.strip, ln.split(sep))):
                raise ValueError
            row = tuple(map(int, (ln.replace(sep, " ") if sep else ln).split()))
            if width is not None and len(row) != width:
                raise ValueError
        except ValueError:
            raise FormatError(f"bad {what} line {ln!r}") from None
        rows.append(row)
    return rows


def rational(value, name: str) -> Fraction:
    """A user-given rational parameter as an exact Fraction.

    Fractions, ints and strings such as "3/10" are read exactly.  A float
    is refused with a ValidationError naming the parameter: it would be
    read at its binary value, and ``floor(Fraction(0.3) * 10)`` is 2, not 3.
    """
    if isinstance(value, float):
        raise ValidationError(f"{name} {value!r} is a float and would be read at its binary "
                              "value; give a Fraction, an int or a string such as \"3/10\"")
    return Fraction(value)


def format_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, compact separators, trailing newline.

    Every report the package emits goes through here so that identical
    inputs produce byte-identical output regardless of dict build order.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"
