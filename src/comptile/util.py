"""Small shared helpers: the result-record base, bitmask iteration, exact
rationals, integer text rows, canonical JSON."""

from __future__ import annotations

import json
from fractions import Fraction
from operator import attrgetter

from .errors import FormatError, ValidationError


class Record:
    """Base of the package's result records: plain classes with
    ``__slots__`` and a hand-written ``__init__``.

    ``_fields`` names the value: two records are equal when they are of
    the same class with equal fields, and ``repr`` shows the fields as
    ``Name(field=value, ...)``, less those in ``_unshown``.  Slots not in
    ``_fields`` (caches, derived lookups) are neither compared nor shown.
    A mutable record is unhashable.  Not dataclasses: generating their
    methods cost about 15 ms of every cold import.
    """

    __slots__ = ()
    _fields = ()
    _unshown = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            # reads the fields in one call: the tuple, or a one-field record's value
            cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields
                          if f not in self._unshown)
        return f"{self.__class__.__qualname__}({shown})"


class FrozenRecord(Record):
    """A Record that refuses assignment and deletion, and hashes its fields;
    its ``__init__`` sets the slots through ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, _):
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, since the slots refuse setattr
        return self.__class__, tuple(getattr(self, f) for f in self._fields)


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
