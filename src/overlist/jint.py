"""Fixed-width signed two's-complement integers with Java ``int`` semantics.

The width is parametric (8, 16 or 32 bits) so that behaviors needing
2**31 elements on a real JVM show up with at most a few hundred. Values
are plain Python integers normalized into the signed range by ``wrap``,
which makes the mod-2**W formula the definition rather than an
emulation detail. ``JInt`` tags such a value with its width; the list
keeps its size and its Java ``int`` answers as plain ints in that range.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UsageError

WIDTHS = (8, 16, 32)


def check_width(bits: int) -> None:
    # 8.0 == 8, so a float width would pass the membership test alone
    if type(bits) is not int or bits not in WIDTHS:
        raise UsageError(f"width must be one of {WIDTHS}, got {bits!r}")


def wrap(n: int, bits: int) -> int:
    """Normalize an unbounded integer into the signed ``bits``-wide range."""
    check_width(bits)
    half = 1 << (bits - 1)
    return ((n + half) % (1 << bits)) - half


@dataclass(frozen=True)
class JInt:
    """A ``bits``-wide signed integer value. Immutable."""

    value: int
    bits: int

    def __post_init__(self):
        check_width(self.bits)
        half = 1 << (self.bits - 1)
        if not -half <= self.value <= half - 1:
            raise UsageError(f"{self.value} out of range for {self.bits}-bit int")

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"JInt({self.value}, w{self.bits})"

    def __eq__(self, other) -> bool:
        if isinstance(other, JInt):
            return self.value == other.value and self.bits == other.bits
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def _other_value(self, other) -> int:
        if isinstance(other, JInt):
            if other.bits != self.bits:
                raise UsageError(f"width mismatch: {self.bits} vs {other.bits}")
            return other.value
        if isinstance(other, int):
            return other
        return NotImplemented

    def __lt__(self, other):
        return self.value < self._other_value(other)

    def __le__(self, other):
        return self.value <= self._other_value(other)

    def __gt__(self, other):
        return self.value > self._other_value(other)

    def __ge__(self, other):
        return self.value >= self._other_value(other)


def max_value(bits: int) -> JInt:
    check_width(bits)
    return JInt((1 << (bits - 1)) - 1, bits)


def min_value(bits: int) -> JInt:
    check_width(bits)
    return JInt(-(1 << (bits - 1)), bits)
