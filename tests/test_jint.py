"""Fixed-width signed arithmetic.

Expected values below are frozen from an independent model: Python's
unbounded ints pushed through ((n + 2**(w-1)) % 2**w) - 2**(w-1), which
is the textbook two's complement reinterpretation. Width 8 is checked
exhaustively; 16 and 32 are sampled with hypothesis.
"""

import pytest
from hypothesis import given, strategies as st

from overlist.errors import UsageError
from overlist.jint import WIDTHS, JInt, max_value, min_value, wrap


def model_wrap(n: int, bits: int) -> int:
    return ((n + (1 << (bits - 1))) % (1 << bits)) - (1 << (bits - 1))


class TestFrozenExamples:
    def test_extremes(self):
        assert max_value(8).value == 127
        assert min_value(8).value == -128
        assert max_value(16).value == 32767
        assert min_value(16).value == -32768
        assert max_value(32).value == 2147483647
        assert min_value(32).value == -2147483648

    def test_overflow_at_max(self):
        # MAX + 1 == MIN, the single fact everything else builds on (the
        # list's own size arithmetic is tested in test_listcore)
        for w in WIDTHS:
            assert wrap(max_value(w).value + 1, w) == min_value(w)
            assert wrap(min_value(w).value - 1, w) == max_value(w)

    def test_wrap_frozen(self):
        assert wrap(128, 8) == -128
        assert wrap(255, 8) == -1
        assert wrap(256, 8) == 0
        assert wrap(-129, 8) == 127
        assert wrap(2147483648, 32) == -2147483648


class TestConstruction:
    def test_out_of_range_rejected(self):
        with pytest.raises(UsageError):
            JInt(128, 8)
        with pytest.raises(UsageError):
            JInt(-129, 8)

    def test_bad_width_rejected(self):
        with pytest.raises(UsageError):
            JInt(0, 7)
        with pytest.raises(UsageError):
            wrap(0, 64)

    def test_width_mismatch_rejected(self):
        with pytest.raises(UsageError):
            JInt(1, 8) < JInt(1, 16)
        with pytest.raises(UsageError):
            JInt(1, 8) >= JInt(1, 16)

    def test_eq_accepts_plain_int(self):
        assert JInt(42, 8) == 42
        assert JInt(42, 8) != 43
        # equality between JInts is width-sensitive on purpose
        assert JInt(42, 8) != JInt(42, 16)


class TestExhaustiveWidth8:
    def test_add_matches_model(self):
        for a in range(-128, 128):
            for b in range(-128, 128):
                assert wrap(a + b, 8) == model_wrap(a + b, 8)

    def test_roundtrip_and_inverses(self):
        for a in range(-128, 128):
            j = JInt(a, 8)
            assert int(j) == j.value == a
            assert JInt(wrap(a, 8), 8) == j
            assert wrap(wrap(a + 1, 8) - 1, 8) == a
            assert wrap(wrap(a - 1, 8) + 1, 8) == a


@pytest.mark.parametrize("w", [16, 32])
class TestSampledWideWidths:
    @given(data=st.data())
    def test_add_matches_model(self, w, data):
        lo, hi = -(1 << (w - 1)), (1 << (w - 1)) - 1
        a = data.draw(st.integers(lo, hi))
        b = data.draw(st.integers(lo, hi))
        assert wrap(a + b, w) == model_wrap(a + b, w)

    @given(data=st.data())
    def test_wrap_is_identity_in_range(self, w, data):
        a = data.draw(st.integers(-(1 << (w - 1)), (1 << (w - 1)) - 1))
        assert wrap(a, w) == a

    @given(data=st.data())
    def test_wrap_is_periodic(self, w, data):
        n = data.draw(st.integers(-(1 << (w + 2)), 1 << (w + 2)))
        assert wrap(n, w) == wrap(n + (1 << w), w)
