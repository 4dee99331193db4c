"""The span rule that every batched pass over a grid walks.

_spans(n, unit) covers the n intervals of a grid in consecutive spans of
the most whole units that fit in _SPAN, at least one unit each; the last
span ends at n, and a grid of no intervals has no spans.
"""

import sys

import pytest

from sta.quadrature import _spans

quadrature_module = sys.modules["sta.quadrature"]
SPAN = quadrature_module._SPAN


def test_no_intervals_give_no_spans():
    assert list(_spans(0)) == []
    assert list(_spans(0, 7)) == []


def test_one_interval_is_one_span():
    assert list(_spans(1)) == [(0, 1)]
    assert list(_spans(1, 7)) == [(0, 1)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_multiple_of_the_span_ends_on_whole_spans(k):
    assert list(_spans(k * SPAN)) == [(j * SPAN, (j + 1) * SPAN) for j in range(k)]
    # one interval more opens a last span of one
    assert list(_spans(k * SPAN + 1))[-1] == (k * SPAN, k * SPAN + 1)


def test_spans_hold_whole_units():
    per = 100 * (SPAN // 100)  # 1,500 intervals at a span of 1,536
    assert list(_spans(2 * per + 50, 100)) == [(0, per), (per, 2 * per), (2 * per, 2 * per + 50)]


def test_unit_past_the_span_is_one_unit_per_span():
    unit = SPAN + 5
    assert list(_spans(2 * unit + 3, unit)) == [(0, unit), (unit, 2 * unit),
                                               (2 * unit, 2 * unit + 3)]


def test_span_is_read_when_walked(monkeypatch):
    monkeypatch.setattr(quadrature_module, "_SPAN", 4)
    assert list(_spans(10)) == [(0, 4), (4, 8), (8, 10)]
    assert list(_spans(10, 3)) == [(0, 3), (3, 6), (6, 9), (9, 10)]
