"""Tests for the span line/column helpers shared by parser errors and
checker diagnostics."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.lang.span import (DUMMY_SPAN, Span, line_col, render_snippet,
                             source_line, span_at)

SOURCE = "fn main() {\n    let total = count + 1;\n}\n"


class TestLineCol:
    def test_start_of_file(self):
        assert line_col(SOURCE, 0) == (1, 1)

    def test_second_line(self):
        offset = SOURCE.index("total")
        assert line_col(SOURCE, offset) == (2, 9)

    def test_offset_clamped(self):
        assert line_col(SOURCE, -5) == (1, 1)
        line, col = line_col(SOURCE, 10_000)
        assert line == SOURCE.count("\n") + 1

    def test_agrees_with_lexer_convention(self):
        # col counts from 1 at the character after the last newline
        offset = SOURCE.index("\n") + 1
        assert line_col(SOURCE, offset) == (2, 1)


class TestSpanAt:
    def test_builds_full_span(self):
        offset = SOURCE.index("count")
        span = span_at(SOURCE, offset, offset + 5)
        assert span == Span(offset, offset + 5, 2, 17)

    def test_end_defaults_to_start(self):
        span = span_at(SOURCE, 3)
        assert span.start == span.end == 3


class TestSourceLine:
    def test_returns_requested_line(self):
        assert source_line(SOURCE, 1) == "fn main() {"
        assert source_line(SOURCE, 2) == "    let total = count + 1;"

    def test_out_of_range_is_empty(self):
        assert source_line(SOURCE, 0) == ""
        assert source_line(SOURCE, 99) == ""


class TestRenderSnippet:
    def test_caret_under_span(self):
        offset = SOURCE.index("count")
        snippet = render_snippet(SOURCE, span_at(SOURCE, offset, offset + 5),
                                 "not found")
        lines = snippet.splitlines()
        assert lines[0] == "  --> 2:17"
        assert lines[2] == "2 |     let total = count + 1;"
        assert lines[3] == "  |                 ^^^^^ not found"

    def test_width_clipped_to_line_end(self):
        offset = SOURCE.index("count")
        snippet = render_snippet(SOURCE, span_at(SOURCE, offset, offset + 99))
        caret_line = snippet.splitlines()[3]
        assert caret_line.count("^") == len("count + 1;")

    def test_zero_width_span_still_carets(self):
        snippet = render_snippet(SOURCE, span_at(SOURCE, 0, 0))
        assert "^" in snippet

    def test_dummy_span_renders_location_only(self):
        assert render_snippet(SOURCE, DUMMY_SPAN) == "  --> 0:0"


class TestSpanValue:
    """``Span`` is an immutable value: it compares, hashes and pickles by
    its four fields and refuses assignment."""

    def test_assignment_raises(self):
        span = Span(1, 2, 3, 4)
        with pytest.raises(FrozenInstanceError):
            span.start = 9
        with pytest.raises(AttributeError):
            span.extra = 1
        with pytest.raises(FrozenInstanceError):
            del span.line
        assert span.start == 1 and span.line == 3

    def test_no_instance_dict(self):
        assert not hasattr(Span(1, 2, 3, 4), "__dict__")

    def test_equality_and_hash_by_value(self):
        assert Span(1, 2, 3, 4) == Span(1, 2, 3, 4)
        assert Span(1, 2, 3, 4) != Span(1, 2, 3, 5)
        assert hash(Span(1, 2, 3, 4)) == hash(Span(1, 2, 3, 4))
        assert hash(Span(1, 2, 3, 4)) == hash((1, 2, 3, 4))
        assert len({Span(1, 2, 3, 4), Span(1, 2, 3, 4), DUMMY_SPAN}) == 2
        assert Span(1, 2, 3, 4) != (1, 2, 3, 4)

    def test_pickle_and_copy_round_trip(self):
        span = Span(5, 9, 2, 3)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(span, protocol))
            assert again == span and type(again) is Span
        assert copy.copy(span) == span
        assert copy.deepcopy(span) == span

    def test_repr_and_str(self):
        assert repr(Span(1, 2, 3, 4)) == \
            "Span(start=1, end=2, line=3, col=4)"
        assert str(Span(1, 2, 3, 4)) == "3:4"

    def test_merge(self):
        a, b = Span(10, 12, 2, 1), Span(4, 6, 1, 5)
        assert a.merge(b) == Span(4, 12, 1, 5) == b.merge(a)
