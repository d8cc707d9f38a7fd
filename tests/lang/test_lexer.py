"""Unit tests for the mini-Rust lexer."""

import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.lang.lexer import LexError, tokenize
from repro.lang.span import Span
from repro.lang.tokens import Token, TokenKind as T


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


def texts(source):
    return [t.text for t in tokenize(source)][:-1]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is T.EOF

    def test_identifiers_and_keywords(self):
        assert kinds("let x fn unsafe") == [T.KW_LET, T.IDENT, T.KW_FN, T.KW_UNSAFE]

    def test_underscore_identifier(self):
        assert kinds("_foo _") == [T.IDENT, T.IDENT]

    def test_keyword_prefix_is_identifier(self):
        # `letter` must not lex as `let` + `ter`.
        assert texts("letter") == ["letter"]
        assert kinds("letter") == [T.IDENT]

    def test_punctuation_maximal_munch(self):
        assert kinds("::") == [T.COLONCOLON]
        assert kinds(":") == [T.COLON]
        assert kinds("->") == [T.ARROW]
        assert kinds("=>") == [T.FATARROW]
        assert kinds("..=") == [T.DOTDOTEQ]
        assert kinds("..") == [T.DOTDOT]
        assert kinds("<<=") == [T.SHLEQ]
        assert kinds("<<") == [T.SHL]
        assert kinds("&&") == [T.AMPAMP]
        assert kinds("& &") == [T.AMP, T.AMP]

    def test_compound_assignment_operators(self):
        assert kinds("+= -= *= /= %= ^= &= |=") == [
            T.PLUSEQ, T.MINUSEQ, T.STAREQ, T.SLASHEQ,
            T.PERCENTEQ, T.CARETEQ, T.AMPEQ, T.PIPEEQ,
        ]

    def test_comparison_operators(self):
        assert kinds("== != <= >= < >") == [T.EQEQ, T.NE, T.LE, T.GE, T.LT, T.GT]


class TestNumbers:
    def test_decimal(self):
        assert texts("42") == ["42"]
        assert kinds("42") == [T.INT]

    def test_decimal_with_underscores(self):
        assert texts("1_000_000") == ["1_000_000"]

    def test_hex(self):
        assert texts("0xff 0x17") == ["0xff", "0x17"]

    def test_binary(self):
        assert texts("0b1010") == ["0b1010"]

    def test_suffixed(self):
        assert texts("42usize 0xffu8 1i64 7u32") == ["42usize", "0xffu8", "1i64", "7u32"]

    def test_suffix_not_grabbed_from_identifier(self):
        # `42us` — `us` is not a valid suffix; lexer must split.
        toks = texts("42us")
        assert toks == ["42", "us"]


class TestStringsAndChars:
    def test_simple_string(self):
        assert texts('"hello"') == ['"hello"']
        assert kinds('"hello"') == [T.STRING]

    def test_string_with_escapes(self):
        assert texts(r'"a\"b\n"') == [r'"a\"b\n"']

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_char_literal(self):
        assert kinds("'a'") == [T.CHAR]

    def test_char_escape(self):
        assert kinds(r"'\n'") == [T.CHAR]

    def test_lifetime(self):
        assert kinds("'static") == [T.LIFETIME]
        assert texts("'static") == ["'static"]


class TestComments:
    def test_line_comment_skipped(self):
        assert kinds("1 // comment\n2") == [T.INT, T.INT]

    def test_block_comment_skipped(self):
        assert kinds("1 /* mid */ 2") == [T.INT, T.INT]

    def test_nested_block_comment(self):
        assert kinds("1 /* a /* b */ c */ 2") == [T.INT, T.INT]


class TestSpans:
    def test_line_and_column_tracking(self):
        toks = tokenize("let x\nlet y")
        assert toks[0].span.line == 1
        assert toks[2].span.line == 2
        assert toks[3].span.col == 5

    def test_unknown_character_raises_with_location(self):
        with pytest.raises(LexError) as err:
            tokenize("let $")
        assert err.value.line == 1


class TestRealisticSnippets:
    def test_transmute_turbofish(self):
        toks = kinds("mem::transmute::<&i32, usize>(p)")
        assert T.COLONCOLON in toks
        assert toks.count(T.COLONCOLON) == 2

    def test_unsafe_block(self):
        assert kinds("unsafe { *p }") == [
            T.KW_UNSAFE, T.LBRACE, T.STAR, T.IDENT, T.RBRACE,
        ]

    def test_attribute_tokens(self):
        assert kinds("#[derive(Debug)]")[0] is T.HASH


class TestTokenValue:
    """``Token`` is an immutable value like ``Span``."""

    def test_assignment_raises(self):
        tok = tokenize("x")[0]
        with pytest.raises(FrozenInstanceError):
            tok.text = "y"
        with pytest.raises(FrozenInstanceError):
            del tok.kind
        assert tok.text == "x"
        assert not hasattr(tok, "__dict__")

    def test_equality_and_hash_by_value(self):
        first, second = tokenize("x"), tokenize("x")
        assert first == second and first[0] is not second[0]
        assert hash(first[0]) == hash(second[0])
        assert len({*first, *second}) == 2  # `x` and EOF
        assert tokenize("x")[0] != tokenize(" x")[0]  # the span differs
        assert Token(T.IDENT, "x", Span(0, 1, 1, 1)) == tokenize("x")[0]

    def test_pickle_round_trip(self):
        tokens = tokenize("let x = 'a' + \"s\";")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(tokens, protocol)) == tokens

    def test_repr(self):
        assert repr(tokenize("\n  foo")[0]) == "Token(IDENT, 'foo'@2:3)"


class TestPositions:
    def test_column_after_multiline_string(self):
        toks = tokenize('"a\nbc" x')
        assert (toks[1].text, toks[1].span.line, toks[1].span.col) == \
            ("x", 2, 5)

    def test_column_after_nested_block_comment(self):
        toks = tokenize("/* a /* b\n */ c */ y")
        assert (toks[0].span.line, toks[0].span.col) == (2, 10)

    def test_unterminated_block_comment_runs_to_end(self):
        assert kinds("1 /* /* */") == [T.INT]

    def test_eof_span_is_after_trailing_trivia(self):
        eof = tokenize("x\n// c\n  ")[-1]
        assert (eof.span.start, eof.span.line, eof.span.col) == (9, 3, 3)

    def test_error_positions(self):
        for source, message, where in (
                ('x\n  "open', "unterminated string literal", (2, 3)),
                ("x '\\q", "unterminated char literal", (1, 3)),
                ("a\n b $", "unexpected character '$'", (2, 4))):
            with pytest.raises(LexError) as err:
                tokenize(source)
            assert (err.value.message, err.value.line, err.value.col) == \
                (message, *where)
