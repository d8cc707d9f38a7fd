"""Golden gate for the front door: token streams, ASTs and error texts.

Every input below is lexed and parsed, and three digests are compared
with the committed ``front_door_golden.json``:

* ``tokens`` — every token's kind, text, start, end, line and col;
* ``ast`` — the parsed tree: node classes, fields and types in order,
  spans written as ``(start, end, line, col)``, node ids left out;
* ``error`` — the type, message, line and col of the ``LexError`` or
  ``ParseError`` the input raises (or ``ok``); any other exception is
  recorded by type and text.

Inputs: the hand-written corpus (buggy and fixed), the compile-error
corpus, seeded ``generate_sources`` output, a fixed list of lexical edge
cases, and seeded malformed splices of corpus sources (word deletions
and duplications, unterminated strings, chars and block comments, stray
characters), so the error paths are pinned as tightly as the happy ones.
The splices cut on a private word pattern, not on the lexer under test.

Any change to what the lexer or parser produces for any input fails
here.  After a deliberate change to the front door's output, rewrite
the digest file and review its diff::

    PYTHONPATH=src python tests/lang/test_front_door_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from pathlib import Path

import pytest

from repro.corpus.dataset import load_compile_dataset, load_dataset
from repro.corpus.generator import generate_sources
from repro.lang import ast_nodes as ast
from repro.lang.lexer import LexError, tokenize
from repro.lang.parser import ParseError, parse_program
from repro.lang.span import Span

GOLDEN = Path(__file__).with_name("front_door_golden.json")
GENERATED = (300, 1414)
MALFORMED = (300, 2828)

#: Hand-picked lexical corners the corpora do not reach.
EDGE_CASES = (
    "",
    "   \n\t  \r\n",
    'fn main() { let s = "two\nlines"; let t = s; }',
    'fn main() { let s = "a\\"b\\\\"; let c = \'\\n\'; let d = \'"\'; }',
    "fn main() { let c = '\n'; let x = 1; }",
    "fn main() { /* one\n /* two */\n three */ let x = 0xffu8; }",
    "fn main() { let a = 0x; let b = 0b2; let c = 1u8x; let d = 7i128; }",
    "fn main() { let a = 0Xab_cdusize; let b = 0B1_0i8; let c = 1_000i16; }",
    "fn f<'a>(x: &'a i32) -> &'a i32 { x }",
    "fn main() { let v: Vec<Vec<i32>> = vec![]; let w: Vec<Vec<u8>>= x; }",
    "fn main() { x <<= 1; y >>= 2; for i in 0..=3 { } let z = a::<b>(); }",
    "// only a comment",
    "fn main() {} /* unterminated",
    "fn main() { /*/ still a comment */ }",
    "fn main() { let c = '",
    "fn main() { let c = '\\",
    "fn main() { let c = '\\x",
    "fn main() { let s = \"abc\\",
    "fn main() { let x = 1; }\r\nfn g() { let y = 'ab; }",
    "fn main() { let é = 1; }",
    "fn main() { let x = 1\x0c; }",
    "fn main() { let x = `y`; }",
    "fn main() { let x = [1, 2, 3][0] as u8 >= 2 && y || !z; }",
)

_WORD = re.compile(r"[A-Za-z0-9_]+|\S")
_INSERTS = ('"open', "'\\q", "'", "/*", "/* /* */", "$", "`", "~", "\\",
            "é", "\x00", "\"\n", "'\\")


def _splice(source: str, rng: random.Random) -> str:
    """One seeded malformed edit of ``source``."""
    words = [m.span() for m in _WORD.finditer(source)]
    start, end = words[rng.randrange(len(words))]
    edit = rng.randrange(3)
    if edit == 0:  # delete a word
        return source[:start] + source[end:]
    if edit == 1:  # duplicate a word
        return source[:end] + " " + source[start:end] + source[end:]
    return source[:start] + rng.choice(_INSERTS) + source[start:]


def golden_inputs() -> dict[str, str]:
    """Every gated input by a stable key."""
    inputs: dict[str, str] = {}
    corpus = list(load_dataset())
    for prefix, cases in (("corpus", corpus),
                          ("compile", list(load_compile_dataset()))):
        for case in cases:
            inputs[f"{prefix}/{case.name}/buggy"] = case.source
            inputs[f"{prefix}/{case.name}/fixed"] = case.fixed_source
    try:  # the generator parses too; a broken front door may stop it
        generated = generate_sources(*GENERATED)
    except Exception:  # then the key check fails and the rest still runs
        generated = []
    for idx, text in enumerate(generated):
        inputs[f"generated/{idx:03d}"] = text
    for idx, text in enumerate(EDGE_CASES):
        inputs[f"edge/{idx:02d}"] = text
    count, seed = MALFORMED
    rng = random.Random(seed)
    for idx in range(count):
        case = corpus[rng.randrange(len(corpus))]
        text = case.source if rng.random() < 0.5 else case.fixed_source
        for _ in range(1 + rng.randrange(2)):
            text = _splice(text, rng)
        inputs[f"malformed/{idx:03d}"] = text
    return inputs


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:20]


def _span(span: Span) -> tuple:
    return (span.start, span.end, span.line, span.col)


def _tree(value):
    if isinstance(value, ast.Node):
        return (type(value).__name__,) + tuple(
            (key, _span(field) if key == "span" else _tree(field))
            for key, field in vars(value).items() if key != "node_id")
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(_tree(item) for item in value)
    return repr(value)


def front_door_digests(source: str) -> dict[str, str]:
    """The three digests of one input."""
    try:
        tokens = [(tok.kind.name, tok.text) + _span(tok.span)
                  for tok in tokenize(source)]
    except LexError:
        tokens = None
    try:
        tree = _tree(parse_program(source))
        error = "ok"
    except LexError as exc:
        tree = None
        error = ("LexError", exc.message, exc.line, exc.col, str(exc))
    except ParseError as exc:
        tree = None
        error = ("ParseError", exc.message, exc.span.line, exc.span.col,
                 str(exc))
    except Exception as exc:  # pinned too, e.g. int() of a bare ``0x``
        tree = None
        error = (type(exc).__name__, str(exc))
    return {"tokens": _digest(tokens), "ast": _digest(tree),
            "error": _digest(error)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def inputs():
    return golden_inputs()


@pytest.fixture(scope="module")
def digests(inputs):
    return {key: front_door_digests(text) for key, text in inputs.items()}


def test_inputs_are_the_recorded_ones(golden, inputs):
    missing = sorted(set(golden) - set(inputs))
    assert not missing, f"{len(missing)} inputs missing: {missing[:10]}"
    assert sorted(inputs) == sorted(golden)
    drifted = [key for key, text in inputs.items()
               if _digest(text) != golden[key]["input"]]
    assert not drifted, f"inputs changed: {drifted[:10]}"


def test_every_error_path_is_exercised(inputs):
    messages = set()
    for text in inputs.values():
        try:
            parse_program(text)
        except LexError as exc:
            messages.add(exc.message.split(" '")[0])
        except ParseError:
            messages.add("parse error")
        except Exception:
            pass
    assert {"unexpected character", "unterminated string literal",
            "unterminated char literal", "parse error"} <= messages


@pytest.mark.parametrize("part", ["tokens", "ast", "error"])
def test_front_door_matches_golden(golden, digests, part):
    changed = [key for key, got in digests.items()
               if got[part] != golden[key][part]]
    assert not changed, f"{part} changed for {len(changed)} inputs: " \
                        f"{changed[:10]}"


def write_golden() -> None:
    entries = {}
    for key, text in golden_inputs().items():
        entries[key] = {"input": _digest(text), **front_door_digests(text)}
    GOLDEN.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write_golden()
