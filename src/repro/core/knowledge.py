"""AST vectorization and the similarity-search knowledge base (§III-B3).

The knowledge base is *not* built from the evaluation corpus: it holds one
hand-written exemplar snippet per repair rule — the "repair solutions for
error-prone AST structures" a tool vendor would curate. At query time the
target program is pruned (Algorithm 1), vectorized, and matched against the
exemplars by cosine similarity; the best-matching rules become prompt hints.

Vectorization is feature hashing over AST node-type unigrams/bigrams plus
salient lexical features (method names, called paths, type names, unsafe
markers) into a fixed-dimension real vector, L2-normalised.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ..lang import ast_nodes as ast
from ..lang.ast_nodes import walk
from ..lang.parser import parse_program
from ..miri.errors import UbKind
from .pruning import prune_program

VECTOR_DIM = 64


def _bucket(token: str, dim: int) -> tuple[int, float]:
    digest = hashlib.blake2b(token.encode(), digest_size=8).digest()
    index = int.from_bytes(digest[:4], "big") % dim
    sign = 1.0 if digest[4] & 1 else -1.0
    return index, sign


def ast_tokens(program: ast.Program) -> list[str]:
    """The token stream that feeds the hashing vectorizer."""
    tokens: list[str] = []
    previous_type = ""
    for node in walk(program):
        node_type = type(node).__name__
        tokens.append(f"ty:{node_type}")
        if previous_type:
            tokens.append(f"bi:{previous_type}>{node_type}")
        previous_type = node_type
        if isinstance(node, ast.Block) and node.is_unsafe:
            tokens.append("kw:unsafe")
        elif isinstance(node, ast.MethodCall):
            tokens.append(f"m:{node.method}")
        elif isinstance(node, ast.PathExpr) and len(node.segments) > 1:
            tokens.append(f"p:{node.segments[-1]}")
        elif isinstance(node, ast.Cast) and node.ty is not None:
            tokens.append(f"cast:{node.ty}")
        elif isinstance(node, ast.Unary):
            tokens.append(f"u:{node.op}")
        elif isinstance(node, ast.StaticItem) and node.mutable:
            tokens.append("kw:static_mut")
        elif isinstance(node, ast.UnionItem):
            tokens.append("kw:union")
        elif isinstance(node, ast.MacroCall):
            tokens.append(f"mac:{node.name}")
    return tokens


def vectorize(program: ast.Program, dim: int = VECTOR_DIM) -> np.ndarray:
    """Embed a (pruned) program into R^dim by signed feature hashing.

    Memoized on the (frozen) tree; the shared vector is read-only.
    """
    return program.fact(("vectorize", dim), lambda tree: _embed(tree, dim))


def _embed(program: ast.Program, dim: int) -> np.ndarray:
    vector = np.zeros(dim, dtype=np.float64)
    for token in ast_tokens(program):
        index, sign = _bucket(token, dim)
        vector[index] += sign
    norm = np.linalg.norm(vector)
    if norm > 0:
        vector /= norm
    vector.setflags(write=False)
    return vector


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return cosine_normed(a, np.linalg.norm(a), b, np.linalg.norm(b))


def cosine_normed(a: np.ndarray, a_norm, b: np.ndarray, b_norm) -> float:
    """:func:`cosine` given both vectors' ``np.linalg.norm``.

    Bit-identical to :func:`cosine` when the norms are those of ``a`` and
    ``b``, so a store can compute each stored vector's norm once and a
    query its own norm once, instead of both on every comparison.
    """
    denom = a_norm * b_norm
    if denom == 0:
        return 0.0
    return float(np.dot(a, b) / denom)


# ---------------------------------------------------------------------------
# Exemplars: one generic snippet per rule (curated knowledge, not eval data)

_EXEMPLARS: list[tuple[str, UbKind, str]] = [
    ("remove_second_free", UbKind.ALLOC, """
fn main() {
    let bx = Box::new(1);
    let raw = Box::into_raw(bx);
    unsafe { drop(Box::from_raw(raw)); }
    unsafe { drop(Box::from_raw(raw)); }
}
"""),
    ("fix_dealloc_layout", UbKind.ALLOC, """
use std::alloc;
fn main() {
    let l = Layout::from_size_align(16, 8).unwrap();
    let q = unsafe { alloc::alloc(l) };
    let other = Layout::from_size_align(32, 8).unwrap();
    unsafe { alloc::dealloc(q, other); }
}
"""),
    ("guard_layout_nonzero", UbKind.ALLOC, """
use std::alloc;
fn main() {
    let amount = 0;
    let l = Layout::from_size_align(amount, 1).unwrap();
    let q = unsafe { alloc::alloc(l) };
    unsafe { alloc::dealloc(q, l); }
}
"""),
    ("move_drop_after_last_use", UbKind.DANGLING_POINTER, """
fn main() {
    let owner = Box::new(3);
    let raw = Box::into_raw(owner);
    unsafe { drop(Box::from_raw(raw)); }
    let value = unsafe { *raw };
    println!("{}", value);
}
"""),
    ("take_pointer_after_mutation", UbKind.DANGLING_POINTER, """
fn main() {
    let mut items: Vec<i32> = Vec::with_capacity(1);
    items.push(1);
    let head = items.as_ptr();
    items.push(2);
    let x = unsafe { *head };
    println!("{}", x);
}
"""),
    ("guard_nonnull_before_deref", UbKind.DANGLING_POINTER, """
use std::ptr;
fn main() {
    let maybe: *const i32 = ptr::null();
    let x = unsafe { *maybe };
    println!("{}", x);
}
"""),
    ("guard_ptr_add_with_len_check", UbKind.DANGLING_POINTER, """
fn main() {
    let items = vec![1, 2];
    let slot = 9;
    let head = items.as_ptr();
    let x = unsafe { *head.add(slot) };
    println!("{}", x);
}
"""),
    ("saturating_arith_on_extreme", UbKind.PANIC, """
fn main() {
    let limit = i32::MAX;
    let next = limit + 2;
    println!("{}", next);
}
"""),
    ("guard_index_with_len_check", UbKind.PANIC, """
fn main() {
    let xs = vec![1, 2];
    let at = 4;
    let x = xs[at];
    println!("{}", x);
}
"""),
    ("guard_division_nonzero", UbKind.PANIC, """
fn main() {
    let n = 9;
    let d = 0;
    let q = n / d;
    println!("{}", q);
}
"""),
    ("replace_unwrap_with_unwrap_or", UbKind.PANIC, """
fn main() {
    let mut xs: Vec<i32> = Vec::new();
    let x = xs.pop().unwrap();
    println!("{}", x);
}
"""),
    ("mask_shift_amount", UbKind.PANIC, """
fn main() {
    let lhs = 1i32;
    let by = 40;
    let out = lhs << by;
    println!("{}", out);
}
"""),
    ("replace_deref_with_original_value", UbKind.PROVENANCE, """
use std::mem;
fn main() {
    let keep = 8;
    let rf = &keep;
    let as_int = unsafe { mem::transmute::<&i32, usize>(rf) };
    let back = as_int as *const i32;
    let x = unsafe { *back };
    println!("{}", x);
}
"""),
    ("read_owner_instead_of_raw", UbKind.STACK_BORROW, """
fn main() {
    let mut slot = 1i32;
    let rp = &mut slot as *mut i32;
    slot = 2;
    let x = unsafe { *rp };
    println!("{}", x);
}
"""),
    ("replace_uninit_with_zero_init", UbKind.UNINIT, """
fn main() {
    let cell: MaybeUninit<i32> = MaybeUninit::uninit();
    let x = unsafe { cell.assume_init() };
    println!("{}", x);
}
"""),
    ("write_before_assume_init", UbKind.UNINIT, """
fn main() {
    let cell: MaybeUninit<u64> = MaybeUninit::uninit();
    let x = unsafe { cell.assume_init() };
    println!("{}", x);
}
"""),
    ("replace_set_len_with_resize", UbKind.UNINIT, """
fn main() {
    let mut buf: Vec<u8> = Vec::with_capacity(16);
    unsafe { buf.set_len(8); }
    let b = buf[0];
    println!("{}", b);
}
"""),
    ("read_written_union_field", UbKind.UNINIT, """
union Mixed { lo: u8, wide: u32 }
fn main() {
    let m = Mixed { lo: 9 };
    let w = unsafe { m.wide };
    println!("{}", w);
}
"""),
    ("write_zero_after_alloc", UbKind.UNINIT, """
use std::alloc;
fn main() {
    let l = Layout::from_size_align(8, 8).unwrap();
    let q = unsafe { alloc::alloc(l) } as *mut u64;
    let x = unsafe { *q };
    println!("{}", x);
    unsafe { alloc::dealloc(q as *mut u8, l); }
}
"""),
    ("shorten_shared_borrow", UbKind.BOTH_BORROW, """
fn main() {
    let mut amount = 1;
    let excl = &mut amount;
    let shared = &amount;
    *excl += 1;
    let seen = *shared;
    println!("{}", seen);
}
"""),
    ("hoist_write_before_shared", UbKind.BOTH_BORROW, """
fn main() {
    let mut amount = 2;
    let excl = &mut amount;
    let shared = &amount;
    let seen = *shared;
    *excl += 3;
    println!("{} {}", seen, amount);
}
"""),
    ("replace_static_mut_with_atomic", UbKind.DATA_RACE, """
static mut SHARED: usize = 0;
fn main() {
    let t = std::thread::spawn(move || {
        unsafe { SHARED += 1; }
    });
    unsafe { SHARED += 1; }
    t.join();
    println!("{}", unsafe { SHARED });
}
"""),
    ("join_thread_before_access", UbKind.DATA_RACE, """
fn main() {
    let mut cell = 0i64;
    let rp = &mut cell as *mut i64;
    let t = std::thread::spawn(move || {
        unsafe { *rp = 5; }
    });
    cell = 6;
    t.join();
    println!("{}", cell);
}
"""),
    ("protect_with_mutex", UbKind.DATA_RACE, """
static mut TALLY: usize = 0;
fn main() {
    let t = std::thread::spawn(move || {
        unsafe { TALLY += 2; }
    });
    unsafe { TALLY += 2; }
    t.join();
    println!("{}", unsafe { TALLY });
}
"""),
    ("fix_call_arity", UbKind.FUNC_CALL, """
fn weigh(a: i32, b: i32) -> i32 { a + b }
fn main() {
    let f = weigh;
    let x = f(3);
    println!("{}", x);
}
"""),
    ("call_with_actual_signature", UbKind.FUNC_POINTER, """
use std::mem;
fn pair_sum(a: i32, b: i32) -> i32 { a + b }
fn main() {
    let f = unsafe { mem::transmute::<fn(i32, i32) -> i32, fn(i32) -> i32>(pair_sum) };
    let x = f(1);
    println!("{}", x);
}
"""),
    ("replace_int_fn_transmute_with_fn", UbKind.FUNC_POINTER, """
use std::mem;
fn stub() -> i32 { 0 }
fn main() {
    let f = unsafe { mem::transmute::<usize, fn() -> i32>(128) };
    let x = f();
    println!("{}", x);
}
"""),
    ("hoist_raw_use_before_reborrow", UbKind.STACK_BORROW, """
fn main() {
    let mut v = 4;
    let rp = &mut v as *mut i32;
    let rr = &mut v;
    *rr += 1;
    let x = unsafe { *rp };
    println!("{}", x);
}
"""),
    ("replace_transmute_int_with_comparison", UbKind.VALIDITY, """
use std::mem;
fn main() {
    let byte: u8 = 7;
    let ok = unsafe { mem::transmute::<u8, bool>(byte) };
    println!("{}", ok);
}
"""),
    ("replace_zeroed_ref_with_local", UbKind.VALIDITY, """
use std::mem;
fn main() {
    let rf = unsafe { mem::zeroed::<&i64>() };
    println!("{}", *rf);
}
"""),
    ("replace_transmute_char_with_from_u32", UbKind.VALIDITY, """
use std::mem;
fn main() {
    let cp: u32 = 55296;
    let ch = unsafe { mem::transmute::<u32, char>(cp) };
    println!("{}", ch);
}
"""),
    ("store_valid_bool", UbKind.VALIDITY, """
fn main() {
    let mut ok = false;
    let rp = &mut ok as *mut bool as *mut u8;
    unsafe { *rp = 9; }
    println!("{}", ok);
}
"""),
    ("read_unaligned_instead", UbKind.UNALIGNED, """
fn main() {
    let store = [1u64, 2];
    let raw = store.as_ptr() as *const u8;
    let off = unsafe { raw.add(1) } as *const u32;
    let x = unsafe { *off };
    println!("{}", x);
}
"""),
    ("guard_alignment_before_cast_read", UbKind.UNALIGNED, """
fn main() {
    let store = [3u64; 2];
    let raw = store.as_ptr() as *const u8;
    let off = unsafe { raw.add(3) } as *const u16;
    let x = unsafe { *off };
    println!("{}", x);
}
"""),
    ("add_missing_join", UbKind.CONCURRENCY, """
static DONE: AtomicUsize = AtomicUsize::new(0);
fn main() {
    std::thread::spawn(move || {
        DONE.store(1, Ordering::SeqCst);
    });
    println!("bye");
}
"""),
    ("release_lock_before_relock", UbKind.CONCURRENCY, """
static LOCKED: Mutex<i32> = Mutex::new(1);
fn main() {
    let a = LOCKED.lock();
    let v = *a;
    let b = LOCKED.lock();
    println!("{} {}", v, *b);
}
"""),
    ("correct_tail_dispatch", UbKind.TAIL_CALL, """
use std::mem;
fn bump(n: i32) -> i32 { n + 1 }
fn go(n: i32) -> i32 {
    let t = unsafe { mem::transmute::<fn(i32) -> i32, fn(i64) -> i64>(bump) };
    t(n as i64) as i32
}
fn main() { println!("{}", go(1)); }
"""),
    ("replace_transmute_ref_with_cast", UbKind.PROVENANCE, """
use std::mem;
fn main() {
    let v = 0;
    let rf = &v;
    let n = unsafe { mem::transmute::<&i32, usize>(rf) };
    println!("{}", n > 0);
}
"""),
    ("replace_transmute_bytes_with_from_le", UbKind.VALIDITY, """
use std::mem;
fn main() {
    let raw = [1u8, 0, 0, 0];
    let n = unsafe { mem::transmute::<[u8; 4], u32>(raw) };
    println!("{}", n);
}
"""),
]


@dataclass(frozen=True)
class KbEntry:
    rule: str
    category: UbKind
    vector: np.ndarray
    snippet: str

    @cached_property
    def norm(self):
        """``np.linalg.norm(vector)``, once: the vector is read-only."""
        return np.linalg.norm(self.vector)


@lru_cache(maxsize=8)
def _default_entries(coverage: float, seed: int,
                     use_pruning: bool) -> tuple[KbEntry, ...]:
    """Parse/prune/vectorize the curated exemplars once per configuration.

    Entries are frozen and only ever read, so the tuple is safely shared by
    every KnowledgeBase instance — campaigns build one engine per case, and
    without this cache each of those rebuilt the whole KB.
    """
    import random as _random
    exemplars = list(_EXEMPLARS)
    if coverage < 1.0:
        keep = max(1, int(len(exemplars) * coverage))
        _random.Random(seed).shuffle(exemplars)
        exemplars = exemplars[:keep]
    entries = []
    for rule, category, snippet in exemplars:
        program = parse_program(snippet)
        target = prune_program(program) if use_pruning else program
        entries.append(KbEntry(rule, category, vectorize(target), snippet))
    return tuple(entries)


class KnowledgeBase:
    """Similarity-searchable store of repair exemplars."""

    def __init__(self, entries: list[KbEntry]):
        self.entries = entries
        self.queries = 0

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def default(cls, coverage: float = 1.0, seed: int = 0,
                use_pruning: bool = True) -> "KnowledgeBase":
        """Build the KB from the curated exemplars.

        ``coverage`` < 1 keeps a deterministic subset — the knob behind the
        paper's "depends on its size" observation; ``use_pruning=False``
        skips Algorithm 1 when embedding (the pruning ablation).
        """
        return cls(list(_default_entries(coverage, seed, use_pruning)))

    def query(self, vector: np.ndarray, k: int = 3,
              min_similarity: float = 0.25) -> list[tuple[KbEntry, float]]:
        self.queries += 1
        norm = np.linalg.norm(vector)
        scored = [(entry, cosine_normed(vector, norm, entry.vector, entry.norm))
                  for entry in self.entries]
        scored.sort(key=lambda pair: pair[1], reverse=True)
        return [(entry, score) for entry, score in scored[:k]
                if score >= min_similarity]

    def hint_rules(self, vector: np.ndarray, k: int = 3) -> list[str]:
        hints: list[str] = []
        for entry, _score in self.query(vector, k):
            if entry.rule not in hints:
                hints.append(entry.rule)
        return hints
