"""Algorithm 1: pruning irrelevant nodes from the Rust AST.

Faithful to the paper's pseudo-code: keep nodes marked ``unsafe`` (Principle
1 — all unsafe operations are explicitly marked), keep the context that the
Miri errors implicate, and drop everything irrelevant so the knowledge-base
vectors and the LLM prompts are not diluted by noise.

The unit of pruning is the *statement*: a statement survives when it
(a) contains an unsafe region or unsafe-adjacent operation, (b) overlaps a
diagnostic span, or (c) defines a name a surviving statement uses
(computed to a fixpoint, so definition chains stay intact).
"""

from __future__ import annotations

from dataclasses import replace

from ..lang import ast_nodes as ast
from ..lang.ast_nodes import walk
from ..miri.errors import MiriError

#: Method calls that are unsafe-adjacent even outside an `unsafe` block.
_UNSAFE_ADJACENT_METHODS = {
    "as_ptr", "as_mut_ptr", "set_len", "assume_init", "get_unchecked",
    "get_unchecked_mut", "offset", "add", "sub", "read", "write",
    "read_unaligned", "write_unaligned",
}

_UNSAFE_ADJACENT_CALLS = {
    "transmute", "zeroed", "alloc", "alloc_zeroed", "dealloc", "from_raw",
    "into_raw", "null", "null_mut", "spawn",
}


def prune_program(program: ast.Program,
                  errors: list[MiriError] | None = None) -> ast.Program:
    """Return a pruned copy of ``program`` (Algorithm 1).

    Only the errors' lines matter, so the pruned tree is memoized on the
    (frozen) input per error-line set.  It is frozen too: new function,
    body and program shells around the surviving items and statements,
    which it shares with the input.
    """
    error_lines = frozenset(e.span.line for e in errors or () if e.span.line)
    return program.fact(("pruned", error_lines),
                        lambda tree: _prune(tree, error_lines))


def _prune(program: ast.Program, error_lines: frozenset[int]) -> ast.Program:
    kept_items: list[ast.Item] = []
    for item in program.items:
        if isinstance(item, ast.FnItem):
            body = _prune_body(item, error_lines)
            if item.is_unsafe or body.stmts or body.tail is not None \
                    or item.name == "main":
                kept_items.append(replace(item, body=body))
        elif isinstance(item, (ast.StaticItem, ast.UnionItem)):
            kept_items.append(item)  # statics/unions are unsafe-relevant
        elif isinstance(item, ast.StructItem):
            kept_items.append(item)
        # UseItem / ConstItem are noise for repair purposes.
    return replace(program, items=kept_items)


def _prune_body(fn: ast.FnItem, error_lines: frozenset[int]) -> ast.Block:
    block = fn.body
    keep: list[bool] = []
    for stmt in block.stmts:
        keep.append(_is_relevant(stmt, error_lines) or fn.is_unsafe)

    # Fixpoint: keep definitions of names used by kept statements.
    changed = True
    while changed:
        changed = False
        needed: set[str] = set()
        for flag, stmt in zip(keep, block.stmts):
            if flag:
                needed.update(_used_names(stmt))
        if block.tail is not None:
            needed.update(_used_names_expr(block.tail))
        for index, stmt in enumerate(block.stmts):
            if keep[index]:
                continue
            if isinstance(stmt, ast.LetStmt) and stmt.name in needed:
                keep[index] = True
                changed = True
    return replace(block, stmts=[stmt for flag, stmt in zip(keep, block.stmts)
                                 if flag])


def _is_relevant(stmt: ast.Stmt, error_lines: frozenset[int]) -> bool:
    for node in walk(stmt):
        if isinstance(node, ast.Block) and node.is_unsafe:
            return True
        if isinstance(node, ast.MethodCall) and \
                node.method in _UNSAFE_ADJACENT_METHODS:
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.PathExpr) \
                and node.func.segments[-1] in _UNSAFE_ADJACENT_CALLS:
            return True
        if isinstance(node, ast.Cast) and node.ty is not None and \
                "*" in str(node.ty):
            return True
        if node.span.line in error_lines:
            return True
    return False


def _used_names(stmt: ast.Stmt) -> set[str]:
    names: set[str] = set()
    for node in walk(stmt):
        if isinstance(node, ast.PathExpr) and node.is_local:
            names.add(node.name)
    if isinstance(stmt, ast.LetStmt):
        names.discard(stmt.name)
    return names


def _used_names_expr(expr: ast.Expr) -> set[str]:
    return {
        node.name for node in walk(expr)
        if isinstance(node, ast.PathExpr) and node.is_local
    }


def pruning_ratio(original: ast.Program, pruned: ast.Program) -> float:
    """Fraction of AST nodes removed (diagnostic metric for the ablation)."""
    before = sum(1 for _ in walk(original))
    after = sum(1 for _ in walk(pruned))
    if before == 0:
        return 0.0
    return max(0.0, 1.0 - after / before)
