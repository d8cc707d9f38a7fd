"""Pretty-printer: AST back to mini-Rust source.

The repair agents rewrite ASTs; the printer regenerates canonical source so
that repaired programs can be re-parsed, diffed, stored in the knowledge base,
and shown to users. ``parse(print(ast))`` is structurally idempotent — the
property tests in ``tests/lang/test_roundtrip_properties.py`` check this.
"""

from __future__ import annotations

from . import ast_nodes as ast
from .types import Ty

_INDENT = "    "

# Mirrors parser precedence so we can parenthesise only where needed.
_PREC = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3, "<": 3, ">": 3, "<=": 3, ">=": 3,
    "|": 4, "^": 5, "&": 6, "<<": 7, ">>": 7,
    "+": 8, "-": 8, "*": 9, "/": 9, "%": 9,
}


class Printer:
    def __init__(self):
        self.lines: list[str] = []
        self.depth = 0

    # ------------------------------------------------------------------

    def print_program(self, program: ast.Program) -> str:
        for index, item in enumerate(program.items):
            if index:
                self._emit("")
            self._print_item(item)
        return "\n".join(self.lines) + "\n"

    def _emit(self, text: str) -> None:
        self.lines.append(_INDENT * self.depth + text if text else "")

    # ------------------------------------------------------------------
    # Items

    def _print_item(self, item: ast.Item) -> None:
        if isinstance(item, ast.FnItem):
            header = "unsafe fn" if item.is_unsafe else "fn"
            params = ", ".join(
                f"{'mut ' if p.mutable else ''}{p.name}: {p.ty}" for p in item.params
            )
            ret = f" -> {item.ret}" if item.ret is not None else ""
            self._emit(f"{header} {item.name}({params}){ret} {{")
            self._print_block_body(item.body)
            self._emit("}")
        elif isinstance(item, ast.StaticItem):
            mut = "mut " if item.mutable else ""
            self._emit(f"static {mut}{item.name}: {item.ty} = {self.expr(item.init)};")
        elif isinstance(item, ast.ConstItem):
            self._emit(f"const {item.name}: {item.ty} = {self.expr(item.init)};")
        elif isinstance(item, ast.StructItem):
            self._emit(f"struct {item.name} {{")
            self.depth += 1
            for fname, fty in item.fields:
                self._emit(f"{fname}: {fty},")
            self.depth -= 1
            self._emit("}")
        elif isinstance(item, ast.UnionItem):
            self._emit(f"union {item.name} {{")
            self.depth += 1
            for fname, fty in item.fields:
                self._emit(f"{fname}: {fty},")
            self.depth -= 1
            self._emit("}")
        elif isinstance(item, ast.UseItem):
            self._emit(f"use {item.path};")
        else:  # pragma: no cover - exhaustive over Item kinds
            raise TypeError(f"unknown item {type(item).__name__}")

    # ------------------------------------------------------------------
    # Statements / blocks

    def _print_block_body(self, block: ast.Block) -> None:
        self.depth += 1
        for stmt in block.stmts:
            self._print_stmt(stmt)
        if block.tail is not None:
            self._emit(self.expr(block.tail))
        self.depth -= 1

    def _print_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.LetStmt):
            mut = "mut " if stmt.mutable else ""
            ty = f": {stmt.ty}" if stmt.ty is not None else ""
            init = f" = {self.expr(stmt.init)}" if stmt.init is not None else ""
            self._emit(f"let {mut}{stmt.name}{ty}{init};")
        elif isinstance(stmt, ast.ExprStmt):
            if isinstance(stmt.expr, (ast.IfExpr, ast.WhileExpr, ast.LoopExpr,
                                      ast.ForExpr, ast.Block)):
                self._print_block_expr_stmt(stmt.expr)
            else:
                semi = ";" if stmt.has_semi else ""
                self._emit(self.expr(stmt.expr) + semi)
        else:  # pragma: no cover
            raise TypeError(f"unknown stmt {type(stmt).__name__}")

    def _print_block_expr_stmt(self, expr: ast.Expr) -> None:
        """Multi-line rendering for block-like expressions in stmt position."""
        if isinstance(expr, ast.Block):
            self._emit("unsafe {" if expr.is_unsafe else "{")
            self._print_block_body(expr)
            self._emit("}")
        elif isinstance(expr, ast.IfExpr):
            self._print_if(expr)
        elif isinstance(expr, ast.WhileExpr):
            self._emit(f"while {self.expr(expr.cond)} {{")
            self._print_block_body(expr.body)
            self._emit("}")
        elif isinstance(expr, ast.LoopExpr):
            self._emit("loop {")
            self._print_block_body(expr.body)
            self._emit("}")
        elif isinstance(expr, ast.ForExpr):
            self._emit(f"for {expr.var} in {self.expr(expr.iterable)} {{")
            self._print_block_body(expr.body)
            self._emit("}")

    def _print_if(self, expr: ast.IfExpr) -> None:
        self._emit(f"if {self.expr(expr.cond)} {{")
        self._print_block_body(expr.then_block)
        node = expr.else_block
        while node is not None:
            if isinstance(node, ast.IfExpr):
                self._emit(f"}} else if {self.expr(node.cond)} {{")
                self._print_block_body(node.then_block)
                node = node.else_block
            else:
                self._emit("} else {")
                self._print_block_body(node)  # type: ignore[arg-type]
                node = None
                break
        self._emit("}")

    # ------------------------------------------------------------------
    # Expressions (single-line form)

    _CAST_PREC = 10

    def expr(self, e: ast.Expr, prec: int = 0) -> str:
        text = self._expr_inner(e)
        if isinstance(e, ast.Binary) and _PREC[e.op] < prec:
            return f"({text})"
        if isinstance(e, ast.Cast) and prec > self._CAST_PREC:
            return f"({text})"
        if isinstance(e, (ast.Assign, ast.CompoundAssign, ast.RangeExpr)) and prec > 0:
            return f"({text})"
        return text

    def _expr_inner(self, e: ast.Expr) -> str:
        if isinstance(e, ast.IntLit):
            return f"{e.value}{e.suffix or ''}"
        if isinstance(e, ast.BoolLit):
            return "true" if e.value else "false"
        if isinstance(e, ast.CharLit):
            return f"'{_escape(e.value)}'"
        if isinstance(e, ast.StrLit):
            return f'"{_escape(e.value)}"'
        if isinstance(e, ast.PathExpr):
            path = "::".join(e.segments)
            if e.generic_args:
                args = ", ".join(str(t) for t in e.generic_args)
                return f"{path}::<{args}>"
            return path
        if isinstance(e, ast.Unary):
            inner = self.expr(e.operand, prec=100)
            if e.op == "&mut":
                return f"&mut {inner}"
            return f"{e.op}{inner}"
        if isinstance(e, ast.Binary):
            prec = _PREC[e.op]
            left = self.expr(e.left, prec)
            right = self.expr(e.right, prec + 1)
            return f"{left} {e.op} {right}"
        if isinstance(e, ast.Assign):
            return f"{self.expr(e.target)} = {self.expr(e.value)}"
        if isinstance(e, ast.CompoundAssign):
            return f"{self.expr(e.target)} {e.op}= {self.expr(e.value)}"
        if isinstance(e, ast.Call):
            args = ", ".join(self.expr(a) for a in e.args)
            return f"{self.expr(e.func, prec=100)}({args})"
        if isinstance(e, ast.MethodCall):
            recv = self.expr(e.receiver, prec=100)
            generics = ""
            if e.generic_args:
                generics = "::<" + ", ".join(str(t) for t in e.generic_args) + ">"
            args = ", ".join(self.expr(a) for a in e.args)
            return f"{recv}.{e.method}{generics}({args})"
        if isinstance(e, ast.FieldAccess):
            return f"{self.expr(e.obj, prec=100)}.{e.field}"
        if isinstance(e, ast.Index):
            return f"{self.expr(e.obj, prec=100)}[{self.expr(e.index)}]"
        if isinstance(e, ast.Cast):
            # `as` chains without parens; arithmetic operands need them.
            return f"{self.expr(e.expr, prec=self._CAST_PREC)} as {e.ty}"
        if isinstance(e, ast.Block):
            return self._inline_block(e)
        if isinstance(e, ast.IfExpr):
            return self._inline_if(e)
        if isinstance(e, ast.WhileExpr):
            return f"while {self.expr(e.cond)} {self._inline_block(e.body)}"
        if isinstance(e, ast.LoopExpr):
            return f"loop {self._inline_block(e.body)}"
        if isinstance(e, ast.ForExpr):
            return f"for {e.var} in {self.expr(e.iterable)} {self._inline_block(e.body)}"
        if isinstance(e, ast.RangeExpr):
            lo = self.expr(e.lo, prec=4) if e.lo is not None else ""
            hi = self.expr(e.hi, prec=4) if e.hi is not None else ""
            dots = "..=" if e.inclusive else ".."
            return f"{lo}{dots}{hi}"
        if isinstance(e, ast.TupleLit):
            if not e.elems:
                return "()"
            if len(e.elems) == 1:
                return f"({self.expr(e.elems[0])},)"
            return "(" + ", ".join(self.expr(x) for x in e.elems) + ")"
        if isinstance(e, ast.ArrayLit):
            return "[" + ", ".join(self.expr(x) for x in e.elems) + "]"
        if isinstance(e, ast.ArrayRepeat):
            return f"[{self.expr(e.elem)}; {self.expr(e.count)}]"
        if isinstance(e, ast.StructLit):
            fields = ", ".join(f"{n}: {self.expr(v)}" for n, v in e.fields)
            return f"{e.name} {{ {fields} }}"
        if isinstance(e, ast.MacroCall):
            if e.name == "vec_repeat":
                return f"vec![{self.expr(e.args[0])}; {self.expr(e.args[1])}]"
            args = ", ".join(self.expr(a) for a in e.args)
            if e.name == "vec":
                return f"vec![{args}]"
            return f"{e.name}!({args})"
        if isinstance(e, ast.Closure):
            move = "move " if e.is_move else ""
            params = ", ".join(e.params)
            body = (self._inline_block(e.body) if isinstance(e.body, ast.Block)
                    else self.expr(e.body))
            return f"{move}|{params}| {body}"
        if isinstance(e, ast.ReturnExpr):
            return f"return {self.expr(e.value)}" if e.value else "return"
        if isinstance(e, ast.BreakExpr):
            return f"break {self.expr(e.value)}" if e.value else "break"
        if isinstance(e, ast.ContinueExpr):
            return "continue"
        raise TypeError(f"unknown expr {type(e).__name__}")  # pragma: no cover

    def _inline_block(self, block: ast.Block) -> str:
        """Render a block on multiple lines, re-using the statement printer."""
        saved_lines, saved_depth = self.lines, self.depth
        self.lines = []
        self.depth = 1
        for stmt in block.stmts:
            self._print_stmt(stmt)
        if block.tail is not None:
            self._emit(self.expr(block.tail))
        inner = self.lines
        self.lines, self.depth = saved_lines, saved_depth

        prefix = "unsafe {" if block.is_unsafe else "{"
        if not inner:
            return prefix + " }"
        if len(inner) == 1 and block.tail is not None and not block.stmts:
            return f"{prefix} {inner[0].strip()} }}"
        pad = _INDENT * self.depth
        body = "\n".join(pad + line for line in inner)
        return f"{prefix}\n{body}\n{pad}}}"

    def _inline_if(self, e: ast.IfExpr) -> str:
        text = f"if {self.expr(e.cond)} {self._inline_block(e.then_block)}"
        if e.else_block is not None:
            if isinstance(e.else_block, ast.IfExpr):
                text += f" else {self._inline_if(e.else_block)}"
            else:
                text += f" else {self._inline_block(e.else_block)}"  # type: ignore[arg-type]
        return text


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        .replace("\t", "\\t").replace("\r", "\\r").replace("\0", "\\0")
    )


def print_program(program: ast.Program) -> str:
    """Render a full program to source text, memoized on the tree (the
    repair loop re-prints the same frozen program every round)."""
    return program.fact("print", _print_fresh)


def _print_fresh(program: ast.Program) -> str:
    return Printer().print_program(program)


def print_expr(expr: ast.Expr) -> str:
    """Render a single expression (single-line where possible)."""
    return Printer().expr(expr)


def print_type(ty: Ty) -> str:
    return str(ty)
