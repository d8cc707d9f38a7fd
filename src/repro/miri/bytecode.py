"""Bytecode compiler for the mini-Rust interpreter hot path.

:func:`compile_program` lowers a parsed :class:`~repro.lang.ast_nodes.Program`
to flat per-function instruction lists that the stack VM in
:mod:`repro.miri.vm` executes.  The lowering is *semantics-free*: every
memory access, borrow retag, race check, and unsafe-context rule still
runs through the exact :class:`~repro.miri.interp.Interpreter` methods the
tree-walker uses (the VM is an ``Interpreter`` subclass) — the compiler
only pre-resolves what the tree-walker re-discovers on every visit:

* dynamic ``getattr`` dispatch becomes an opcode (or, for rarely-executed
  node kinds such as macros, one pre-bound handler reference per site);
* literal values become shared frozen constants instead of per-visit
  allocations;
* ``CALL_SHIMS`` lookups and their unsafe-shim classification happen once
  per call site (``CALL_SHIM`` carries the pre-bound shim function);
* ``break``/``continue``/error-collection recovery becomes a static
  exception table per code object instead of nested Python ``try`` frames.

**Fuel/step parity is the load-bearing invariant.**  The tree-walker burns
one fuel unit per statement, per expression evaluation, per place
evaluation, and per loop iteration; every burn is reproduced here at the
same program point (either as an explicit ``BURN`` or fused into a
``*_B``-suffixed opcode), so ``MiriReport.steps`` — and therefore every
fuel-exhaustion verdict — is byte-identical between engines.  The
differential suite (``tests/miri/test_differential.py``) gates this.

Compiled programs are plain picklable dataclasses (instruction operands
are frozen values, AST node references, and module-level functions), so
shards can ship them across process pools.  :func:`compile_source`
memoizes compilation per exact source text.  The memo deliberately keys
on the **text**, not on :func:`~repro.miri.fingerprint.source_fingerprint`:
fingerprint-equal sources differ in spans and identifier spellings, and
the detector's reports must quote the caller's exact source — fingerprint
dedup stays where it already lives, in :func:`~repro.miri.detect_ub_batch`
above this layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..lang import ast_nodes as ast
from ..lang import types as ty
from ..lang.span import Span
from .interp import _UNSAFE_SHIMS, Interpreter
from .shims import CALL_SHIMS, normalize_path
from .values import UNIT_VALUE, VBool, VChar, VInt, VStr

# ---------------------------------------------------------------------------
# Opcodes.  Integer constants (not an Enum) keep dispatch comparisons cheap
# in the VM's inner loop.  ``*_B`` opcodes fuse the tree-walker's
# entry burn with their action.

OP_BURN = 0            # burn(span)
OP_PUSH = 1            # push constant value
OP_PUSH_B = 2          # burn + push constant value
OP_POP = 3             # discard top of stack
OP_DUP = 4             # duplicate top of stack
OP_JUMP = 5            # unconditional jump; arg = target ip
OP_IF_FALSE = 6        # pop cond; arg = (target, message)
OP_EVAL_B = 7          # burn; arg = (handler, node): push handler(vm, node, env, tid)
OP_PLACE_NAME_B = 8    # burn; arg = (name, for_write): push place
OP_DEREF_PLACE = 9     # pop value; arg = for_write: push deref place
OP_AUTODEREF = 10      # pop place; push autoderef'd place
OP_FIELD_PLACE = 11    # pop place; arg = field name: push field place
OP_INDEX_PLACE = 12    # pop index, place; push element place
OP_TEMP_PLACE = 13     # pop value; push temporary place
OP_READ = 14           # pop place; push loaded value
OP_STORE = 15          # pop place, value; write; push unit
OP_COMPOUND = 16       # pop operand, current, place; arg = op; write; push unit
OP_BINOP = 17          # pop right, left; arg = op; push result
OP_UNOP = 18           # pop value; arg = op; push result
OP_BOOL_CIRCUIT = 19   # pop left; arg = (target, is_and); maybe short-circuit
OP_BOOL_TAIL = 20      # pop right; push VBool(right.value)
OP_REF = 21            # pop place; arg = mutable: push reference
OP_MAKE_TUPLE = 22     # pop n elems; arg = n
OP_MAKE_ARRAY = 23     # pop n elems; arg = n
OP_MAKE_REPEAT = 24    # pop count, elem
OP_CHECK_STRUCT = 25   # arg = struct name; raise unless registered
OP_MAKE_STRUCT = 26    # pop n field values; arg = (node, n)
OP_MAKE_RANGE = 27     # pop hi, lo; arg = inclusive
OP_MAKE_CLOSURE_B = 28  # burn; arg = Closure node: push VClosure
OP_CAST = 29           # pop value; arg = target type
OP_CALL_PATH = 30      # pop argc args; arg = (node, argc): runtime resolution
OP_CALL_SHIM = 31      # pop argc args; arg = (shim, unsafe_label, node, argc)
OP_CALL_SOME = 32      # pop argc args; arg = argc: push VOption
OP_CALL_VALUE = 33     # pop callee, argc args; arg = argc
OP_METHOD_PLACE = 34   # pop place, argc args; arg = (node, argc)
OP_METHOD_VALUE = 35   # pop value, argc args; arg = (node, argc)
OP_PUSH_SCOPE = 36     # arg = is_unsafe
OP_POP_SCOPE = 37      # arg = is_unsafe
OP_LET_BIND = 38       # pop value; arg = LetStmt node
OP_DECLARE = 39        # arg = LetStmt node (no initializer)
OP_RAISE_COMPILE = 40  # arg = message
OP_RAISE_UNSUPPORTED = 41  # arg = message
OP_RAISE_RETURN = 42   # pop value; raise _Return
OP_RAISE_BREAK = 43    # pop value; raise _Break
OP_RAISE_CONTINUE = 44  # raise _Continue
OP_FOR_SETUP = 45      # pop iterable; arg = var name; push loop state
OP_FOR_NEXT = 46       # arg = exit target; step or jump
OP_END_FOR = 47        # pop loop state; pop scope; push unit

OP_NAMES = {value: name[3:] for name, value in sorted(globals().items())
            if name.startswith("OP_")}

#: Exception-table kinds.
K_COLLECT = 0
K_BREAK = 1
K_BREAK_VALUE = 2
K_CONTINUE = 3

K_NAMES = {K_COLLECT: "collect", K_BREAK: "break",
           K_BREAK_VALUE: "break_value", K_CONTINUE: "continue"}


class BytecodeError(Exception):
    """An internal compiler failure (never a property of the *program*:
    unsupported constructs lower to the tree-walker's own raising
    behaviour).  Callers fall back to the tree engine when they see it."""


@dataclass(frozen=True)
class Handler:
    """One exception-table entry: while ``start <= ip < end``, an escaping
    signal of ``kind`` restores the recorded stack/scope/unsafe depths and
    resumes at ``target``."""

    start: int
    end: int
    kind: int
    target: int
    depth: int
    scope_depth: int
    unsafe_offset: int


@dataclass
class Code:
    """One compiled execution unit (function body, closure body, or
    const/static initializer).  ``instrs`` is a tuple of
    ``(opcode, operand, span)`` triples; executing a ``Code`` leaves
    exactly one value on the operand stack."""

    name: str
    instrs: tuple = ()
    handlers: tuple = ()


@dataclass
class CompiledProgram:
    """A program plus every compiled code object, keyed by ``node_id``
    within ``program`` (function bodies by ``FnItem.node_id``, closure
    codes by their *body* node, initializers by item node)."""

    program: ast.Program
    fn_codes: dict = field(default_factory=dict)
    closure_codes: dict = field(default_factory=dict)
    init_codes: dict = field(default_factory=dict)
    source: str | None = None

    def codes(self) -> list[tuple[str, Code]]:
        """Every compiled unit with a stable label, for diagnostics."""
        out = []
        out.extend(("fn", code) for code in self.fn_codes.values())
        out.extend(("closure", code) for code in self.closure_codes.values())
        out.extend(("init", code) for code in self.init_codes.values())
        return [(code.name, code) for _kind, code in out]


# ---------------------------------------------------------------------------
# Compiler

#: Statically-resolvable expression node types; everything else delegates
#: to the tree-walker's handler through ``EVAL_B`` (MacroCall today).
_INT_TYPES = ty.INT_TYPES


def _literal_value(expr: ast.Expr):
    """The constant a literal node evaluates to, or None."""
    if isinstance(expr, ast.IntLit):
        int_ty = _INT_TYPES.get(expr.suffix or "i32", ty.I32)
        return VInt(expr.value, int_ty)
    if isinstance(expr, ast.BoolLit):
        return VBool(expr.value)
    if isinstance(expr, ast.CharLit):
        return VChar(expr.value)
    if isinstance(expr, ast.StrLit):
        return VStr(expr.value)
    return None


class _UnitCompiler:
    """Compiles one execution unit into a :class:`Code`.

    Tracks the simulated operand-stack depth, lexical scope depth, and
    unsafe-block offset at every instruction so exception-table entries
    can restore them exactly; a simulation mismatch is a compiler bug and
    raises :class:`BytecodeError` (callers then fall back to the tree
    engine rather than risk a wrong report).
    """

    def __init__(self, name: str, closures: list | None = None):
        self.name = name
        self.instrs: list[tuple] = []
        self.handlers: list[Handler] = []
        self.closures = closures
        self.depth = 0
        self.scope_depth = 0
        self.unsafe_offset = 0

    # -- emission helpers --------------------------------------------------

    def emit(self, op: int, arg, span: Span, delta: int) -> int:
        index = len(self.instrs)
        self.instrs.append((op, arg, span))
        self.depth += delta
        if self.depth < 0:
            raise BytecodeError(
                f"{self.name}: stack underflow at instruction {index}")
        return index

    def patch(self, index: int, target: int) -> None:
        op, arg, span = self.instrs[index]
        if op == OP_IF_FALSE:
            arg = (target, arg[1])
        elif op == OP_BOOL_CIRCUIT:
            arg = (target, arg[1])
        else:
            arg = target
        self.instrs[index] = (op, arg, span)

    def here(self) -> int:
        return len(self.instrs)

    def finish(self) -> Code:
        if self.depth != 1:
            raise BytecodeError(
                f"{self.name}: code ends with stack depth {self.depth}")
        if self.scope_depth or self.unsafe_offset:
            raise BytecodeError(f"{self.name}: unbalanced scopes")
        return Code(self.name, tuple(self.instrs), tuple(self.handlers))

    # -- blocks and statements --------------------------------------------

    def block(self, block: ast.Block) -> None:
        """Scope code: mirrors ``Interpreter.eval_block`` (no entry burn)."""
        self.emit(OP_PUSH_SCOPE, block.is_unsafe, block.span, 0)
        self.scope_depth += 1
        if block.is_unsafe:
            self.unsafe_offset += 1
        for stmt in block.stmts:
            self.stmt(stmt)
        if block.tail is not None:
            self.expr(block.tail)
        else:
            self.emit(OP_PUSH, UNIT_VALUE, block.span, +1)
        self.scope_depth -= 1
        if block.is_unsafe:
            self.unsafe_offset -= 1
        self.emit(OP_POP_SCOPE, block.is_unsafe, block.span, 0)

    def stmt(self, stmt: ast.Stmt) -> None:
        start = self.here()
        base_depth = self.depth
        self.emit(OP_BURN, None, stmt.span, 0)
        if isinstance(stmt, ast.LetStmt):
            if stmt.init is None:
                if stmt.ty is None:
                    self.emit(OP_RAISE_COMPILE,
                              f"type annotations needed for `{stmt.name}`",
                              stmt.span, 0)
                else:
                    self.emit(OP_DECLARE, stmt, stmt.span, 0)
            else:
                self.expr(stmt.init)
                self.emit(OP_LET_BIND, stmt, stmt.span, -1)
        elif isinstance(stmt, ast.ExprStmt):
            self.expr(stmt.expr)
            self.emit(OP_POP, None, stmt.span, -1)
        else:
            self.emit(OP_RAISE_UNSUPPORTED,
                      f"statement {type(stmt).__name__}", stmt.span, 0)
        # Error-collection recovery point: mirror the per-statement
        # UbSignal/CompileError catch in ``Interpreter._exec_stmt``.
        self.handlers.append(Handler(start, self.here(), K_COLLECT,
                                     self.here(), base_depth,
                                     self.scope_depth, self.unsafe_offset))

    # -- places ------------------------------------------------------------

    def place(self, expr: ast.Expr, for_write: bool) -> None:
        """Mirror ``Interpreter.eval_place`` (entry burn + dispatch)."""
        if isinstance(expr, ast.PathExpr) and expr.is_local:
            self.emit(OP_PLACE_NAME_B, (expr.name, for_write), expr.span, +1)
            return
        if isinstance(expr, ast.Unary) and expr.op == "*":
            self.emit(OP_BURN, None, expr.span, 0)
            self.expr(expr.operand)
            self.emit(OP_DEREF_PLACE, for_write, expr.span, 0)
            return
        if isinstance(expr, ast.FieldAccess):
            self.emit(OP_BURN, None, expr.span, 0)
            self.place(expr.obj, False)
            self.emit(OP_AUTODEREF, None, expr.span, 0)
            self.emit(OP_FIELD_PLACE, expr.field, expr.span, 0)
            return
        if isinstance(expr, ast.Index):
            self.emit(OP_BURN, None, expr.span, 0)
            self.place(expr.obj, False)
            self.emit(OP_AUTODEREF, None, expr.span, 0)
            self.expr(expr.index)
            self.emit(OP_INDEX_PLACE, None, expr.span, -1)
            return
        # Not a place: materialize a temporary (burn for eval_place, then
        # the expression's own evaluation burn).
        self.emit(OP_BURN, None, expr.span, 0)
        self.expr(expr)
        self.emit(OP_TEMP_PLACE, None, expr.span, 0)

    # -- expressions -------------------------------------------------------

    def expr(self, expr: ast.Expr) -> None:
        literal = _literal_value(expr)
        if literal is not None:
            self.emit(OP_PUSH_B, literal, expr.span, +1)
            return
        method = getattr(self, f"_c_{type(expr).__name__}", None)
        if method is not None:
            method(expr)
            return
        handler = getattr(Interpreter, f"_eval_{type(expr).__name__}", None)
        if handler is None:
            # eval_expr burns, then reports the unsupported node.
            self.emit(OP_BURN, None, expr.span, 0)
            self.emit(OP_RAISE_UNSUPPORTED,
                      f"expression {type(expr).__name__}", expr.span, 0)
            self.emit(OP_PUSH, UNIT_VALUE, expr.span, +1)  # unreachable
            return
        self.emit(OP_EVAL_B, (handler, expr), expr.span, +1)

    def _c_PathExpr(self, expr: ast.PathExpr) -> None:
        self.emit(OP_EVAL_B, (Interpreter._eval_PathExpr, expr),
                  expr.span, +1)

    def _c_Unary(self, expr: ast.Unary) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        if expr.op == "*":
            self.expr(expr.operand)
            self.emit(OP_DEREF_PLACE, False, expr.span, 0)
            self.emit(OP_READ, None, expr.span, 0)
            return
        if expr.op in ("&", "&mut"):
            mutable = expr.op == "&mut"
            self.place(expr.operand, mutable)
            self.emit(OP_REF, mutable, expr.span, 0)
            return
        self.expr(expr.operand)
        self.emit(OP_UNOP, expr.op, expr.span, 0)

    def _c_Binary(self, expr: ast.Binary) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        if expr.op in ("&&", "||"):
            self.expr(expr.left)
            circuit = self.emit(OP_BOOL_CIRCUIT, (None, expr.op == "&&"),
                                expr.span, -1)
            self.expr(expr.right)
            self.emit(OP_BOOL_TAIL, None, expr.span, 0)
            self.patch(circuit, self.here())
            return
        self.expr(expr.left)
        self.expr(expr.right)
        self.emit(OP_BINOP, expr.op, expr.span, -1)

    def _c_Assign(self, expr: ast.Assign) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        self.expr(expr.value)
        self.place(expr.target, True)
        self.emit(OP_STORE, None, expr.span, -1)

    def _c_CompoundAssign(self, expr: ast.CompoundAssign) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        self.place(expr.target, True)
        self.emit(OP_DUP, None, expr.span, +1)
        self.emit(OP_READ, None, expr.span, 0)
        self.expr(expr.value)
        self.emit(OP_COMPOUND, expr.op, expr.span, -2)

    def _c_Call(self, expr: ast.Call) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        for arg in expr.args:
            self.expr(arg)
        argc = len(expr.args)
        callee = expr.func
        if isinstance(callee, ast.PathExpr):
            if callee.is_local:
                self.emit(OP_CALL_PATH, (callee, argc), expr.span, -argc + 1)
                return
            normalized = normalize_path(callee.segments)
            shim = CALL_SHIMS.get(normalized)
            if shim is not None:
                label = (f"call to `{callee.full}`"
                         if normalized in _UNSAFE_SHIMS else None)
                self.emit(OP_CALL_SHIM, (shim, label, callee, argc),
                          expr.span, -argc + 1)
                return
            if normalized == "Some":
                self.emit(OP_CALL_SOME, argc, expr.span, -argc + 1)
                return
            self.emit(OP_RAISE_COMPILE,
                      f"cannot find function `{callee.full}` in this scope",
                      expr.span, 0)
            self.depth -= argc  # unreachable: rebalance the simulation
            self.emit(OP_PUSH, UNIT_VALUE, expr.span, +1)
            return
        self.expr(callee)
        self.emit(OP_CALL_VALUE, argc, expr.span, -argc)

    def _c_MethodCall(self, expr: ast.MethodCall) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        for arg in expr.args:
            self.expr(arg)
        argc = len(expr.args)
        receiver = expr.receiver
        is_place_expr = isinstance(
            receiver, (ast.PathExpr, ast.FieldAccess, ast.Index)
        ) or (isinstance(receiver, ast.Unary) and receiver.op == "*")
        if is_place_expr:
            self.place(receiver, False)
            self.emit(OP_METHOD_PLACE, (expr, argc), expr.span, -argc)
        else:
            self.expr(receiver)
            self.emit(OP_METHOD_VALUE, (expr, argc), expr.span, -argc)

    def _c_FieldAccess(self, expr: ast.FieldAccess) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        self.place(expr.obj, False)
        self.emit(OP_AUTODEREF, None, expr.span, 0)
        self.emit(OP_FIELD_PLACE, expr.field, expr.span, 0)
        self.emit(OP_READ, None, expr.span, 0)

    def _c_Index(self, expr: ast.Index) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        self.place(expr.obj, False)
        self.emit(OP_AUTODEREF, None, expr.span, 0)
        self.expr(expr.index)
        self.emit(OP_INDEX_PLACE, None, expr.span, -1)
        self.emit(OP_READ, None, expr.span, 0)

    def _c_Cast(self, expr: ast.Cast) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        self.expr(expr.expr)
        self.emit(OP_CAST, expr.ty, expr.span, 0)

    def _c_TupleLit(self, expr: ast.TupleLit) -> None:
        if not expr.elems:
            self.emit(OP_PUSH_B, UNIT_VALUE, expr.span, +1)
            return
        self.emit(OP_BURN, None, expr.span, 0)
        for elem in expr.elems:
            self.expr(elem)
        self.emit(OP_MAKE_TUPLE, len(expr.elems), expr.span,
                  -len(expr.elems) + 1)

    def _c_ArrayLit(self, expr: ast.ArrayLit) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        for elem in expr.elems:
            self.expr(elem)
        self.emit(OP_MAKE_ARRAY, len(expr.elems), expr.span,
                  -len(expr.elems) + 1)

    def _c_ArrayRepeat(self, expr: ast.ArrayRepeat) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        self.expr(expr.elem)
        self.expr(expr.count)
        self.emit(OP_MAKE_REPEAT, None, expr.span, -1)

    def _c_StructLit(self, expr: ast.StructLit) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        self.emit(OP_CHECK_STRUCT, expr.name, expr.span, 0)
        for _name, value in expr.fields:
            self.expr(value)
        self.emit(OP_MAKE_STRUCT, (expr, len(expr.fields)), expr.span,
                  -len(expr.fields) + 1)

    def _c_RangeExpr(self, expr: ast.RangeExpr) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        if expr.lo is not None:
            self.expr(expr.lo)
        else:
            self.emit(OP_PUSH, VInt(0, ty.I64), expr.span, +1)
        if expr.hi is None:
            self.emit(OP_RAISE_UNSUPPORTED, "unbounded ranges", expr.span, 0)
            self.emit(OP_PUSH, UNIT_VALUE, expr.span, +1)  # unreachable
            self.emit(OP_MAKE_RANGE, expr.inclusive, expr.span, -1)
            return
        self.expr(expr.hi)
        self.emit(OP_MAKE_RANGE, expr.inclusive, expr.span, -1)

    def _c_Closure(self, expr: ast.Closure) -> None:
        if self.closures is not None:
            self.closures.append(expr)
        self.emit(OP_MAKE_CLOSURE_B, expr, expr.span, +1)

    def _c_Block(self, expr: ast.Block) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        self.block(expr)

    def _c_IfExpr(self, expr: ast.IfExpr) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        self.expr(expr.cond)
        branch = self.emit(OP_IF_FALSE,
                           (None, "`if` condition must be `bool`"),
                           expr.span, -1)
        self.block(expr.then_block)
        self.depth -= 1  # branches merge: only one side executes
        skip = self.emit(OP_JUMP, None, expr.span, 0)
        self.patch(branch, self.here())
        if expr.else_block is None:
            self.emit(OP_PUSH, UNIT_VALUE, expr.span, +1)
        elif isinstance(expr.else_block, ast.Block):
            self.block(expr.else_block)
        else:
            self.expr(expr.else_block)
        self.patch(skip, self.here())

    def _c_WhileExpr(self, expr: ast.WhileExpr) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        base_depth = self.depth
        head = self.here()
        self.emit(OP_BURN, None, expr.span, 0)
        self.expr(expr.cond)
        branch = self.emit(OP_IF_FALSE,
                           (None, "`while` condition must be `bool`"),
                           expr.span, -1)
        body_start = self.here()
        self.block(expr.body)
        self.emit(OP_POP, None, expr.span, -1)
        jump = self.emit(OP_JUMP, head, expr.span, 0)
        body_end = self.here()
        self.patch(branch, body_end)
        self.emit(OP_PUSH, UNIT_VALUE, expr.span, +1)
        self.handlers.append(Handler(body_start, body_end, K_BREAK, body_end,
                                     base_depth, self.scope_depth,
                                     self.unsafe_offset))
        self.handlers.append(Handler(body_start, body_end, K_CONTINUE, head,
                                     base_depth, self.scope_depth,
                                     self.unsafe_offset))

    def _c_LoopExpr(self, expr: ast.LoopExpr) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        base_depth = self.depth
        head = self.here()
        self.emit(OP_BURN, None, expr.span, 0)
        body_start = self.here()
        self.block(expr.body)
        self.emit(OP_POP, None, expr.span, -1)
        self.emit(OP_JUMP, head, expr.span, 0)
        body_end = self.here()
        # Normal exit is only through `break value` — the handler pushes it.
        self.depth += 1
        self.handlers.append(Handler(body_start, body_end, K_BREAK_VALUE,
                                     body_end, base_depth, self.scope_depth,
                                     self.unsafe_offset))
        self.handlers.append(Handler(body_start, body_end, K_CONTINUE, head,
                                     base_depth, self.scope_depth,
                                     self.unsafe_offset))

    def _c_ForExpr(self, expr: ast.ForExpr) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        self.expr(expr.iterable)
        self.emit(OP_FOR_SETUP, expr.var, expr.span, 0)
        self.scope_depth += 1
        state_depth = self.depth
        head = self.here()
        step = self.emit(OP_FOR_NEXT, None, expr.span, 0)
        body_start = self.here()
        self.block(expr.body)
        self.emit(OP_POP, None, expr.span, -1)
        self.emit(OP_JUMP, head, expr.span, 0)
        body_end = self.here()
        self.patch(step, body_end)
        self.emit(OP_END_FOR, None, expr.span, 0)
        self.scope_depth -= 1
        self.handlers.append(Handler(body_start, body_end, K_BREAK, body_end,
                                     state_depth, self.scope_depth + 1,
                                     self.unsafe_offset))
        self.handlers.append(Handler(body_start, body_end, K_CONTINUE, head,
                                     state_depth, self.scope_depth + 1,
                                     self.unsafe_offset))

    def _c_ReturnExpr(self, expr: ast.ReturnExpr) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        if expr.value is not None:
            self.expr(expr.value)
        else:
            self.emit(OP_PUSH, UNIT_VALUE, expr.span, +1)
        self.emit(OP_RAISE_RETURN, None, expr.span, 0)

    def _c_BreakExpr(self, expr: ast.BreakExpr) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        if expr.value is not None:
            self.expr(expr.value)
        else:
            self.emit(OP_PUSH, UNIT_VALUE, expr.span, +1)
        self.emit(OP_RAISE_BREAK, None, expr.span, 0)

    def _c_ContinueExpr(self, expr: ast.ContinueExpr) -> None:
        self.emit(OP_BURN, None, expr.span, 0)
        self.emit(OP_RAISE_CONTINUE, None, expr.span, 0)
        self.emit(OP_PUSH, UNIT_VALUE, expr.span, +1)  # unreachable


def _compile_block_code(block: ast.Block, name: str,
                        closures: list | None = None) -> Code:
    unit = _UnitCompiler(name, closures)
    unit.block(block)
    return unit.finish()


def _compile_expr_code(expr: ast.Expr, name: str,
                       closures: list | None = None) -> Code:
    unit = _UnitCompiler(name, closures)
    unit.expr(expr)
    return unit.finish()


def compile_program(program: ast.Program,
                    source: str | None = None) -> CompiledProgram:
    """Compile every function body, closure body, and const/static
    initializer of ``program``.  Raises :class:`BytecodeError` on an
    internal lowering failure (callers fall back to the tree engine).

    Closure bodies are collected on a worklist as each unit compiles its
    ``MAKE_CLOSURE`` sites (no whole-program walk); a closure nested in an
    expression the compiler only lowers as an opaque tree-eval is simply
    left uncompiled, and the VM's closure-body hook falls back to the tree
    engine for it.
    """
    try:
        compiled = CompiledProgram(program, source=source)
        pending: list[ast.Closure] = []
        for item in program.items:
            if isinstance(item, ast.FnItem):
                compiled.fn_codes[item.node_id] = _compile_block_code(
                    item.body, f"fn {item.name}", pending)
            elif isinstance(item, (ast.ConstItem, ast.StaticItem)):
                compiled.init_codes[item.node_id] = _compile_expr_code(
                    item.init, f"init {item.name}", pending)
        while pending:
            node = pending.pop()
            body = node.body
            if body.node_id in compiled.closure_codes:
                continue
            name = f"closure@{node.span.line}:{node.span.col}"
            if isinstance(body, ast.Block):
                code = _compile_block_code(body, name, pending)
            else:
                code = _compile_expr_code(body, name, pending)
            compiled.closure_codes[body.node_id] = code
        return compiled
    except BytecodeError:
        raise
    except Exception as exc:  # pragma: no cover - compiler bug guard
        raise BytecodeError(f"lowering failed: {exc!r}") from exc


@lru_cache(maxsize=512)
def compile_source(source: str) -> CompiledProgram:
    """Parse (through the parser's memo) and compile ``source``, memoized
    per exact text.

    The compiled program references the parser memo's tree, the same
    frozen value :func:`~repro.lang.parser.parse_program` hands every
    caller; no caller edits a shared tree (agents rewrite private clones),
    so the cached code can never be invalidated under it.  A memo hit
    skips the parse and the lowering; the tree engine re-walks the AST on
    every run.
    """
    from ..lang.parser import _parse_program_cached
    program = _parse_program_cached(source)
    compiled = compile_program(program, source=source)
    from . import DETECTOR_STATS
    DETECTOR_STATS.record(compiles=1)
    return compiled


def compile_cache_info():
    """The compile memo's ``lru_cache`` statistics (diagnostics/tests)."""
    return compile_source.cache_info()


# ---------------------------------------------------------------------------
# Disassembler


def _arg_repr(op: int, arg) -> str:
    if arg is None:
        return ""
    if op == OP_EVAL_B:
        handler, node = arg
        return f"{handler.__name__} {type(node).__name__}#{node.node_id}"
    if op == OP_CALL_SHIM:
        shim, label, node, argc = arg
        unsafe = " unsafe" if label else ""
        return f"{shim.__name__}/{argc}{unsafe}"
    if op in (OP_CALL_PATH, OP_METHOD_PLACE, OP_METHOD_VALUE,
              OP_MAKE_STRUCT):
        node, argc = arg
        return f"{type(node).__name__}#{node.node_id}/{argc}"
    if op in (OP_LET_BIND, OP_DECLARE, OP_MAKE_CLOSURE_B):
        return f"{type(arg).__name__}#{arg.node_id}"
    if op == OP_CAST:
        return str(arg)
    return repr(arg)


def disassemble(code: Code) -> str:
    """Human-readable (and deterministic) listing of one code object."""
    lines = [f"{code.name}:"]
    for index, (op, arg, span) in enumerate(code.instrs):
        name = OP_NAMES.get(op, f"OP{op}")
        rendered = _arg_repr(op, arg)
        location = f"@{span.line}:{span.col}" if span.line else ""
        lines.append(f"  {index:4d}  {name:14s} {rendered:<40s} {location}"
                     .rstrip())
    for handler in code.handlers:
        lines.append(
            f"  handler {K_NAMES[handler.kind]:11s} "
            f"[{handler.start},{handler.end}) -> {handler.target} "
            f"depth={handler.depth} scopes={handler.scope_depth} "
            f"unsafe={handler.unsafe_offset}")
    return "\n".join(lines)


def disassemble_program(compiled: CompiledProgram) -> str:
    """Listing of every code object, in deterministic program order."""
    sections = [disassemble(code) for _name, code in compiled.codes()]
    return "\n\n".join(sections)
