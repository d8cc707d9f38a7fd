"""Stack VM executing the bytecode from :mod:`repro.miri.bytecode`.

:class:`VM` subclasses :class:`~repro.miri.interp.Interpreter` and
overrides exactly three hooks — function bodies, closure bodies, and
const/static initializers — replacing the recursive tree walk with a
flat dispatch loop over compiled instructions.  Everything with
semantics (memory accesses, stacked borrows, race detection, unsafe
rules, shims, method tables, output formatting) is the inherited
interpreter implementation, so the two engines cannot drift on a rule:
they can only drift on *when* an operation happens, and the differential
suite pins that to byte-identical reports (including the ``steps``
fuel metric).

Control flow uses the interpreter's own ``_Break``/``_Continue``/
``_Return`` exceptions; the VM catches the first two via each code
object's static exception table (which also hosts the collect-mode
statement recovery) and lets ``_Return`` propagate to the shared
``_call_user_fn``/``_run_closure_body`` frames.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang import types as ty
from .bytecode import (
    K_BREAK,
    K_BREAK_VALUE,
    K_COLLECT,
    K_CONTINUE,
    OP_AUTODEREF,
    OP_BINOP,
    OP_BOOL_CIRCUIT,
    OP_BOOL_TAIL,
    OP_BURN,
    OP_CALL_PATH,
    OP_CALL_SHIM,
    OP_CALL_SOME,
    OP_CALL_VALUE,
    OP_CAST,
    OP_CHECK_STRUCT,
    OP_COMPOUND,
    OP_DECLARE,
    OP_DEREF_PLACE,
    OP_DUP,
    OP_END_FOR,
    OP_EVAL_B,
    OP_FIELD_PLACE,
    OP_FOR_NEXT,
    OP_FOR_SETUP,
    OP_IF_FALSE,
    OP_INDEX_PLACE,
    OP_JUMP,
    OP_LET_BIND,
    OP_MAKE_ARRAY,
    OP_MAKE_CLOSURE_B,
    OP_MAKE_RANGE,
    OP_MAKE_REPEAT,
    OP_MAKE_STRUCT,
    OP_MAKE_TUPLE,
    OP_METHOD_PLACE,
    OP_METHOD_VALUE,
    OP_PLACE_NAME_B,
    OP_POP,
    OP_POP_SCOPE,
    OP_PUSH,
    OP_PUSH_B,
    OP_PUSH_SCOPE,
    OP_RAISE_BREAK,
    OP_RAISE_COMPILE,
    OP_RAISE_CONTINUE,
    OP_RAISE_RETURN,
    OP_RAISE_UNSUPPORTED,
    OP_READ,
    OP_REF,
    OP_STORE,
    OP_TEMP_PLACE,
    OP_UNOP,
    Code,
    CompiledProgram,
)
from .errors import CompileError, InterpUnsupported, MiriReport, UbSignal
from .interp import (
    DEFAULT_FUEL,
    Env,
    FuelExhausted,
    Interpreter,
    VClosure,
    _Break,
    _Continue,
    _Return,
)
from .values import UNIT_VALUE, VBool, VInt, VOption, VRangeIter


class VM(Interpreter):
    """Bytecode-executing interpreter; byte-identical to the tree walk."""

    def __init__(self, compiled: CompiledProgram, *,
                 fuel: int = DEFAULT_FUEL, collect: bool = False,
                 max_errors: int = 8, debug: bool = False):
        super().__init__(compiled.program, fuel=fuel, collect=collect,
                         max_errors=max_errors, debug=debug)
        self.compiled = compiled
        self._fn_codes = compiled.fn_codes
        self._closure_codes = compiled.closure_codes
        self._init_codes = compiled.init_codes

    # -- execution hooks ---------------------------------------------------

    def _eval_fn_body(self, fn, env, tid):
        code = self._fn_codes.get(fn.node_id)
        if code is None:  # compiled against a different tree: stay correct
            return super()._eval_fn_body(fn, env, tid)
        return self._run_code(code, env, tid)

    def _eval_closure_body(self, closure, env, tid):
        code = self._closure_codes.get(closure.body.node_id)
        if code is None:
            return super()._eval_closure_body(closure, env, tid)
        return self._run_code(code, env, tid)

    def _eval_item_init(self, item):
        code = self._init_codes.get(item.node_id)
        if code is None:
            return super()._eval_item_init(item)
        return self._run_code(code, self.globals, 0)

    # -- dispatch loop -----------------------------------------------------

    @staticmethod
    def _find_handler(handlers, ip, kinds):
        """Innermost table entry of one of ``kinds`` covering ``ip``."""
        best = None
        for handler in handlers:
            if handler.start <= ip < handler.end and handler.kind in kinds:
                if (best is None or handler.start > best.start
                        or (handler.start == best.start
                            and handler.end < best.end)):
                    best = handler
        return best

    def _run_code(self, code: Code, env: Env, tid: int):
        instrs = code.instrs
        handlers = code.handlers
        count = len(instrs)
        stack: list = []
        push = stack.append
        pop = stack.pop
        base_unsafe = self.unsafe_depth
        scope_depth = 0
        report = self.report
        ip = 0
        while ip < count:
            op, arg, span = instrs[ip]
            try:
                if op == OP_BURN:
                    self.fuel -= 1
                    report.steps += 1
                    if self.fuel <= 0:
                        raise FuelExhausted()
                elif op == OP_PUSH_B:
                    self.fuel -= 1
                    report.steps += 1
                    if self.fuel <= 0:
                        raise FuelExhausted()
                    push(arg)
                elif op == OP_EVAL_B:
                    self.fuel -= 1
                    report.steps += 1
                    if self.fuel <= 0:
                        raise FuelExhausted()
                    handler, node = arg
                    push(handler(self, node, env, tid))
                elif op == OP_PLACE_NAME_B:
                    self.fuel -= 1
                    report.steps += 1
                    if self.fuel <= 0:
                        raise FuelExhausted()
                    push(self._place_for_name(arg[0], env, span, arg[1]))
                elif op == OP_READ:
                    push(self.read_place(pop(), tid, span))
                elif op == OP_PUSH:
                    push(arg)
                elif op == OP_BINOP:
                    right = pop()
                    left = pop()
                    push(self._binop(arg, left, right, span))
                elif op == OP_POP:
                    pop()
                elif op == OP_JUMP:
                    ip = arg
                    continue
                elif op == OP_IF_FALSE:
                    cond = pop()
                    if not isinstance(cond, VBool):
                        raise CompileError(arg[1], span)
                    if not cond.value:
                        ip = arg[0]
                        continue
                elif op == OP_PUSH_SCOPE:
                    env = Env(env)
                    scope_depth += 1
                    if arg:
                        self.unsafe_depth += 1
                elif op == OP_POP_SCOPE:
                    env = env.parent
                    scope_depth -= 1
                    if arg:
                        self.unsafe_depth -= 1
                elif op == OP_STORE:
                    place = pop()
                    value = pop()
                    self.write_place(place, value, tid, span)
                    push(UNIT_VALUE)
                elif op == OP_LET_BIND:
                    self._bind_let(arg, pop(), env, tid)
                elif op == OP_CALL_SHIM:
                    shim, unsafe_label, node, argc = arg
                    if argc:
                        args = stack[-argc:]
                        del stack[-argc:]
                    else:
                        args = []
                    if unsafe_label is not None:
                        self.require_unsafe(unsafe_label, span)
                    push(shim(self, args, node.generic_args, tid, span))
                elif op == OP_CALL_PATH:
                    node, argc = arg
                    if argc:
                        args = stack[-argc:]
                        del stack[-argc:]
                    else:
                        args = []
                    push(self._call_path(node, args, env, tid, span))
                elif op == OP_METHOD_PLACE:
                    node, argc = arg
                    place = pop()
                    if argc:
                        args = stack[-argc:]
                        del stack[-argc:]
                    else:
                        args = []
                    place = self._autoderef_for_method(place, tid, span)
                    push(self._dispatch_method_on_place(place, node, args,
                                                        tid))
                elif op == OP_METHOD_VALUE:
                    node, argc = arg
                    value = pop()
                    if argc:
                        args = stack[-argc:]
                        del stack[-argc:]
                    else:
                        args = []
                    push(self._dispatch_method_on_value(value, node, args,
                                                        tid))
                elif op == OP_CALL_VALUE:
                    callee = pop()
                    if arg:
                        args = stack[-arg:]
                        del stack[-arg:]
                    else:
                        args = []
                    push(self.call_fn_value(callee, args, tid, span))
                elif op == OP_CALL_SOME:
                    if arg:
                        args = stack[-arg:]
                        del stack[-arg:]
                    else:
                        args = []
                    inner = args[0]
                    push(VOption(inner, self.type_of_value(inner)))
                elif op == OP_DEREF_PLACE:
                    push(self._deref_place(pop(), span, arg))
                elif op == OP_AUTODEREF:
                    push(self._autoderef(pop(), tid, span))
                elif op == OP_FIELD_PLACE:
                    push(self._field_place(pop(), arg, span))
                elif op == OP_INDEX_PLACE:
                    index = pop()
                    push(self._index_place(pop(), index, tid, span))
                elif op == OP_TEMP_PLACE:
                    push(self._temp_place(pop(), span, tid))
                elif op == OP_UNOP:
                    push(self._unary_value(arg, pop(), span))
                elif op == OP_BOOL_CIRCUIT:
                    left = pop()
                    if not isinstance(left, VBool):
                        raise CompileError("logical op needs bool operands",
                                           span)
                    if arg[1]:
                        if not left.value:
                            push(VBool(False))
                            ip = arg[0]
                            continue
                    elif left.value:
                        push(VBool(True))
                        ip = arg[0]
                        continue
                elif op == OP_BOOL_TAIL:
                    right = pop()
                    if not isinstance(right, VBool):
                        raise CompileError("logical op needs bool operands",
                                           span)
                    push(VBool(right.value))
                elif op == OP_COMPOUND:
                    operand = pop()
                    current = pop()
                    place = pop()
                    result = self._binop(arg, current, operand, span)
                    self.write_place(place, result, tid, span)
                    push(UNIT_VALUE)
                elif op == OP_DUP:
                    push(stack[-1])
                elif op == OP_REF:
                    push(self._ref_from_place(pop(), arg, span))
                elif op == OP_MAKE_TUPLE:
                    elems = tuple(stack[-arg:])
                    del stack[-arg:]
                    push(self._tuple_value(elems))
                elif op == OP_MAKE_ARRAY:
                    if arg:
                        elems = tuple(stack[-arg:])
                        del stack[-arg:]
                    else:
                        elems = ()
                    push(self._array_value(elems, span))
                elif op == OP_MAKE_REPEAT:
                    count_value = pop()
                    push(self._repeat_value(pop(), count_value))
                elif op == OP_CHECK_STRUCT:
                    if self.memory.structs.get(arg) is None:
                        raise CompileError(f"cannot find struct `{arg}`",
                                           span)
                elif op == OP_MAKE_STRUCT:
                    node, argc = arg
                    if argc:
                        values = stack[-argc:]
                        del stack[-argc:]
                    else:
                        values = []
                    provided = {}
                    for (field_name, _expr), value in zip(node.fields,
                                                          values):
                        provided[field_name] = value
                    push(self._struct_value(node.name, provided, span))
                elif op == OP_MAKE_RANGE:
                    hi = pop()
                    push(self._range_value(pop(), hi, arg, span))
                elif op == OP_MAKE_CLOSURE_B:
                    self.fuel -= 1
                    report.steps += 1
                    if self.fuel <= 0:
                        raise FuelExhausted()
                    push(VClosure(list(arg.params), arg.body, env,
                                  arg.is_move))
                elif op == OP_CAST:
                    push(self._cast_value(pop(), arg, span))
                elif op == OP_DECLARE:
                    self._alloc_local(arg.name, arg.ty, arg.mutable, env)
                elif op == OP_FOR_SETUP:
                    iterable = pop()
                    if not isinstance(iterable, VRangeIter):
                        raise InterpUnsupported(
                            "`for` loops support only range iterables", span)
                    hi = iterable.hi + 1 if iterable.inclusive \
                        else iterable.hi
                    env = Env(env)
                    scope_depth += 1
                    local = self._alloc_local(
                        arg, ty.USIZE if iterable.lo >= 0 else ty.I64,
                        False, env)
                    push([local, iterable.lo, hi])
                elif op == OP_FOR_NEXT:
                    state = stack[-1]
                    if state[1] >= state[2]:
                        ip = arg
                        continue
                    self.fuel -= 1
                    report.steps += 1
                    if self.fuel <= 0:
                        raise FuelExhausted()
                    local = state[0]
                    self.write_place(self._local_place(local),
                                     VInt(state[1], local.ty), tid, span)
                    state[1] += 1
                elif op == OP_END_FOR:
                    pop()
                    env = env.parent
                    scope_depth -= 1
                    push(UNIT_VALUE)
                elif op == OP_RAISE_RETURN:
                    raise _Return(pop())
                elif op == OP_RAISE_BREAK:
                    raise _Break(pop())
                elif op == OP_RAISE_CONTINUE:
                    raise _Continue()
                elif op == OP_RAISE_COMPILE:
                    raise CompileError(arg, span)
                elif op == OP_RAISE_UNSUPPORTED:
                    raise InterpUnsupported(arg, span)
                else:  # pragma: no cover - compiler/VM version skew
                    raise InterpUnsupported(f"unknown opcode {op}", span)
            except _Break as brk:
                entry = self._find_handler(handlers, ip,
                                           (K_BREAK, K_BREAK_VALUE))
                if entry is None:
                    raise
                del stack[entry.depth:]
                while scope_depth > entry.scope_depth:
                    env = env.parent
                    scope_depth -= 1
                self.unsafe_depth = base_unsafe + entry.unsafe_offset
                if entry.kind == K_BREAK_VALUE:
                    push(brk.value)
                ip = entry.target
                continue
            except _Continue:
                entry = self._find_handler(handlers, ip, (K_CONTINUE,))
                if entry is None:
                    raise
                del stack[entry.depth:]
                while scope_depth > entry.scope_depth:
                    env = env.parent
                    scope_depth -= 1
                self.unsafe_depth = base_unsafe + entry.unsafe_offset
                ip = entry.target
                continue
            except (UbSignal, CompileError) as signal:
                # Statement-level error collection, mirroring
                # ``Interpreter._exec_stmt``.
                if not self.collect:
                    raise
                if isinstance(signal, UbSignal) \
                        and not signal.error.kind.is_ub:
                    raise
                entry = self._find_handler(handlers, ip, (K_COLLECT,))
                if entry is None:
                    raise
                self._record_collected(signal.error)
                del stack[entry.depth:]
                while scope_depth > entry.scope_depth:
                    env = env.parent
                    scope_depth -= 1
                self.unsafe_depth = base_unsafe + entry.unsafe_offset
                ip = entry.target
                continue
            ip += 1
        return pop()


# ---------------------------------------------------------------------------
# Divergence triage


def report_signature(report: MiriReport) -> tuple:
    """Everything byte-identity compares on a :class:`MiriReport`."""
    return (tuple((error.kind, error.message, error.span)
                  for error in report.errors),
            report.stdout, report.steps)


@dataclass(frozen=True)
class Divergence:
    """One engine disagreement, with both outcomes for triage."""

    label: str
    tree_report: MiriReport
    vm_report: MiriReport

    def render(self) -> str:
        lines = [f"engine divergence on {self.label}:",
                 f"  tree: steps={self.tree_report.steps} "
                 f"stdout={self.tree_report.stdout!r}"]
        lines += [f"    {error.render()}"
                  for error in self.tree_report.errors] or ["    (clean)"]
        lines.append(f"  vm:   steps={self.vm_report.steps} "
                     f"stdout={self.vm_report.stdout!r}")
        lines += [f"    {error.render()}"
                  for error in self.vm_report.errors] or ["    (clean)"]
        return "\n".join(lines)


def check_divergence(source: str, label: str = "<source>", *,
                     fuel: int = DEFAULT_FUEL, collect: bool = False,
                     max_errors: int = 8) -> Divergence | None:
    """Run ``source`` under both engines; a :class:`Divergence` (or None).

    The triage tool behind the ``vm_matches_tree`` benchmark gate and the
    ``repro repair --engine-exec`` escape hatch: when a VM report ever
    disagrees with the tree-walker, this reproduces the pair in-process.
    Both reports come from fresh runs: the verdict memo is bypassed.
    """
    from . import _execute
    tree = _execute(source, collect, max_errors, fuel, False, "tree")[0]
    vm = _execute(source, collect, max_errors, fuel, False, "vm")[0]
    if report_signature(tree) == report_signature(vm):
        return None
    return Divergence(label, tree, vm)
