"""Miri-equivalent UB detector for the mini-Rust subset.

The public entry point is :func:`detect_ub`:

>>> from repro.miri import detect_ub
>>> report = detect_ub('''
... fn main() {
...     let b = Box::new(7);
...     let p = Box::into_raw(b);
...     unsafe { drop(Box::from_raw(p)); }
...     let v = unsafe { *p };
... }
... ''')
>>> report.passed
False
>>> report.errors[0].kind.value
'dangling_pointer'

Every detector question about source *text* reads through one
process-wide verdict memo, :data:`CASE_MEMO`, keyed on the exact text,
the detector options and the resolved engine: the detector is a pure
function of those, so a question is interpreted once per process and
every later ask gets a private copy of the answer.  Campaigns ask the
same questions constantly — each (arm, seed) pass re-verifies the same
rewrites of the same cases, ensemble members detect the same case
source, candidate solutions converge on identical programs — so the
memo is where repeated verification stops costing interpreter runs.
:func:`detect_ub`, :func:`detect_ub_batch`, :func:`detect_case` and
:class:`BatchVerifier` are views over that one table; parsed
``ast.Program`` inputs and ``debug`` runs bypass it.

:func:`detect_ub_batch` adds, for callers that ask for it
(``fingerprint=True``), in-batch dedup of sources that normalize to the
same :func:`~repro.miri.fingerprint.source_fingerprint` — formatting- or
identifier-divergent spellings of one program.  Fingerprints never key
the verdict memo: a memo answer always spells the caller's own
identifiers and spans.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..lang import ast_nodes as ast
from ..lang.lexer import LexError
from ..lang.parser import ParseError, parse_program
from .errors import MiriError, MiriReport, UbKind, PAPER_CATEGORIES
from .fingerprint import FINGERPRINT_VERSION, source_fingerprint
from .interp import (
    DEFAULT_FUEL,
    ENGINES,
    Interpreter,
    resolve_engine,
    run_program,
    set_default_engine,
)


@dataclass
class DetectorStats:
    """Process-wide detector accounting (see :data:`DETECTOR_STATS`).

    ``requests`` counts verification *questions* (one per source handed to
    :func:`detect_ub`, :func:`detect_ub_batch`, :func:`detect_case`, or a
    :class:`BatchVerifier`); ``runs`` counts actual interpreter
    executions, so verdict-memo answers make ``runs < requests``.
    ``case_memo_hits`` counts the :func:`detect_case` questions the memo
    answered, and ``fingerprint_hits`` the :func:`detect_ub_batch`
    questions answered by its opt-in normalized-fingerprint dedup.

    The engine split (PR 10) adds ``compiles`` — bytecode compilations
    actually performed (the :func:`repro.miri.bytecode.compile_source`
    memo makes this much smaller than ``runs``; the gap is the VM's
    compile-once amortization) — and ``vm_runs``, the subset of ``runs``
    the bytecode VM executed (``runs - vm_runs`` ran the tree-walker).

    Counters are lock-guarded: every bump goes through :meth:`record`, so
    concurrent detector calls (ensemble member waves, the repair
    service's worker threads) never lose increments, and
    :meth:`snapshot` returns an internally consistent view — the
    service's ``/stats`` endpoint and the benchmark harnesses read
    through it instead of racing the raw attributes.
    """

    requests: int = 0
    runs: int = 0
    fingerprint_hits: int = 0
    case_memo_hits: int = 0
    compiles: int = 0
    vm_runs: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record(self, *, requests: int = 0, runs: int = 0,
               fingerprint_hits: int = 0, case_memo_hits: int = 0,
               compiles: int = 0, vm_runs: int = 0) -> None:
        """Atomically add to any subset of the counters."""
        with self._lock:
            self.requests += requests
            self.runs += runs
            self.fingerprint_hits += fingerprint_hits
            self.case_memo_hits += case_memo_hits
            self.compiles += compiles
            self.vm_runs += vm_runs

    def snapshot(self) -> dict:
        """An internally consistent copy of every counter."""
        with self._lock:
            return {
                "requests": self.requests,
                "runs": self.runs,
                "fingerprint_hits": self.fingerprint_hits,
                "case_memo_hits": self.case_memo_hits,
                "compiles": self.compiles,
                "vm_runs": self.vm_runs,
            }

    def reset(self) -> None:
        with self._lock:
            self.requests = 0
            self.runs = 0
            self.fingerprint_hits = 0
            self.case_memo_hits = 0
            self.compiles = 0
            self.vm_runs = 0


#: The process-wide counter instance every detector call updates.
DETECTOR_STATS = DetectorStats()

#: Capacity of :data:`CASE_MEMO`: about twice the most distinct questions
#: one benchmark round was measured to ask (seed 0: a Fig. 8 sweep of
#: 7 arms x 3 seeds x 117 cases 1,639, a cold detection pass 1,894, the
#: open-loop service round 1,119), so a whole sweep stays resident.
_VERDICT_MEMO_LIMIT = 4096


class CaseMemo:
    """The process-wide verdict memo every text detector question reads.

    Keys are ``(exact text, collect, max_errors, fuel, resolved engine)``:
    exact text, so an answer's spans and messages always match the
    caller's source byte for byte (consumers such as AST pruning and
    feature extraction anchor on error locations), and the engine, so
    the VM/tree differential gate always compares two real runs.  The
    memo keeps a private :meth:`~repro.miri.errors.MiriReport.copy` of
    each answer and hands out copies, so no caller's mutation reaches
    another caller.  Lock-guarded (the repair service verifies on worker
    threads) and bounded at ``limit`` entries, evicting the least
    recently used.
    """

    def __init__(self, limit: int = _VERDICT_MEMO_LIMIT):
        self.limit = limit
        #: Master switch — benchmarks flip it off to reproduce the
        #: memo-free execution profile for A/B run counts.
        self.enabled = True
        self._entries: OrderedDict[tuple, MiriReport] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict:
        """Lock-guarded view of the memo's state (the ``/stats`` payload):
        current entry count, capacity, and the master switch."""
        with self._lock:
            return {"entries": len(self._entries), "limit": self.limit,
                    "enabled": self.enabled}

    def lookup(self, key: tuple) -> MiriReport | None:
        """A private copy of the stored answer, or ``None``."""
        with self._lock:
            report = self._entries.get(key)
            if report is None:
                return None
            self._entries.move_to_end(key)
        return report.copy()

    def store(self, key: tuple, report: MiriReport) -> None:
        """Remember a copy of ``report``; the caller keeps the original."""
        entry = report.copy()
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            if len(self._entries) > self.limit:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


#: The process-wide verdict memo (see :class:`CaseMemo`).
CASE_MEMO = CaseMemo()


def _execute(source: str | ast.Program, collect: bool, max_errors: int,
             fuel: int, debug: bool,
             engine: str) -> tuple[MiriReport, bool]:
    """One real detector execution (parse/compile if needed, then
    interpret), bypassing :data:`CASE_MEMO`, and whether its answer is a
    property of the question alone (``False`` only for the catch-all
    front-door failure below) and so may be memoized.

    Under the ``vm`` engine, string sources compile through the
    :func:`repro.miri.bytecode.compile_source` memo — a hit skips the
    parse *and* the per-run AST clone, which is where the VM's cold-start
    speedup comes from.  A compiler failure (a bug in the lowering, never
    a property of the program) falls back to the tree-walker so the
    detector's answer is always the reference answer.
    """
    compiled = None
    if isinstance(source, str):
        try:
            if engine == "vm":
                from .bytecode import BytecodeError, compile_source
                try:
                    compiled = compile_source(source)
                except BytecodeError:
                    engine = "tree"
            if compiled is not None:
                program = compiled.program
            else:
                program = parse_program(source)
        except ParseError as err:
            report = MiriReport()
            report.errors.append(MiriError(
                UbKind.COMPILE, f"parse error: {err}", err.span))
            return report, True
        except Exception as err:  # lexer errors and friends
            report = MiriReport()
            report.errors.append(MiriError(
                UbKind.COMPILE, f"lex error: {err}"))
            # Anything but a LexError (a RecursionError on a deeply
            # nested source, say) can depend on the caller's stack depth.
            return report, isinstance(err, LexError)
    else:
        program = source
    DETECTOR_STATS.record(runs=1, vm_runs=1 if engine == "vm" else 0)
    return run_program(program, collect=collect, max_errors=max_errors,
                       fuel=fuel, debug=debug, engine=engine,
                       compiled=compiled), True


def _detect(source: str | ast.Program, collect: bool, max_errors: int,
            fuel: int, debug: bool = False,
            engine: str | None = None) -> tuple[MiriReport, bool]:
    """The detector's answer to one question, and whether
    :data:`CASE_MEMO` supplied it (``False`` means it ran)."""
    engine = resolve_engine(engine)
    if debug or not isinstance(source, str) or not CASE_MEMO.enabled:
        return _execute(source, collect, max_errors, fuel, debug,
                        engine)[0], False
    key = (source, collect, max_errors, fuel, engine)
    report = CASE_MEMO.lookup(key)
    if report is not None:
        return report, True
    report, memoizable = _execute(source, collect, max_errors, fuel, False,
                                  engine)
    if memoizable:
        CASE_MEMO.store(key, report)
    return report, False


def detect_ub(source: str | ast.Program, *, collect: bool = False,
              max_errors: int = 8, fuel: int = DEFAULT_FUEL,
              debug: bool = False, engine: str | None = None) -> MiriReport:
    """Run the detector over ``source`` (text or already-parsed program).

    ``collect=True`` enables error-collection mode: instead of stopping at the
    first UB (Miri's behaviour, and the default), the interpreter records the
    error, skips the offending statement, and keeps going — this is what gives
    RustBrain's rollback mechanism a meaningful per-iteration error *count*
    (the ``n_i`` sequences of §III-B2).

    ``engine="vm"`` (the default) executes compiled bytecode;
    ``engine="tree"`` forces the tree-walking reference interpreter.
    Reports are byte-identical either way — the switch exists for
    divergence triage, never for correctness.

    Text sources read through :data:`CASE_MEMO`; the caller owns the
    returned report either way.
    """
    DETECTOR_STATS.record(requests=1)
    return _detect(source, collect, max_errors, fuel, debug, engine)[0]


def detect_ub_batch(sources, *, collect: bool = False, max_errors: int = 8,
                    fuel: int = DEFAULT_FUEL, debug: bool = False,
                    fingerprint: bool = True,
                    engine: str | None = None) -> list[MiriReport]:
    """Run the detector over many candidate sources in one call.

    Returns one :class:`~repro.miri.errors.MiriReport` per source, in
    input order; every position owns its report.  Each text source reads
    through :data:`CASE_MEMO` like :func:`detect_ub`.  With
    ``fingerprint=True`` (the default) sources whose
    :func:`~repro.miri.fingerprint.source_fingerprint` matches an earlier
    source *in the same batch* — formatting- or identifier-divergent
    spellings of one program, textual duplicates included — are answered
    with a copy of that earlier report instead
    (``DETECTOR_STATS.fingerprint_hits`` counts those).  Verdicts, error
    counts, and stdout of such a report are byte-identical to a fresh
    run; its error *messages* and spans may spell the first variant's
    identifiers and positions (the normalization erases exactly that),
    which is why these answers never enter the verdict memo.  Parsed
    ``ast.Program`` inputs are never deduplicated (node identity is part
    of their meaning).
    """
    by_fingerprint: dict[str, MiriReport] = {}
    reports: list[MiriReport] = []
    for source in sources:
        DETECTOR_STATS.record(requests=1)
        fp = source_fingerprint(source) \
            if fingerprint and isinstance(source, str) else None
        if fp is not None and fp in by_fingerprint:
            DETECTOR_STATS.record(fingerprint_hits=1)
            reports.append(by_fingerprint[fp].copy())
            continue
        report = _detect(source, collect, max_errors, fuel, debug,
                         engine)[0]
        if fp is not None:
            by_fingerprint[fp] = report
        reports.append(report)
    return reports


def detect_case(source: str, *, collect: bool = False, max_errors: int = 8,
                fuel: int = DEFAULT_FUEL,
                engine: str | None = None) -> MiriReport:
    """Detection for *case-level* queries, counted as such.

    Engines run F1 detection — and ``switch`` ensembles their routing
    probe — on the raw case source; under an ensemble, N members ask the
    identical question about the identical text, and campaigns repeat it
    per (arm, seed).  Like every text question this reads through
    :data:`CASE_MEMO` and returns a report the caller owns;
    byte-identical to :func:`detect_ub` by construction.  What sets it
    apart is the accounting: each answer the memo supplies bumps
    ``DETECTOR_STATS.case_memo_hits``.
    """
    DETECTOR_STATS.record(requests=1)
    report, hit = _detect(source, collect, max_errors, fuel, False, engine)
    if hit:
        DETECTOR_STATS.record(case_memo_hits=1)
    return report


class BatchVerifier:
    """One repair's view of the verdict memo.

    S2 re-verifies a candidate program after every executed step, with
    fixed detector options (``collect``, ``max_errors``, ``fuel``).  Each
    question reads through :data:`CASE_MEMO`, so rewrites that earlier
    repairs, rounds or (arm, seed) passes already verified cost no
    interpreter run; within the repair, a repeated candidate gets the
    very report it got before, without touching the shared memo.
    Verdicts stay byte-identical and the virtual clock still charges
    every verification (it models a sequential real run), so only
    wall-clock work drops.  ``requests`` counts this repair's questions
    and ``runs`` the ones that had to interpret.
    """

    def __init__(self, *, collect: bool = True, max_errors: int = 8,
                 fuel: int = DEFAULT_FUEL):
        self.collect = collect
        self.max_errors = max_errors
        self.fuel = fuel
        self.requests = 0
        self.runs = 0
        self._answered: dict[str, MiriReport] = {}

    def seed(self, source: str, report: MiriReport) -> None:
        """Pre-load a report obtained elsewhere (e.g. the F1 detection
        answered by :func:`detect_case`), so a later verification of the
        same text returns it."""
        self._answered[source] = report

    def verify(self, source: str) -> MiriReport:
        """The detector report for one candidate."""
        self.requests += 1
        DETECTOR_STATS.record(requests=1)
        report = self._answered.get(source)
        if report is None:
            report, hit = _detect(source, self.collect, self.max_errors,
                                  self.fuel)
            if not hit:
                self.runs += 1
            self._answered[source] = report
        return report

    def verify_batch(self, sources: list[str]) -> list[MiriReport]:
        """Reports for many candidates, in input order."""
        return [self.verify(source) for source in sources]


def error_count(source: str | ast.Program, **kwargs) -> int:
    """Number of distinct errors in collection mode (RustBrain's ``n_i``)."""
    kwargs.setdefault("collect", True)
    return detect_ub(source, **kwargs).error_count


__all__ = [
    "BatchVerifier",
    "CASE_MEMO",
    "CaseMemo",
    "DEFAULT_FUEL",
    "DETECTOR_STATS",
    "DetectorStats",
    "ENGINES",
    "FINGERPRINT_VERSION",
    "Interpreter",
    "MiriError",
    "MiriReport",
    "PAPER_CATEGORIES",
    "UbKind",
    "detect_case",
    "detect_ub",
    "detect_ub_batch",
    "error_count",
    "resolve_engine",
    "run_program",
    "set_default_engine",
    "source_fingerprint",
]
