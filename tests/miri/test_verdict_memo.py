"""Soundness gate for the process-wide verdict memo (``CASE_MEMO``).

Every detector question about source text reads through one memo keyed on
``(exact text, collect, max_errors, fuel, resolved engine)``.  The memo
is only sound if an answer it supplies is indistinguishable from a fresh
run: same rendered diagnostics, same stdout, same fuel-step count.  This
suite checks that over the hand-written corpus (buggy and fixed), the
compile-error corpus and seeded generator mutants, in both collect modes
on both engines, and checks the memo's isolation, keying, bound and
thread safety.  The package conftest starts every test from a cold memo.
"""

import threading

import pytest

from repro.corpus.dataset import load_compile_dataset, load_dataset
from repro.corpus.generator import generate_sources
import repro.lang.parser as parser_module
from repro.miri import (CASE_MEMO, DEFAULT_FUEL, DETECTOR_STATS,
                        _VERDICT_MEMO_LIMIT, BatchVerifier, CaseMemo,
                        _execute, detect_case, detect_ub, detect_ub_batch,
                        set_default_engine)

GENERATED = (40, 4242)

#: Three UB sites, so collect mode and ``max_errors`` both change the
#: answer, and a loop, so a small ``fuel`` does too.
MULTI = """
fn main() {
    let mut total = 0i64;
    for i in 0..50 {
        total += i;
    }
    println!("{}", total);
    let b = Box::new(7);
    let p = Box::into_raw(b);
    unsafe { drop(Box::from_raw(p)); }
    let v = unsafe { *p };
    let x: i32 = 5;
    let q = &x as *const i32;
    let y = unsafe { *q.add(4) };
    let mu: MaybeUninit<i32> = MaybeUninit::uninit();
    let z = unsafe { mu.assume_init() };
}
"""


def signature(report):
    return (report.render(), tuple(report.stdout), report.steps)


def fresh(source, collect=False, max_errors=8, fuel=DEFAULT_FUEL,
          engine="vm"):
    return _execute(source, collect, max_errors, fuel, False, engine)[0]


@pytest.fixture(scope="module")
def sources():
    texts = []
    for case in list(load_dataset()) + list(load_compile_dataset()):
        texts += [case.source, case.fixed_source]
    texts += generate_sources(*GENERATED)
    return list(dict.fromkeys(texts))


class TestAnswersEqualFreshRuns:
    @pytest.mark.parametrize("engine", ["vm", "tree"])
    @pytest.mark.parametrize("collect", [False, True],
                             ids=["first-ub", "collect"])
    def test_memo_answer_equals_uncached_run(self, sources, collect,
                                             engine):
        wrong = []
        for index, source in enumerate(sources):
            first = detect_case(source, collect=collect, engine=engine)
            again = detect_case(source, collect=collect, engine=engine)
            want = signature(fresh(source, collect, engine=engine))
            if signature(first) != want or signature(again) != want:
                wrong.append(f"sources[{index}]:\n{source}")
        assert not wrong, wrong[0]
        # Every second ask was a memo answer, not another run.
        assert DETECTOR_STATS.case_memo_hits == len(sources)

    def test_every_entry_point_agrees(self, sources):
        sample = sources[:30]
        want = [signature(fresh(source, True)) for source in sample]
        verifier = BatchVerifier()
        for answers in (
                [detect_ub(source, collect=True) for source in sample],
                detect_ub_batch(sample, collect=True, fingerprint=False),
                [detect_case(source, collect=True) for source in sample],
                [verifier.verify(source) for source in sample]):
            assert [signature(report) for report in answers] == want
        assert verifier.runs == 0  # detect_ub already asked every one


class TestIsolation:
    def test_mutating_an_answer_never_changes_a_later_one(self):
        first = detect_ub(MULTI, collect=True)
        want = signature(first)
        first.errors.clear()
        first.stdout.append("corrupted")
        first.steps = -1
        second = detect_ub(MULTI, collect=True)
        assert signature(second) == want
        second.errors.append(second.errors[0])
        second.stdout.clear()
        assert signature(detect_case(MULTI, collect=True)) == want
        verified = BatchVerifier().verify(MULTI)
        verified.errors.pop()
        assert signature(detect_ub_batch([MULTI], collect=True,
                                         fingerprint=False)[0]) == want

    def test_every_caller_owns_its_report(self):
        answers = [detect_ub(MULTI) for _ in range(3)]
        assert len({id(report) for report in answers}) == 3
        assert len({id(report.errors) for report in answers}) == 3


class TestKeys:
    VARIANTS = [
        dict(collect=False, max_errors=8, fuel=DEFAULT_FUEL, engine="vm"),
        dict(collect=True, max_errors=8, fuel=DEFAULT_FUEL, engine="vm"),
        dict(collect=True, max_errors=1, fuel=DEFAULT_FUEL, engine="vm"),
        dict(collect=False, max_errors=8, fuel=40, engine="vm"),
        dict(collect=False, max_errors=8, fuel=DEFAULT_FUEL, engine="tree"),
        dict(collect=True, max_errors=8, fuel=DEFAULT_FUEL, engine="tree"),
    ]

    def test_options_and_engines_are_distinct_keys(self):
        answers = [detect_ub(MULTI, **options) for options in self.VARIANTS]
        assert DETECTOR_STATS.runs == len(self.VARIANTS)
        assert len(CASE_MEMO) == len(self.VARIANTS)
        for options, answer in zip(self.VARIANTS, answers):
            assert signature(answer) == signature(fresh(MULTI, **options))
        # The options really do change the answer, so a shared key
        # would have been caught above.
        assert len({signature(a) for a in answers[:4]}) == 4
        DETECTOR_STATS.reset()
        for options in self.VARIANTS:
            detect_ub(MULTI, **options)
        assert DETECTOR_STATS.runs == 0

    def test_default_engine_is_resolved_into_the_key(self):
        detect_ub(MULTI)
        previous = set_default_engine("tree")
        try:
            detect_ub(MULTI)
        finally:
            set_default_engine(previous)
        assert DETECTOR_STATS.runs == 2
        assert DETECTOR_STATS.vm_runs == 1

    def test_parsed_programs_and_debug_runs_bypass(self):
        from repro.lang.parser import parse_program
        program = parse_program(MULTI)
        detect_ub(program)
        detect_ub(program)
        detect_ub(MULTI, debug=True)
        detect_ub(MULTI, debug=True)
        assert DETECTOR_STATS.runs == 4
        assert len(CASE_MEMO) == 0


class TestBound:
    def test_lru_bound_holds_after_overfilling(self):
        memo = CaseMemo(limit=8)
        report = fresh(MULTI)
        for index in range(20):
            memo.store((f"k{index}",), report)
            if index == 15:
                memo.lookup(("k9",))  # recently used survives eviction
        assert len(memo) == 8
        assert memo.lookup(("k0",)) is None
        assert memo.lookup(("k19",)) is not None
        assert memo.lookup(("k9",)) is not None
        assert memo.lookup(("k10",)) is None

    def test_process_memo_stays_bounded(self, monkeypatch):
        assert CASE_MEMO.limit == _VERDICT_MEMO_LIMIT
        monkeypatch.setattr(CASE_MEMO, "limit", 16)
        questions = [f'fn main() {{ println!("{{}}", {n}i64); }}'
                     for n in range(40)]
        for source in questions:
            detect_ub(source)
        assert len(CASE_MEMO) == 16
        DETECTOR_STATS.reset()
        detect_ub(questions[-1])
        detect_ub(questions[0])
        assert DETECTOR_STATS.runs == 1  # the first was evicted

    def test_disabled_memo_stores_nothing(self):
        CASE_MEMO.enabled = False
        detect_ub(MULTI)
        detect_ub(MULTI)
        assert DETECTOR_STATS.runs == 2
        assert len(CASE_MEMO) == 0


class TestFrontDoorFailures:
    def test_lex_error_is_memoized(self):
        source = "fn main() { let x = 1; ` }"
        for _ in range(2):
            report = detect_ub(source)
            assert report.errors[0].message.startswith("lex error:")
        assert DETECTOR_STATS.runs == 0
        assert len(CASE_MEMO) == 1

    @pytest.mark.parametrize("engine", ["vm", "tree"])
    def test_recursion_error_is_not_memoized(self, engine, monkeypatch):
        # A RecursionError while lexing depends on the caller's stack
        # depth, not on the text: it must not become the memo's answer.
        source = f"fn main() {{ let depth_probe_{engine} = 1; }}"

        def too_deep(text):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(parser_module, "tokenize", too_deep)
        report = detect_ub(source, engine=engine)
        assert report.errors[0].message.startswith("lex error:")
        assert len(CASE_MEMO) == 0
        monkeypatch.undo()
        assert detect_ub(source, engine=engine).passed
        assert len(CASE_MEMO) == 1


class TestThreads:
    def test_two_threads_asking_one_question(self):
        want = signature(fresh(MULTI, True))
        barrier = threading.Barrier(2)
        answers = [None, None]

        def ask(slot):
            barrier.wait()
            answers[slot] = detect_ub(MULTI, collect=True)

        threads = [threading.Thread(target=ask, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert answers[0] is not answers[1]
        assert [signature(a) for a in answers] == [want, want]

    def test_concurrent_askers_under_eviction(self, sources, monkeypatch):
        sample = sources[:24]
        want = {source: signature(fresh(source, True)) for source in sample}
        monkeypatch.setattr(CASE_MEMO, "limit", 8)
        wrong = []

        def ask(offset):
            order = sample[offset:] + sample[:offset]
            for source in order * 2:
                if signature(detect_ub(source, collect=True)) \
                        != want[source]:
                    wrong.append(source)

        threads = [threading.Thread(target=ask, args=(offset,))
                   for offset in (0, 7, 13)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not wrong
        assert len(CASE_MEMO) <= 8
