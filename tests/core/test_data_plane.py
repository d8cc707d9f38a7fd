"""Repair-loop data-plane gates: frozen shared trees and sound ``needs``.

``parse_program`` hands every caller the same memoized tree, and facts
(printed text, embeddings, pruned forms, the node index) are memoized on
trees, so an in-place edit of a shared tree would corrupt every later
parse and hide behind stale facts.  The frozen-tree gate hashes trees by
walking their fields (never through a memoized print) before and after
each workload.  The ``needs`` gate checks that a rule's declared index keys
only ever skip work: whenever a declaration rejects a program, running the
rule on a clone must also come back empty.
"""

import pytest

from repro.bench.experiments import evaluate_arm
from repro.bench.figures import FIG8_ARMS
from repro.check import check_source
from repro.core.rewrites import REGISTRY, RewriteRule
from repro.corpus.dataset import Dataset, load_compile_dataset, load_dataset
from repro.corpus.generator import generate_sources
from repro.lang import ast_nodes as ast
from repro.lang.parser import Parser, _parse_program_cached, parse_program
from repro.lang.printer import Printer, print_program
from repro.miri import CASE_MEMO, detect_ub

SWEEP_SEED = 3
CASES_PER_CATEGORY = 3
GENERATED = (40, 2024)


def structure(value):
    """Every field of every node, ids included, as a hashable value."""
    if isinstance(value, ast.Node):
        return (type(value).__name__,) + tuple(
            (key, structure(field)) for key, field in vars(value).items())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(structure(v) for v in value)
    return value


def tree_hash(program) -> int:
    return hash(structure(program))


def tiny_dataset() -> Dataset:
    full = load_dataset()
    return Dataset(tuple(case for category in full.categories()
                         for case in full.by_category(category)
                         [:CASES_PER_CATEGORY]))


def tiny_fig8_sweep() -> None:
    dataset = tiny_dataset()
    for model, kind in FIG8_ARMS:
        evaluate_arm(kind, model, seed=SWEEP_SEED, dataset=dataset)


def corpus_sources() -> list[str]:
    sources = []
    for case in list(load_dataset()) + list(load_compile_dataset()):
        sources += [case.source, case.fixed_source]
    return sources


def front_doors() -> None:
    for source in corpus_sources() + generate_sources(*GENERATED):
        check_source(source)
        detect_ub(source, collect=True)


def every_rule_on_the_corpus() -> None:
    for source in corpus_sources():
        try:
            program = parse_program(source)
        except Exception:
            continue  # compile-error sources that do not parse
        before = tree_hash(program)
        for rule in REGISTRY.values():
            rule.apply(program)
            assert tree_hash(program) == before, \
                f"{rule.name} mutated its input"


@pytest.fixture
def watched(monkeypatch):
    """Record every tree the parse memo builds and every program that
    gets a memoized fact, each with its hash at that moment."""
    parsed, with_facts = [], {}
    build = Parser.parse_program
    fact = ast.Program.fact

    def recording_build(self):
        tree = build(self)
        parsed.append((tree, tree_hash(tree)))
        return tree

    def recording_fact(self, key, compute):
        if id(self) not in with_facts:
            with_facts[id(self)] = (self, tree_hash(self))
        return fact(self, key, compute)

    monkeypatch.setattr(Parser, "parse_program", recording_build)
    monkeypatch.setattr(ast.Program, "fact", recording_fact)
    _parse_program_cached.cache_clear()
    # Verdicts left by earlier tests would answer the workload's detector
    # questions without interpreting the trees under watch.
    CASE_MEMO.clear()
    yield parsed, with_facts
    _parse_program_cached.cache_clear()


class TestFrozenTrees:
    @pytest.mark.parametrize("workload", [
        tiny_fig8_sweep, front_doors, every_rule_on_the_corpus,
    ], ids=["fig8-arms", "front-doors", "every-rule"])
    def test_shared_trees_never_change(self, watched, workload):
        parsed, with_facts = watched
        workload()
        assert parsed
        changed = [Printer().print_program(tree) for tree, digest in parsed
                   if tree_hash(tree) != digest]
        assert not changed, "parse-memo tree edited in place:\n" + changed[0]
        stale = [Printer().print_program(tree)
                 for tree, digest in with_facts.values()
                 if tree_hash(tree) != digest]
        assert not stale, "tree edited after a fact was memoized:\n" \
            + stale[0]


def reached_programs(monkeypatch) -> list:
    """Corpus (buggy and fixed), generated mutants, and every program a
    tiny fig8 sweep feeds to or gets back from a rule, one per text."""
    reached = []
    apply = RewriteRule.apply

    def recording_apply(self, program):
        result = apply(self, program)
        reached.extend(p for p in (program, result) if p is not None)
        return result

    monkeypatch.setattr(RewriteRule, "apply", recording_apply)
    tiny_fig8_sweep()
    monkeypatch.undo()
    for source in corpus_sources() + generate_sources(*GENERATED):
        try:
            reached.append(parse_program(source))
        except Exception:
            continue
    unique = {}
    for program in reached:
        unique.setdefault(print_program(program), program)
    return list(unique.values())


class TestRuleNeeds:
    def test_most_rules_declare_needs(self):
        declared = [rule for rule in REGISTRY.values()
                    if rule.needs is not None]
        assert len(declared) >= len(REGISTRY) - 2

    def test_needs_never_change_an_outcome(self, monkeypatch):
        programs = reached_programs(monkeypatch)
        assert len(programs) > 300
        wrong = []
        for program in programs:
            for rule in REGISTRY.values():
                if rule.could_match(program):
                    continue
                try:
                    result = rule.fn(ast.clone(program))
                except Exception:
                    result = None
                if result is not None:
                    wrong.append(f"{rule.name} rejects but rewrites:\n"
                                 f"{print_program(program)}")
        assert not wrong, wrong[0]

    @pytest.mark.parametrize("rule_name,source", [
        ("hoist_raw_use_before_reborrow",
         "fn main() { let mut x = 5; let p = &mut x as *mut i32;"
         " let r = &x; let v = unsafe { *p }; println!(\"{}\", r); }"),
        ("hoist_raw_use_before_reborrow",
         "fn main() { let mut v = vec![1, 2];"
         " let p = unsafe { v.as_mut_ptr() }; v[0] = 3;"
         " let first = unsafe { *p }; }"),
        ("hoist_raw_use_before_reborrow",
         "fn main() { let mut x = 5; let p = &mut x as *mut i32;"
         " x += 1; let v = unsafe { *p }; }"),
        ("retouch_output_constant",
         "fn main() { let aux_k = 7; let y = (2 + 0) * 3;"
         " println!(\"{}\", y); }"),
        ("fix_call_arity",
         "fn add(a: i64, b: i64) -> i64 { a + b }\n"
         "fn main() { let f = add; let s = f(1); println!(\"{}\", s); }"),
    ])
    def test_let_shaped_needs_admit_every_shape(self, rule_name, source):
        # Shapes the corpus may not reach: each declared key must still
        # admit them, and the rule must rewrite them.
        program = parse_program(source)
        rule = REGISTRY[rule_name]
        assert rule.could_match(program)
        assert rule.apply(program) is not None

    def test_let_shaped_needs_reject_helper_constants(self):
        program = parse_program(
            "fn main() { let aux_k = 7; let __t = 9; let y = 1;"
            " println!(\"{}\", y + 4); }")
        rule = REGISTRY["retouch_output_constant"]
        assert not rule.could_match(program)
        assert rule.fn(ast.clone(program)) is None

    def test_rejected_apply_does_not_clone(self, monkeypatch):
        import repro.core.rewrites as rewrites
        clones = []
        monkeypatch.setattr(rewrites, "clone",
                            lambda node: clones.append(node) or node)
        program = parse_program("fn main() { let x = 1; }")
        assert REGISTRY["replace_set_len_with_resize"].apply(program) is None
        assert clones == []
