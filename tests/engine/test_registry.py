"""Registry: registration, lookup, creation, and error surfaces."""

import pytest

from repro.baselines.llm_only import LLMOnlyRepair
from repro.baselines.rustassistant import RustAssistant
from repro.core.agents.rollback import RollbackPolicy
from repro.core.pipeline import RustBrain
from repro.engine import (EngineConfigError, EngineRegistry, RepairEngine,
                          UnknownEngineError, available_engines,
                          create_engine)

BUILTIN_NAMES = {
    "llm_only", "rustassistant", "rustbrain", "rustbrain_nokb",
    "rustbrain_nofeedback", "rustbrain_norollback",
    "rustbrain_initial_rollback", "rustbrain_nopruning",
}


class TestBuiltins:
    def test_all_paper_arms_registered(self):
        names = {info.name for info in available_engines()}
        assert BUILTIN_NAMES <= names

    def test_infos_carry_summaries(self):
        for info in available_engines():
            assert info.summary, f"{info.name} has no summary"

    def test_engines_satisfy_protocol(self):
        for name in sorted(BUILTIN_NAMES):
            engine = create_engine(name, seed=1)
            assert isinstance(engine, RepairEngine)


class TestCreate:
    def test_create_by_name(self):
        assert isinstance(create_engine("rustbrain"), RustBrain)
        assert isinstance(create_engine("llm_only"), LLMOnlyRepair)
        assert isinstance(create_engine("rustassistant"), RustAssistant)

    def test_create_by_spec_string(self):
        engine = create_engine("rustbrain?kb=off&rollback=none", seed=3)
        assert engine.kb is None
        assert engine.config.rollback is RollbackPolicy.NONE
        assert engine.config.seed == 3

    def test_spec_params_override_kwargs(self):
        engine = create_engine("rustbrain?temperature=0.2&seed=9",
                               temperature=0.5, seed=1)
        assert engine.config.temperature == 0.2
        assert engine.config.seed == 9

    def test_variant_defaults_overridable(self):
        engine = create_engine("rustbrain_nokb?kb=on")
        assert engine.kb is not None

    def test_unknown_engine_raises(self):
        with pytest.raises(UnknownEngineError) as exc:
            create_engine("quantum")
        assert "quantum" in str(exc.value)
        assert "rustbrain" in str(exc.value)  # lists registered names

    def test_unknown_engine_is_value_error(self):
        # make_system's historical contract.
        with pytest.raises(ValueError):
            create_engine("quantum")

    def test_unknown_config_option_raises(self):
        with pytest.raises(EngineConfigError) as exc:
            create_engine("rustbrain?warp_drive=on")
        assert "warp_drive" in str(exc.value)

    @pytest.mark.parametrize("spec", [
        "rustbrain?batch_verify=off",
        "rustbrain?fingerprint=off",
        "llm_only?fingerprint=off",
    ])
    def test_retired_options_raise(self, spec):
        with pytest.raises(EngineConfigError):
            create_engine(spec)

    @pytest.mark.parametrize("bad", [
        "rustbrain?kb=none",          # bool field, non-bool word
        "rustbrain?feedback=7",       # bool field, int
        "rustbrain?n_solutions=lots",  # int field, string
        "rustbrain?detector_seconds=fast",  # float field, string
    ])
    def test_type_mismatched_override_raises(self, bad):
        # A typo like kb=none must NOT silently run the arm with the KB on.
        with pytest.raises(EngineConfigError, match="expects"):
            create_engine(bad)


class TestRegistration:
    def test_decorator_and_lookup(self):
        registry = EngineRegistry(_builtins_loaded=True)

        @registry.register("custom", summary="a test arm", tags=("test",))
        def build(*, model="gpt-4", seed=0, temperature=0.5, **overrides):
            return ("engine", model, seed)

        info = registry.get("custom")
        assert info.summary == "a test arm"
        assert info.tags == ("test",)
        assert registry.create("custom", seed=5) == ("engine", "gpt-4", 5)
        assert "custom" in registry

    def test_duplicate_name_rejected(self):
        registry = EngineRegistry(_builtins_loaded=True)
        registry.register("arm")(lambda **kw: None)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("arm")(lambda **kw: None)

    def test_replace_allows_overwrite(self):
        registry = EngineRegistry(_builtins_loaded=True)
        registry.register("arm")(lambda **kw: "old")
        registry.register("arm", replace=True)(lambda **kw: "new")
        assert registry.create("arm") == "new"


class TestMakeSystemShim:
    def test_shim_matches_registry(self):
        from repro.bench.experiments import make_system
        shim = make_system("rustbrain_norollback", "gpt-4", seed=2,
                           n_solutions=4)
        direct = create_engine("rustbrain_norollback", model="gpt-4", seed=2,
                               n_solutions=4)
        assert shim.config == direct.config

    def test_shim_accepts_spec_strings(self):
        # The grammar is shared by CLI, benchmarks, and code — including
        # the deprecated entry points.
        from repro.bench.experiments import make_system
        engine = make_system("rustbrain?kb=off&n_solutions=4")
        assert engine.kb is None
        assert engine.config.n_solutions == 4

    def test_evaluate_spec_rejects_conflicting_seeds(self):
        # Repeat-sampling across seeds must not be silently collapsed by a
        # spec-pinned seed (zero-variance samples).
        from repro.bench.experiments import evaluate_spec
        with pytest.raises(ValueError, match="pins its own seed"):
            evaluate_spec("rustbrain?seed=5", seed=3)
