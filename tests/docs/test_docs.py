"""Documentation smoke checks — tier-1, so the docs cannot silently rot.

Structural only: these tests assert that the documentation files exist and
still mention the entry points they exist to explain, and that every public
symbol of :mod:`repro.serving`, :mod:`repro.feedback.ranker`,
:mod:`repro.dpo.stream`, :mod:`repro.obs` and :mod:`repro.analysis` carries a
docstring.  Content quality is reviewed by humans; absence is caught here.
"""

import inspect
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestDocumentationFiles:
    def test_readme_exists_and_covers_the_essentials(self):
        readme = REPO_ROOT / "README.md"
        assert readme.is_file(), "top-level README.md is missing"
        text = readme.read_text()
        for needle in (
            "examples/quickstart.py",       # quickstart entry point
            "python -m pytest -x -q",       # tier-1 command
            "python -m pytest benchmarks",  # benchmark command
            "repro.serving",                # module map names the serving layer
            "repro-serve",                  # CLI entry point
        ):
            assert needle in text, f"README.md no longer mentions {needle!r}"

    def test_serving_architecture_guide_exists(self):
        guide = REPO_ROOT / "docs" / "serving.md"
        assert guide.is_file(), "docs/serving.md is missing"
        text = guide.read_text()
        for needle in (
            "CacheDirectory",
            "WorkerPool",
            "submit_batch",
            "max_inflight_batches",  # the back-pressure knobs are documented
            "Dispatcher",
            "repro-serve",
        ):
            assert needle in text, f"docs/serving.md no longer documents {needle!r}"

    def test_pipeline_guide_exists(self):
        guide = REPO_ROOT / "docs" / "pipeline.md"
        assert guide.is_file(), "docs/pipeline.md is missing"
        text = guide.read_text()
        for needle in (
            "sample_response_frontier",  # the one sampling path
            "as_completed",              # completion-order build ...
            "task order",                # ... with task-order assembly
            "max_inflight_batches",      # the back-pressure knobs are documented
            "max_inflight_jobs",
            "DPODatasetWriter",
            "read_encoded_pairs",        # the spill format round-trips
            "Determinism",               # the guarantees section survives
            "pairs-output",
        ):
            assert needle in text, f"docs/pipeline.md no longer documents {needle!r}"
        readme = (REPO_ROOT / "README.md").read_text()
        assert "docs/pipeline.md" in readme, "README.md no longer links the pipeline guide"

    def test_analysis_guide_exists(self):
        guide = REPO_ROOT / "docs" / "analysis.md"
        assert guide.is_file(), "docs/analysis.md is missing"
        text = guide.read_text()
        for needle in (
            "atomic-write",
            "falsy-default",
            "unguarded-shared-mutation",
            "rebind-shared-container",
            "nondeterministic-iteration",
            "swallowed-exception",
            "repro: allow[",             # the suppression syntax is documented
            "Origin",                    # every rule names its originating bug
            "lock-order",                # the analyzer walkthrough survives
            "repro-lint",
            "make lint",
        ):
            assert needle in text, f"docs/analysis.md no longer documents {needle!r}"
        readme = (REPO_ROOT / "README.md").read_text()
        assert "docs/analysis.md" in readme, "README.md no longer links the analysis guide"

    def test_jobs_guide_exists(self):
        guide = REPO_ROOT / "docs" / "jobs.md"
        assert guide.is_file(), "docs/jobs.md is missing"
        text = guide.read_text()
        for needle in (
            "JobsDaemon",
            "JobsClient",
            "JobStore",
            "QuotaLedger",
            "journal.jsonl",            # the durability format is documented
            "snapshot",
            "exactly one",              # the exactly-once invariant survives
            "stream_progress",
            "quota-exceeded",           # typed rejections are documented
            "repro-serve daemon",
            "byte-identical",           # parity with the one-shot path
            "make jobs-demo",
        ):
            assert needle in text, f"docs/jobs.md no longer documents {needle!r}"
        readme = (REPO_ROOT / "README.md").read_text()
        assert "docs/jobs.md" in readme, "README.md no longer links the jobs guide"

    def test_modelcheck_guide_exists(self):
        guide = REPO_ROOT / "docs" / "modelcheck.md"
        assert guide.is_file(), "docs/modelcheck.md is missing"
        text = guide.read_text()
        for needle in (
            "accepting lasso",          # the emptiness algorithm is explained
            "BuchiMemo",
            "formula_key",              # memo keying
            "prune_automaton",
            "Soundness argument",       # the pruning soundness section survives
            "automata_cache_dir",       # cache dir layout + wiring
            "FASTPATH_SCHEMA_VERSION",
            "NaiveModelChecker",
            "mc.construct_cached",      # honest span attribution is documented
            "verify_controller_at_least",  # the early-exit mode
            "satisfaction_ratio",       # the vacuous-true decision is recorded
            "test_differential",
            "slow",                     # the fuzz marker is documented
            "make bench-modelcheck",
        ):
            assert needle in text, f"docs/modelcheck.md no longer documents {needle!r}"
        readme = (REPO_ROOT / "README.md").read_text()
        assert "docs/modelcheck.md" in readme, "README.md no longer links the modelcheck guide"

    def test_lm_guide_exists(self):
        guide = REPO_ROOT / "docs" / "lm.md"
        assert guide.is_file(), "docs/lm.md is missing"
        text = guide.read_text()
        for needle in (
            "DecodeState",
            "LaneSpec",
            "forward_step",
            "sample_response_frontier",
            "token-identical",           # the determinism contract survives
            "spawn_lane_rngs",
            "head_dim = 16",             # the kernel-domain caveat is honest
            "max_seq_len",               # the window fallback is documented
            "stack_pair_batch",          # fused DPO
            "effective_weight",
            "Parameter.bump",            # the in-place-mutation contract
            "top_k_filter",
            "lm.batch_wave",             # span names
            "lm.decode_step",
            "make bench-lm",
        ):
            assert needle in text, f"docs/lm.md no longer documents {needle!r}"
        readme = (REPO_ROOT / "README.md").read_text()
        assert "docs/lm.md" in readme, "README.md no longer links the LM guide"

    def test_observability_guide_exists(self):
        guide = REPO_ROOT / "docs" / "observability.md"
        assert guide.is_file(), "docs/observability.md is missing"
        text = guide.read_text()
        for needle in (
            "NullTracer",             # the zero-cost off switch is documented
            "trace_path",             # PipelineConfig wiring
            "repro-trace",            # the report CLI
            "mc.construct",           # the span-name reference survives
            "per-PID",                # worker shard mechanism
            "MetricsRegistry",
            "make trace-demo",
            "Perfetto",
        ):
            assert needle in text, f"docs/observability.md no longer documents {needle!r}"
        readme = (REPO_ROOT / "README.md").read_text()
        assert "docs/observability.md" in readme, (
            "README.md no longer links the observability guide"
        )


def _public_symbols(module):
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


class TestPublicApiDocstrings:
    def test_every_public_serving_symbol_has_a_docstring(self):
        import repro.serving as serving

        undocumented = [
            name
            for name, obj in _public_symbols(serving)
            if not (obj.__doc__ or "").strip()
        ]
        assert not undocumented, f"repro.serving symbols missing docstrings: {undocumented}"

    def test_serving_public_methods_are_documented(self):
        """The symbols users actually call: public methods need docstrings too."""
        from repro.serving import CacheDirectory, Dispatcher, FeedbackService, PendingBatch

        for cls in (FeedbackService, PendingBatch, CacheDirectory, Dispatcher):
            undocumented = [
                f"{cls.__name__}.{name}"
                for name, member in vars(cls).items()
                if not name.startswith("_")
                and (inspect.isfunction(member) or isinstance(member, property))
                and not (
                    (member.fget.__doc__ if isinstance(member, property) else member.__doc__)
                    or ""
                ).strip()
            ]
            assert not undocumented, f"undocumented public methods: {undocumented}"

    def test_serving_config_documents_every_field(self):
        """ServingConfig's docstring is its field reference — a field added
        without a matching Parameters entry is undocumented API."""
        from repro.serving import ServingConfig
        import dataclasses

        doc = ServingConfig.__doc__ or ""
        missing = [
            field.name for field in dataclasses.fields(ServingConfig) if field.name not in doc
        ]
        assert not missing, f"ServingConfig fields absent from its docstring: {missing}"

    def test_every_public_dpo_stream_symbol_has_a_docstring(self):
        import repro.dpo.stream as stream

        undocumented = [
            name
            for name in dir(stream)
            if not name.startswith("_")
            and getattr(getattr(stream, name), "__module__", None) == stream.__name__
            and not (getattr(stream, name).__doc__ or "").strip()
        ]
        assert not undocumented, f"repro.dpo.stream symbols missing docstrings: {undocumented}"

    def test_stream_public_methods_are_documented(self):
        from repro.dpo.stream import DPODatasetWriter

        for cls in (DPODatasetWriter,):
            undocumented = [
                f"{cls.__name__}.{name}"
                for name, member in vars(cls).items()
                if not name.startswith("_")
                and (inspect.isfunction(member) or isinstance(member, property))
                and not (
                    (member.fget.__doc__ if isinstance(member, property) else member.__doc__)
                    or ""
                ).strip()
            ]
            assert not undocumented, f"undocumented public methods: {undocumented}"

    def test_every_public_jobs_symbol_has_a_docstring(self):
        import repro.jobs as jobs

        undocumented = [
            name
            for name in jobs.__all__
            if not isinstance(getattr(jobs, name), (str, tuple, frozenset, dict))
            and not (getattr(jobs, name).__doc__ or "").strip()
        ]
        assert not undocumented, f"repro.jobs symbols missing docstrings: {undocumented}"

    def test_jobs_public_methods_are_documented(self):
        from repro.jobs import Batch, Job, JobsClient, JobsDaemon, JobStore, QuotaLedger

        for cls in (Job, Batch, JobStore, QuotaLedger, JobsDaemon, JobsClient):
            undocumented = [
                f"{cls.__name__}.{name}"
                for name, member in vars(cls).items()
                if not name.startswith("_")
                and (inspect.isfunction(member) or isinstance(member, property))
                and not (
                    (member.fget.__doc__ if isinstance(member, property) else member.__doc__)
                    or ""
                ).strip()
            ]
            assert not undocumented, f"undocumented public methods: {undocumented}"

    def test_every_public_decode_symbol_has_a_docstring(self):
        import repro.lm.decode as decode

        undocumented = [
            name
            for name in dir(decode)
            if not name.startswith("_")
            and getattr(getattr(decode, name), "__module__", None) == decode.__name__
            and not (getattr(decode, name).__doc__ or "").strip()
        ]
        assert not undocumented, f"repro.lm.decode symbols missing docstrings: {undocumented}"

    def test_decode_public_methods_are_documented(self):
        import inspect as _inspect

        from repro.lm.decode import DecodeState, LaneSpec, LayerKV

        for cls in (DecodeState, LaneSpec, LayerKV):
            undocumented = [
                f"{cls.__name__}.{name}"
                for name, member in vars(cls).items()
                if not name.startswith("_")
                and (_inspect.isfunction(member) or isinstance(member, (property, classmethod)))
                and not (
                    (
                        member.fget.__doc__
                        if isinstance(member, property)
                        else member.__func__.__doc__
                        if isinstance(member, classmethod)
                        else member.__doc__
                    )
                    or ""
                ).strip()
            ]
            assert not undocumented, f"undocumented public methods: {undocumented}"

    def test_every_public_obs_symbol_has_a_docstring(self):
        import repro.obs as obs_package

        undocumented = [
            name
            for name in obs_package.__all__
            if not (getattr(obs_package, name).__doc__ or "").strip()
        ]
        assert not undocumented, f"repro.obs symbols missing docstrings: {undocumented}"

    def test_obs_public_methods_are_documented(self):
        from repro.obs import Histogram, MetricsRegistry, NullTracer, Span, Tracer

        for cls in (Tracer, NullTracer, Span, MetricsRegistry, Histogram):
            undocumented = [
                f"{cls.__name__}.{name}"
                for name, member in vars(cls).items()
                if not name.startswith("_")
                and (inspect.isfunction(member) or isinstance(member, property))
                and not (
                    (member.fget.__doc__ if isinstance(member, property) else member.__doc__)
                    or ""
                ).strip()
            ]
            assert not undocumented, f"undocumented public methods: {undocumented}"

    def test_every_public_analysis_symbol_has_a_docstring(self):
        import repro.analysis as analysis

        undocumented = [
            name
            for name in analysis.__all__
            if not (getattr(analysis, name).__doc__ or "").strip()
        ]
        assert not undocumented, f"repro.analysis symbols missing docstrings: {undocumented}"

    def test_analysis_public_methods_are_documented(self):
        from repro.analysis import AnalysisReport, Finding, LockOrderAnalyzer
        from repro.analysis.rules import DEFAULT_RULES

        for cls in (Finding, AnalysisReport, LockOrderAnalyzer, *DEFAULT_RULES):
            undocumented = [
                f"{cls.__name__}.{name}"
                for name, member in vars(cls).items()
                if not name.startswith("_")
                and (inspect.isfunction(member) or isinstance(member, property))
                and not (
                    (member.fget.__doc__ if isinstance(member, property) else member.__doc__)
                    or ""
                ).strip()
            ]
            assert not undocumented, f"undocumented public methods: {undocumented}"

    def test_every_rule_is_catalogued_in_the_guide(self):
        """docs/analysis.md is the rule reference: a rule shipped without a
        catalogue entry is undocumented API."""
        from repro.analysis.rules import default_rules

        text = (REPO_ROOT / "docs" / "analysis.md").read_text()
        missing = [rule.rule_id for rule in default_rules() if f"`{rule.rule_id}`" not in text]
        assert not missing, f"rules absent from docs/analysis.md: {missing}"

    def test_every_public_ranker_symbol_has_a_docstring(self):
        import repro.feedback.ranker as ranker

        names = [
            name
            for name in dir(ranker)
            if not name.startswith("_")
            and getattr(getattr(ranker, name), "__module__", None) == ranker.__name__
        ]
        assert "rank_to_pairs" in names and "PreferencePair" in names
        undocumented = [
            name for name in names if not (getattr(ranker, name).__doc__ or "").strip()
        ]
        assert not undocumented, f"repro.feedback.ranker symbols missing docstrings: {undocumented}"

    def test_every_public_modelcheck_symbol_has_a_docstring(self):
        import repro.modelcheck as modelcheck

        undocumented = [
            name
            for name, obj in _public_symbols(modelcheck)
            if not (obj.__doc__ or "").strip()
        ]
        assert not undocumented, f"repro.modelcheck symbols missing docstrings: {undocumented}"

    def test_modelcheck_public_methods_are_documented(self):
        from repro.modelcheck import BuchiMemo, CachedAutomaton, ModelChecker, ResultCache

        for cls in (ModelChecker, BuchiMemo, CachedAutomaton, ResultCache):
            undocumented = [
                f"{cls.__name__}.{name}"
                for name, member in vars(cls).items()
                if not name.startswith("_")
                and (inspect.isfunction(member) or isinstance(member, property))
                and not (
                    (member.fget.__doc__ if isinstance(member, property) else member.__doc__)
                    or ""
                ).strip()
            ]
            assert not undocumented, f"undocumented public methods: {undocumented}"

    def test_module_docstrings_present(self):
        import repro.analysis
        import repro.analysis.cli
        import repro.analysis.engine
        import repro.analysis.locks
        import repro.analysis.rules
        import repro.serving
        import repro.serving.backends
        import repro.serving.cache
        import repro.serving.cli
        import repro.serving.config
        import repro.serving.dedup
        import repro.serving.metrics
        import repro.serving.scheduler
        import repro.feedback.ranker
        import repro.dpo.stream
        import repro.lm.decode
        import repro.lm.sampling
        import repro.modelcheck
        import repro.modelcheck.checker
        import repro.modelcheck.fastpath
        import repro.obs
        import repro.obs.cli
        import repro.obs.export
        import repro.obs.metrics
        import repro.obs.report
        import repro.obs.tracer

        import repro.jobs
        import repro.jobs.cli
        import repro.jobs.client
        import repro.jobs.models
        import repro.jobs.quota
        import repro.jobs.server
        import repro.jobs.store
        import repro.utils.atomic
        import repro.utils.retry

        for module in (
            repro.jobs,
            repro.jobs.cli,
            repro.jobs.client,
            repro.jobs.models,
            repro.jobs.quota,
            repro.jobs.server,
            repro.jobs.store,
            repro.utils.retry,
            repro.analysis,
            repro.analysis.cli,
            repro.analysis.engine,
            repro.analysis.locks,
            repro.analysis.rules,
            repro.utils.atomic,
            repro.serving,
            repro.serving.backends,
            repro.serving.cache,
            repro.serving.cli,
            repro.serving.config,
            repro.serving.dedup,
            repro.serving.metrics,
            repro.serving.scheduler,
            repro.feedback.ranker,
            repro.dpo.stream,
            repro.lm.decode,
            repro.lm.sampling,
            repro.modelcheck,
            repro.modelcheck.checker,
            repro.modelcheck.fastpath,
            repro.obs,
            repro.obs.cli,
            repro.obs.export,
            repro.obs.metrics,
            repro.obs.report,
            repro.obs.tracer,
        ):
            assert (module.__doc__ or "").strip(), f"{module.__name__} has no module docstring"
