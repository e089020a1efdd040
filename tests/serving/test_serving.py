"""Tests for the batched feedback-serving subsystem (cache, dedup, scheduler)."""

import pytest

from repro.core.config import FeedbackConfig
from repro.driving import core_specifications, response_templates, task_by_name
from repro.feedback import EmpiricalEvaluator, FormalVerifier
from repro.glm2fsa import build_controller_from_text
from repro.serving import (
    FeedbackCache,
    FeedbackJob,
    FeedbackService,
    ServingConfig,
    cache_key,
    canonicalize_response,
    dedupe_responses,
    feedback_fingerprint,
)
from repro.sim import SimulationGrounding


class TestCanonicalization:
    def test_whitespace_variants_collapse(self):
        base = "1. Observe the traffic light.\n2. If there is a pedestrian, stop."
        variants = [
            base,
            base.replace("\n", "\r\n"),
            "  1. Observe the traffic light.  \n\n2. If there is a pedestrian, stop.\n",
            base + "\n\n",
        ]
        forms = {canonicalize_response(v) for v in variants}
        assert len(forms) == 1

    def test_internal_whitespace_is_preserved(self):
        # The alignment lexicon is sensitive to spacing inside a line, so the
        # canonical form must not merge these (they could score differently).
        a = canonicalize_response("1. If there is no car  from the left, turn right.")
        b = canonicalize_response("1. If there is no car from the left, turn right.")
        assert a != b

    def test_dedupe_assignment_reconstructs_batch(self):
        batch = ["r1", "r2", "r1\n", " r2 ", "r3", "r1"]
        unique, assignment = dedupe_responses(batch)
        assert unique == ["r1", "r2", "r3"]
        assert [unique[j] for j in assignment] == ["r1", "r2", "r1", "r2", "r3", "r1"]


class TestCacheKey:
    def test_key_is_stable(self):
        fp = feedback_fingerprint(FeedbackConfig(), core_specifications())
        assert cache_key("roundabout", "1. stop", fp) == cache_key("roundabout", "1. stop", fp)

    def test_key_separates_every_input(self):
        fp = feedback_fingerprint(FeedbackConfig(), core_specifications())
        base = cache_key("roundabout", "1. stop", fp)
        assert cache_key("highway_merge", "1. stop", fp) != base
        assert cache_key("roundabout", "1. go straight", fp) != base
        empirical_fp = feedback_fingerprint(FeedbackConfig(use_empirical=True), core_specifications())
        assert cache_key("roundabout", "1. stop", empirical_fp) != base

    def test_model_digest_invalidates_stale_entries(self, tmp_path):
        """An edited world model must not collide with a persisted cache."""
        from repro.driving import scenario_model

        def patched_builder(name):
            model = scenario_model(name)
            model.add_state("digest_probe", [])
            model.add_transition(model.states[0], "digest_probe")
            return model

        config = ServingConfig(persist_path=str(tmp_path / "cache.json"))
        original = FeedbackService(core_specifications(), feedback=FeedbackConfig(), config=config)
        job = FeedbackJob(task="t", scenario="roundabout", response="1. If there is a pedestrian, stop.")
        original.score_batch([job])
        original.flush()
        edited = FeedbackService(
            core_specifications(), feedback=FeedbackConfig(), config=config, model_builder=patched_builder
        )
        edited.score_batch([job])
        assert edited.metrics.cache_hits == 0 and edited.metrics.cache_misses == 1

    def test_fingerprint_covers_spec_set_and_seed(self):
        specs = core_specifications()
        fewer = {name: specs[name] for name in list(specs)[:2]}
        assert feedback_fingerprint(FeedbackConfig(), specs) != feedback_fingerprint(FeedbackConfig(), fewer)
        # The empirical seed changes traces, hence scores; the formal path ignores it.
        empirical = FeedbackConfig(use_empirical=True)
        assert feedback_fingerprint(empirical, specs, seed=0) != feedback_fingerprint(empirical, specs, seed=1)
        assert feedback_fingerprint(FeedbackConfig(), specs, seed=0) == feedback_fingerprint(FeedbackConfig(), specs, seed=1)


class TestFeedbackCache:
    def test_lru_eviction_order(self):
        cache = FeedbackCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1      # refreshes "a"; "b" is now LRU
        cache.put("c", 3)
        assert "b" not in cache and "a" in cache and "c" in cache
        stats = cache.stats()
        assert stats.evictions == 1 and stats.size == 2

    def test_hit_miss_counters(self):
        cache = FeedbackCache(max_entries=4)
        assert cache.get("missing") is None
        cache.put("k", 7)
        assert cache.get("k") == 7
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1 and stats.hit_rate == 0.5

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            FeedbackCache(max_entries=0)

    def test_persistence_roundtrip(self, tmp_path):
        cache = FeedbackCache(max_entries=8)
        cache.put("x", 3)
        cache.put("y", 0)
        path = cache.save(tmp_path / "cache.json")
        loaded = FeedbackCache.load(path)
        assert loaded.get("x") == 3 and loaded.get("y") == 0 and len(loaded) == 2

    def test_merge_reports_retained_not_adopted(self):
        """Keys `put` immediately evicts must not inflate the warm-start count."""
        cache = FeedbackCache(max_entries=2)
        retained = cache.merge([[f"k{i}", i] for i in range(5)])
        assert retained == 2 == len(cache)
        # Merging the survivors again adopts nothing new.
        assert cache.merge([["k3", 3], ["k4", 4]]) == 0

    def test_load_honors_explicit_zero_max_entries(self, tmp_path):
        """`max_entries=0` must surface the constructor's ValueError, not be
        silently replaced by the persisted default (falsy-`or` bug)."""
        cache = FeedbackCache(max_entries=8)
        cache.put("x", 1)
        path = cache.save(tmp_path / "cache.json")
        with pytest.raises(ValueError):
            FeedbackCache.load(path, max_entries=0)
        # A corrupt payload bound of 0 is likewise an error, not a fallback.
        import json

        payload = json.loads(path.read_text())
        payload["max_entries"] = 0
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            FeedbackCache.load(path)
        assert FeedbackCache.load(path, max_entries=4).max_entries == 4


@pytest.fixture(scope="module")
def right_turn_task():
    return task_by_name("turn_right_traffic_light")


@pytest.fixture(scope="module")
def batch_responses(right_turn_task):
    compliant = response_templates(right_turn_task.name, "compliant")
    flawed = response_templates(right_turn_task.name, "flawed")
    # Duplicates and whitespace variants, as sampling produces them.
    return [compliant[0], flawed[0], compliant[0], compliant[0] + "\n", flawed[1], "1. Drive nicely."]


class TestFeedbackService:
    def test_cached_formal_score_matches_recomputation(self, right_turn_task):
        service = FeedbackService(core_specifications(), feedback=FeedbackConfig())
        response = response_templates(right_turn_task.name, "compliant")[0]
        first = service.score_response(right_turn_task, response)
        second = service.score_response(right_turn_task, response)
        verifier = FormalVerifier(core_specifications())
        direct = verifier.verify_response(right_turn_task.model(), response, task=right_turn_task.name)
        assert first == second == direct.num_satisfied
        assert service.cache.stats().hits == 1

    def test_cached_empirical_score_matches_recomputation(self, right_turn_task):
        feedback = FeedbackConfig(use_empirical=True, empirical_traces=5)
        service = FeedbackService(core_specifications(), feedback=feedback, seed=0)
        response = response_templates(right_turn_task.name, "compliant")[0]
        first = service.score_response(right_turn_task, response)
        second = service.score_response(right_turn_task, response)
        evaluator = EmpiricalEvaluator(
            core_specifications(),
            SimulationGrounding(right_turn_task.scenario),
            threshold=feedback.empirical_threshold,
        )
        controller = build_controller_from_text(
            response, task=right_turn_task.name, wait_action=feedback.wait_action
        )
        direct = evaluator.evaluate_controller(controller, num_traces=5, seed=0)
        assert first == second == direct.num_satisfied
        assert service.cache.stats().hits == 1

    def test_unparseable_response_scores_zero(self, right_turn_task):
        for feedback in (FeedbackConfig(), FeedbackConfig(use_empirical=True, empirical_traces=3)):
            service = FeedbackService(core_specifications(), feedback=feedback)
            assert service.score_response(right_turn_task, "Please drive safely out there.") == 0

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_batch_order_is_deterministic(self, right_turn_task, batch_responses, backend):
        config = ServingConfig(backend=backend, max_workers=3)
        service = FeedbackService(core_specifications(), feedback=FeedbackConfig(), config=config)
        batch_scores = service.score_responses(right_turn_task, batch_responses)
        reference = FeedbackService(
            core_specifications(), feedback=FeedbackConfig(), config=ServingConfig(enabled=False)
        )
        serial_scores = [reference.score_response(right_turn_task, r) for r in batch_responses]
        assert batch_scores == serial_scores
        # Duplicates (exact and whitespace-variant) resolved without re-verification.
        assert service.metrics.dedup_rate > 0

    def test_disabled_serving_skips_cache(self, right_turn_task):
        service = FeedbackService(
            core_specifications(), feedback=FeedbackConfig(), config=ServingConfig(enabled=False)
        )
        response = response_templates(right_turn_task.name, "compliant")[0]
        assert service.score_response(right_turn_task, response) == service.score_response(
            right_turn_task, response
        )
        assert len(service.cache) == 0
        assert service.metrics.hit_rate == 0.0

    def test_disabled_serving_records_no_cache_lookups(self, right_turn_task, batch_responses):
        """The reference path performs no lookups, so the telemetry must show
        none — not `misses=len(jobs)` pretending the cache was consulted."""
        service = FeedbackService(
            core_specifications(), feedback=FeedbackConfig(), config=ServingConfig(enabled=False)
        )
        service.score_responses(right_turn_task, batch_responses)
        snapshot = service.metrics.snapshot()
        assert snapshot["cache_hits"] == 0 and snapshot["cache_misses"] == 0
        assert snapshot["uncached_jobs"] == len(batch_responses)
        assert snapshot["hit_rate"] == 0.0 and snapshot["dedup_rate"] == 0.0

    def test_enabled_serving_records_no_uncached_jobs(self, right_turn_task, batch_responses):
        service = FeedbackService(core_specifications(), feedback=FeedbackConfig())
        service.score_responses(right_turn_task, batch_responses)
        snapshot = service.metrics.snapshot()
        assert snapshot["uncached_jobs"] == 0
        assert snapshot["cache_misses"] > 0

    def test_metrics_reset_clears_uncached_jobs(self):
        from repro.serving import ServingMetrics

        metrics = ServingMetrics()
        metrics.record_batch(jobs=3, unique=3, hits=0, misses=0, uncached=3, seconds=0.1)
        assert metrics.uncached_jobs == 3
        metrics.reset()
        assert metrics.uncached_jobs == 0 and metrics.snapshot()["uncached_jobs"] == 0

    def test_metrics_reset_clears_stage_seconds_in_place(self):
        """reset() must clear the live dict, not rebind it — a provider (or
        test) holding a reference keeps observing the same mapping."""
        from repro.serving import ServingMetrics

        metrics = ServingMetrics()
        metrics.record_stage("encode", 1.5)
        held = metrics.stage_seconds
        metrics.reset()
        assert held == {} and metrics.stage_seconds is held
        metrics.record_stage("encode", 0.5)
        assert held == {"encode": 0.5}

    def test_metrics_mutation_is_thread_safe(self):
        import threading

        from repro.serving import ServingMetrics

        metrics = ServingMetrics()

        def record():
            for _ in range(500):
                metrics.record_batch(jobs=1, unique=1, hits=0, misses=1, seconds=0.0)
                metrics.record_backpressure(0.001)
                metrics.record_stage("encode", 0.001)

        threads = [threading.Thread(target=record) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.jobs == 2000
        assert metrics.backpressure_waits == 2000
        assert metrics.stage_seconds["encode"] == pytest.approx(2.0)

    def test_evaluator_and_model_built_once_per_scenario(self, right_turn_task):
        service = FeedbackService(
            core_specifications(), feedback=FeedbackConfig(use_empirical=True, empirical_traces=3)
        )
        assert service.scenario_model(right_turn_task.scenario) is service.scenario_model(right_turn_task.scenario)
        assert service.evaluator(right_turn_task.scenario) is service.evaluator(right_turn_task.scenario)

    def test_corrupt_persisted_cache_is_ignored(self, right_turn_task, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("garbage{{{")
        config = ServingConfig(persist_path=str(path))
        service = FeedbackService(core_specifications(), feedback=FeedbackConfig(), config=config)
        response = response_templates(right_turn_task.name, "compliant")[0]
        score = service.score_response(right_turn_task, response)
        service.flush()
        # The flush must leave a valid cache a fresh service can warm from.
        warmed = FeedbackService(core_specifications(), feedback=FeedbackConfig(), config=config)
        assert warmed.score_response(right_turn_task, response) == score
        assert warmed.metrics.cache_hits == 1

    def test_persisted_cache_warms_new_service(self, right_turn_task, tmp_path):
        config = ServingConfig(persist_path=str(tmp_path / "cache.json"))
        first = FeedbackService(core_specifications(), feedback=FeedbackConfig(), config=config)
        response = response_templates(right_turn_task.name, "compliant")[0]
        score = first.score_response(right_turn_task, response)
        first.flush()
        warmed = FeedbackService(core_specifications(), feedback=FeedbackConfig(), config=config)
        assert warmed.score_response(right_turn_task, response) == score
        assert warmed.metrics.cache_misses == 0 and warmed.metrics.cache_hits == 1

    def test_flush_failure_is_not_fatal(self, right_turn_task, tmp_path):
        """An unwritable cache path must not destroy the scoring results."""
        blocked = tmp_path / "not_a_dir"
        blocked.write_text("a file where the cache's parent dir should be")
        config = ServingConfig(persist_path=str(blocked / "cache.json"))
        service = FeedbackService(core_specifications(), feedback=FeedbackConfig(), config=config)
        response = response_templates(right_turn_task.name, "compliant")[0]
        score = service.score_response(right_turn_task, response)
        assert service.flush() is False
        assert score > 0

    def test_metrics_snapshot_shape(self, right_turn_task, batch_responses):
        service = FeedbackService(core_specifications(), feedback=FeedbackConfig())
        service.score_responses(right_turn_task, batch_responses)
        snapshot = service.metrics.snapshot()
        assert snapshot["jobs"] == len(batch_responses)
        assert snapshot["unique_jobs"] < snapshot["jobs"]
        assert snapshot["throughput"] > 0
        assert 0.0 < snapshot["dedup_rate"] < 1.0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ServingConfig(backend="gpu")


class TestCli:
    def test_scores_jsonl_with_explicit_scenario(self, tmp_path, capsys):
        from repro.serving.cli import main

        jsonl = tmp_path / "in.jsonl"
        jsonl.write_text(
            '{"task": "enter_roundabout", "response": "1. If there is a pedestrian, stop."}\n'
            '{"task": "merge_onto_highway", "scenario": "highway_merge", "response": "1. Go straight onto the highway."}\n'
        )
        out = tmp_path / "out.jsonl"
        assert main([str(jsonl), "--core-specs", "-o", str(out), "--backend", "serial"]) == 0
        import json

        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["scenario"] for r in records] == ["roundabout", "highway_merge"]
        assert all(isinstance(r["score"], int) for r in records)

    def test_rejects_unknown_task_without_scenario(self, tmp_path, capsys):
        from repro.serving.cli import main

        jsonl = tmp_path / "in.jsonl"
        jsonl.write_text('{"task": "fly_to_the_moon", "response": "1. Stop."}\n')
        assert main([str(jsonl)]) == 2
        assert "add a 'scenario' field" in capsys.readouterr().err

    def test_rejects_non_string_fields_before_scoring(self, tmp_path, capsys):
        from repro.serving.cli import main

        jsonl = tmp_path / "in.jsonl"
        jsonl.write_text('{"task": "enter_roundabout", "response": 5}\n')
        assert main([str(jsonl)]) == 2
        assert "'response' must be a string" in capsys.readouterr().err
        jsonl.write_text('{"task": "enter_roundabout", "response": "1. Stop.", "scenario": 9}\n')
        assert main([str(jsonl)]) == 2
        assert "'scenario' must be a string" in capsys.readouterr().err

    def test_metadata_fields_round_trip_to_output(self, tmp_path, capsys):
        """Extra input fields (ids, provenance) must survive into the output."""
        import json

        from repro.serving.cli import main

        record = {
            "task": "enter_roundabout",
            "response": "1. If there is a pedestrian, stop.",
            "id": "sample-17",
            "meta": {"epoch": 3, "origin": "dpo-sampling"},
        }
        jsonl = tmp_path / "in.jsonl"
        jsonl.write_text(json.dumps(record) + "\n")
        out = tmp_path / "out.jsonl"
        assert main([str(jsonl), "--core-specs", "-o", str(out), "--backend", "serial"]) == 0
        (scored,) = [json.loads(line) for line in out.read_text().splitlines()]
        assert scored["id"] == "sample-17"
        assert scored["meta"] == {"epoch": 3, "origin": "dpo-sampling"}
        assert scored["scenario"] == "roundabout"
        assert isinstance(scored["score"], int)
        # Everything from the input is still there, score/scenario merged in.
        assert scored == {**record, "scenario": "roundabout", "score": scored["score"]}

    def test_input_is_validated_before_the_service_is_built(self, tmp_path, capsys, monkeypatch):
        """A bad input file must fail fast, before verifier construction."""
        import repro.serving.scheduler as scheduler

        def exploding_init(self, *args, **kwargs):
            raise AssertionError("FeedbackService must not be built for invalid input")

        monkeypatch.setattr(scheduler.FeedbackService, "__init__", exploding_init)
        from repro.serving.cli import main

        missing = tmp_path / "nope.jsonl"
        assert main([str(missing)]) == 2
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main([str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_failed_run_leaves_no_truncated_output(self, tmp_path, capsys):
        import json

        from repro.serving.cli import main

        out = tmp_path / "out.jsonl"
        out.write_text('{"task": "previous", "score": 1}\n')
        jsonl = tmp_path / "in.jsonl"
        jsonl.write_text('{"task": "enter_roundabout"}\n')  # missing response
        assert main([str(jsonl), "-o", str(out)]) == 2
        # The pre-existing output is untouched and no tmp litter remains.
        assert json.loads(out.read_text())["task"] == "previous"
        assert list(tmp_path.glob("out.jsonl.tmp.*")) == []

    def test_shared_cache_dir_warms_second_invocation(self, tmp_path, capsys):
        from repro.serving.cli import main

        jsonl = tmp_path / "in.jsonl"
        jsonl.write_text(
            '{"task": "merge_onto_highway", "response": "1. Go straight onto the highway."}\n'
        )
        argv = [str(jsonl), "--core-specs", "--cache-dir", str(tmp_path / "shared"),
                "-o", str(tmp_path / "out.jsonl")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "hit rate 100%" in err and "warm-started" in err

    def _streaming_workload(self, tmp_path):
        import json

        from repro.driving import response_templates

        records = []
        for name in ("enter_roundabout", "turn_right_traffic_light"):
            for index, response in enumerate(response_templates(name, "compliant")):
                records.append({"task": name, "response": response, "id": f"{name}/{index}"})
        jsonl = tmp_path / "in.jsonl"
        jsonl.write_text("".join(json.dumps(record) + "\n" for record in records))
        return jsonl, records

    def test_batch_size_streaming_matches_single_batch_output(self, tmp_path, capsys):
        """--batch-size submits through the async dispatcher; the output must
        be byte-identical to the default single score_batch call."""
        from repro.serving.cli import main

        jsonl, _ = self._streaming_workload(tmp_path)
        blocking_out = tmp_path / "blocking.jsonl"
        streaming_out = tmp_path / "streaming.jsonl"
        base = [str(jsonl), "--core-specs", "--backend", "serial"]
        assert main(base + ["-o", str(blocking_out)]) == 0
        assert (
            main(
                base
                + ["-o", str(streaming_out), "--batch-size", "3", "--max-inflight-batches", "2"]
            )
            == 0
        )
        assert streaming_out.read_text() == blocking_out.read_text()

    def test_inflight_flags_require_batch_size(self, tmp_path, capsys):
        from repro.serving.cli import main

        jsonl, _ = self._streaming_workload(tmp_path)
        assert main([str(jsonl), "--max-inflight-batches", "2"]) == 2
        assert "require --batch-size" in capsys.readouterr().err
        assert main([str(jsonl), "--batch-size", "0"]) == 2
        assert "--batch-size must be positive" in capsys.readouterr().err

    def test_pairs_output_writes_encoded_preference_pairs(self, tmp_path, capsys):
        """--pairs-output emits the DPODatasetWriter spill format: per-task
        canonically ranked pairs, reloadable as EncodedPair records."""
        from repro.dpo.stream import read_encoded_pairs
        from repro.serving.cli import main

        jsonl, records = self._streaming_workload(tmp_path)
        pairs_path = tmp_path / "pairs.jsonl"
        argv = [str(jsonl), "--core-specs", "--backend", "serial",
                "-o", str(tmp_path / "out.jsonl"), "--pairs-output", str(pairs_path)]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "encoded preference pairs" in err and "encode stage" in err
        encoded = read_encoded_pairs(pairs_path)
        tasks_seen = {pair.task for pair in encoded}
        assert tasks_seen <= {record["task"] for record in records}
        for pair in encoded:
            assert pair.chosen_ids and pair.rejected_ids
            assert 0 < pair.chosen_response_start < len(pair.chosen_ids)

    def test_pairs_output_is_byte_identical_blocking_vs_streaming(self, tmp_path, capsys):
        """Acceptance: the encoded-pair file must not depend on how the
        scores were obtained (one blocking batch vs async streaming)."""
        from repro.serving.cli import main

        jsonl, _ = self._streaming_workload(tmp_path)
        blocking_pairs = tmp_path / "blocking-pairs.jsonl"
        streaming_pairs = tmp_path / "streaming-pairs.jsonl"
        base = [str(jsonl), "--core-specs", "--backend", "serial", "-o"]
        assert main(base + [str(tmp_path / "b.jsonl"), "--pairs-output", str(blocking_pairs)]) == 0
        assert (
            main(
                base
                + [str(tmp_path / "s.jsonl"), "--pairs-output", str(streaming_pairs),
                   "--batch-size", "2", "--max-inflight-batches", "2"]
            )
            == 0
        )
        assert streaming_pairs.read_bytes() == blocking_pairs.read_bytes()

    def test_pairs_output_covers_off_catalogue_tasks(self, tmp_path, capsys):
        """Records scored via an explicit scenario still group into pairs,
        with a prompt synthesised from the task name."""
        import json

        from repro.dpo.stream import read_encoded_pairs
        from repro.serving.cli import main

        jsonl = tmp_path / "in.jsonl"
        jsonl.write_text(
            json.dumps({"task": "custom_merge", "scenario": "highway_merge",
                        "response": "1. Go straight onto the highway."}) + "\n"
            + json.dumps({"task": "custom_merge", "scenario": "highway_merge",
                          "response": "1. Stop."}) + "\n"
        )
        pairs_path = tmp_path / "pairs.jsonl"
        assert main([str(jsonl), "--core-specs", "--backend", "serial",
                     "-o", str(tmp_path / "out.jsonl"), "--pairs-output", str(pairs_path)]) == 0
        encoded = read_encoded_pairs(pairs_path)
        assert all(pair.task == "custom_merge" for pair in encoded)

    def test_pairs_output_failure_leaves_no_file(self, tmp_path, monkeypatch):
        """Regression: an error while encoding a pair must propagate and
        leave neither the output shard nor its tmp file behind."""
        import repro.dpo.stream as stream
        from repro.serving.cli import write_pairs

        task = task_by_name("turn_right_traffic_light")
        responses = response_templates(task.name, "compliant")[:2] + response_templates(task.name, "flawed")[:1]
        jobs = [({"task": task.name, "response": response}, task.scenario) for response in responses]
        real_encode = stream.encode_preference_pair
        calls = []

        def failing_encode(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("disk full")
            return real_encode(*args, **kwargs)

        monkeypatch.setattr(stream, "encode_preference_pair", failing_encode)
        output_dir = tmp_path / "pairs"
        with pytest.raises(OSError, match="disk full"):
            write_pairs(jobs, [15, 10, 3], output_dir / "pairs.jsonl")
        assert len(calls) == 2
        assert list(output_dir.iterdir()) == []


class TestJobLevelApi:
    def test_score_batch_mixed_scenarios(self):
        tasks = [task_by_name("turn_right_traffic_light"), task_by_name("enter_roundabout")]
        jobs = []
        for task in tasks:
            for response in response_templates(task.name, "compliant")[:2]:
                jobs.append(FeedbackJob(task=task.name, scenario=task.scenario, response=response))
        service = FeedbackService(core_specifications(), feedback=FeedbackConfig())
        scores = service.score_batch(jobs)
        assert len(scores) == len(jobs)
        reference = FeedbackService(
            core_specifications(), feedback=FeedbackConfig(), config=ServingConfig(enabled=False)
        )
        assert scores == reference.score_batch(jobs)
