"""Tests for configuration, prompting, persistence, and pipeline components."""

import numpy as np
import pytest

from repro.core import (
    DPOAFPipeline,
    conservative_driving_model,
    llama2_chat_prompt,
    load_model,
    paper_scale_config,
    pruned_driving_model,
    quick_pipeline_config,
    save_model,
    steps_prompt,
    alignment_prompt,
)
from repro.core.pipeline import ModelEvaluation, TaskEvaluation
from repro.driving import core_specifications, task_by_name, training_tasks
from repro.driving.responses import response_templates
from repro.errors import TrainingError
from repro.lm import ModelConfig, Tokenizer, TransformerLM


class TestPrompting:
    def test_steps_prompt_matches_paper_format(self):
        assert steps_prompt("turn right at traffic light").startswith('Steps for "turn right at traffic light"')

    def test_alignment_prompt_lists_vocabulary(self):
        prompt = alignment_prompt(["step one"], ["green_traffic_light"], ["stop"])
        assert "green_traffic_light" in prompt and "stop" in prompt and "1. step one" in prompt

    def test_llama2_wrapper_tokens(self):
        prompt = llama2_chat_prompt("Steps for \"turn right\":")
        assert prompt.startswith("<s>[INST]") and "<<SYS>>" in prompt and prompt.endswith("[/INST]")


class TestSystemModelHelpers:
    def test_conservative_model_is_complete(self):
        model = conservative_driving_model(["green_traffic_light", "car_from_left"])
        assert model.num_states == 4
        assert model.num_transitions == 16

    def test_pruned_model_removes_isolated_states(self):
        model = pruned_driving_model(
            ["green_traffic_light", "car_from_left"],
            lambda a, b: a != b and len(a) <= 1 and len(b) <= 1,
        )
        # The {green, car} state has no allowed transition, so Algorithm 1 prunes it.
        assert model.num_states == 3


class TestCheckpoints:
    def test_save_and_load_roundtrip(self, tmp_path):
        tokenizer = Tokenizer.fit(["turn right at the light"])
        model = TransformerLM(ModelConfig(vocab_size=tokenizer.vocab_size, max_seq_len=16, dim=8, num_heads=2, num_layers=1, hidden_dim=16), seed=0)
        save_model(model, tokenizer, tmp_path / "ckpt")
        loaded_model, loaded_tokenizer = load_model(tmp_path / "ckpt")
        tokens = np.array([tokenizer.encode("turn right", add_bos=True)])
        mask = np.ones((1, tokens.shape[1] - 1), dtype=np.float32)
        assert np.allclose(model.sequence_log_probs(tokens, mask), loaded_model.sequence_log_probs(tokens, mask), atol=1e-5)
        assert loaded_tokenizer.vocab_size == tokenizer.vocab_size

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(TrainingError):
            load_model(tmp_path / "nowhere")


class TestEvaluationContainers:
    def test_task_and_model_evaluation_aggregation(self):
        evaluation = ModelEvaluation(
            per_task=[
                TaskEvaluation(task="a", split="train", num_specifications=15, satisfied_counts=[15, 13]),
                TaskEvaluation(task="b", split="validation", num_specifications=15, satisfied_counts=[9]),
            ]
        )
        assert evaluation.mean_satisfied("train") == pytest.approx(14.0)
        assert evaluation.mean_satisfied("validation") == pytest.approx(9.0)
        assert 0.0 < evaluation.satisfaction_ratio() < 1.0
        assert ModelEvaluation().satisfaction_ratio() == 0.0


class TestPipelinePieces:
    @pytest.fixture(scope="class")
    def pipeline(self):
        with DPOAFPipeline(quick_pipeline_config(seed=0), specifications=core_specifications()) as pipeline:
            yield pipeline

    def test_configs_scale(self):
        quick = quick_pipeline_config()
        paper = paper_scale_config()
        assert quick.pretrain.num_steps < paper.pretrain.num_steps
        assert quick.dpo.num_epochs < paper.dpo.num_epochs

    def test_score_response_orders_categories(self, pipeline):
        task = task_by_name("turn_right_traffic_light")
        good = pipeline.score_response(task, response_templates(task.name, "compliant")[0])
        bad = pipeline.score_response(task, response_templates(task.name, "flawed")[0])
        vague = pipeline.score_response(task, "1. Just drive nicely.")
        assert good > bad >= vague

    def test_task_model_is_cached(self, pipeline):
        task = task_by_name("turn_right_traffic_light")
        assert pipeline.task_model(task) is pipeline.task_model(task)

    def test_augment_with_templates_adds_pairs(self, pipeline):
        pairs = pipeline.augment_with_templates([], per_task=2)
        assert len(pairs) >= 2 * len(training_tasks())
        assert all(pair.chosen_score >= pair.rejected_score for pair in pairs)

    def test_finetune_requires_pairs(self, pipeline):
        tokenizer = Tokenizer.fit(["x"])
        model = TransformerLM(ModelConfig(vocab_size=tokenizer.vocab_size, max_seq_len=8, dim=8, num_heads=2, num_layers=1, hidden_dim=16))
        with pytest.raises(TrainingError):
            pipeline.finetune(model, tokenizer, [])

    def test_evaluate_model_honors_explicit_zero_samples(self, pipeline):
        """num_samples=0 means sample nothing — it must not silently fall back
        to the config default (falsy-`or` bug)."""
        tokenizer = Tokenizer.fit(["x"])
        model = TransformerLM(ModelConfig(vocab_size=tokenizer.vocab_size, max_seq_len=8, dim=8, num_heads=2, num_layers=1, hidden_dim=16))
        evaluation = pipeline.evaluate_model(model, tokenizer, num_samples=0)
        assert evaluation.per_task
        assert all(t.satisfied_counts == [] for t in evaluation.per_task)
        assert evaluation.satisfaction_ratio() == 0.0


class TestSerialSamplingOracle:
    """The pipeline samples the whole task frontier in one batched wave; the
    result must equal walking the tasks one by one with the serial
    ``sample_responses`` oracle on the same rng, then scoring and ranking."""

    @pytest.fixture(scope="class")
    def trained(self):
        with DPOAFPipeline(quick_pipeline_config(seed=0), specifications=core_specifications()) as pipeline:
            pretrained = pipeline.pretrain_model()
            yield pipeline, pretrained.model, pretrained.tokenizer

    @staticmethod
    def _serial_responses(model, tokenizer, tasks, num_samples, sampling, seed):
        from repro.lm.corpus import format_prompt
        from repro.lm.sampling import sample_responses

        rng = np.random.default_rng(seed)
        return [
            (
                task,
                format_prompt(task),
                sample_responses(
                    model,
                    tokenizer,
                    format_prompt(task),
                    num_samples,
                    temperature=sampling.temperature,
                    top_k=sampling.top_k,
                    max_new_tokens=sampling.max_new_tokens,
                    seed=rng,
                ),
            )
            for task in tasks
        ]

    def test_collected_pairs_match_the_serial_oracle(self, trained):
        from repro.feedback.ranker import rank_to_pairs

        pipeline, model, tokenizer = trained
        sampling = pipeline.config.sampling
        expected = [
            pair
            for task, prompt, responses in self._serial_responses(
                model, tokenizer, pipeline.tasks, sampling.responses_per_prompt, sampling, pipeline.config.seed
            )
            for pair in rank_to_pairs(
                prompt,
                responses,
                [pipeline.score_response(task, response) for response in responses],
                task=task.name,
            )
        ]
        assert expected, "the oracle run must produce pairs to compare"
        assert pipeline.collect_preference_pairs(model, tokenizer) == expected

    def test_evaluation_matches_the_serial_oracle(self, trained):
        pipeline, model, tokenizer = trained
        tasks = list(pipeline.tasks) + list(pipeline.validation)
        expected = [
            (task.name, task.split, [pipeline.score_response(task, response) for response in responses])
            for task, _prompt, responses in self._serial_responses(
                model, tokenizer, tasks, 2, pipeline.config.sampling, 7
            )
        ]
        evaluation = pipeline.evaluate_model(model, tokenizer, num_samples=2, seed=7)
        assert [(t.task, t.split, t.satisfied_counts) for t in evaluation.per_task] == expected

    def test_augmented_pairs_follow_the_input_then_task_order(self, trained):
        pipeline = trained[0]
        seed_pairs = pipeline.collect_preference_pairs(trained[1], trained[2])
        augmented = pipeline.augment_with_templates(seed_pairs, per_task=3)
        assert augmented[: len(seed_pairs)] == seed_pairs
        added_tasks = [pair.task for pair in augmented[len(seed_pairs):]]
        task_order = [task.name for task in pipeline.tasks]
        assert added_tasks == sorted(added_tasks, key=task_order.index)
        assert all(added_tasks.count(name) <= 3 for name in task_order)
        assert set(added_tasks) == set(task_order)


class TestDrainInOrder:
    """``_drain_in_order`` runs ``build`` as batches complete but returns the
    results in submission order."""

    @staticmethod
    def _drain(completion_order):
        import threading
        from concurrent.futures import Future

        from repro.core.pipeline import _drain_in_order
        from repro.serving.scheduler import PendingBatch

        futures = [Future() for _ in completion_order]
        pending = [(f"task{i}", PendingBatch([], future)) for i, future in enumerate(futures)]
        built = []
        progressed = threading.Semaphore(0)

        def build(metadata, scores):
            built.append(metadata[0])
            progressed.release()
            return metadata[0], scores

        def complete():
            # One completion at a time, each after the previous build ran,
            # so completion order is exactly ``completion_order``.
            for index in completion_order:
                futures[index].set_result([index])
                progressed.acquire(timeout=5)

        completer = threading.Thread(target=complete, daemon=True)
        completer.start()
        results = _drain_in_order(pending, build)
        completer.join(timeout=5)
        assert not completer.is_alive()
        return built, results

    @pytest.mark.parametrize("completion_order", [[0, 1, 2], [2, 1, 0], [1, 2, 0]])
    def test_builds_in_completion_order_and_returns_in_submission_order(self, completion_order):
        built, results = self._drain(completion_order)
        assert built == [f"task{i}" for i in completion_order]
        assert results == [(f"task{i}", [i]) for i in range(len(completion_order))]

    def test_no_pending_batches_builds_nothing(self):
        from repro.core.pipeline import _drain_in_order

        assert _drain_in_order([], lambda metadata, scores: pytest.fail("build called")) == []

    def test_a_failed_batch_propagates_its_error(self):
        from concurrent.futures import Future

        from repro.core.pipeline import _drain_in_order
        from repro.serving.scheduler import PendingBatch

        ok, failed = Future(), Future()
        ok.set_result([1])
        failed.set_exception(RuntimeError("verifier crashed"))
        pending = [("a", PendingBatch([], ok)), ("b", PendingBatch([], failed))]
        with pytest.raises(RuntimeError, match="verifier crashed"):
            _drain_in_order(pending, lambda metadata, scores: scores)


def _pipeline_fingerprint(result):
    """Everything downstream of sampling, reduced to comparable values."""
    return {
        "pairs": [
            (p.prompt, p.chosen, p.rejected, p.chosen_score, p.rejected_score)
            for p in result.preference_pairs
        ],
        "before": [tuple(t.satisfied_counts) for t in result.before_evaluation.per_task],
        "after": [tuple(t.satisfied_counts) for t in result.after_evaluation.per_task],
        "losses": tuple(result.dpo_result.history.losses),
    }


class TestBackendParity:
    """The serving backend must be invisible in the outputs: pairs, losses
    and evaluations are bitwise-identical on every backend."""

    TASKS = 2  # keep the process-backend run affordable

    def _run(self, backend: str):
        import dataclasses

        from repro.serving import ServingConfig

        config = dataclasses.replace(
            quick_pipeline_config(seed=0),
            serving=ServingConfig(backend=backend, max_workers=2),
        )
        with DPOAFPipeline(
            config,
            specifications=core_specifications(),
            tasks=training_tasks()[: self.TASKS],
            validation=(),
        ) as pipeline:
            return _pipeline_fingerprint(pipeline.run())

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_thread_and_process_runs_equal_serial(self, backend):
        assert self._run(backend) == self._run("serial")


def test_removed_run_path_switches_are_rejected():
    """A stale config naming a deleted run-path switch fails loudly."""
    from repro.core.config import PipelineConfig

    with pytest.raises(TypeError):
        PipelineConfig(stream_training=True)
    with pytest.raises(TypeError):
        PipelineConfig(batched_sampling=False)
