"""The benchmark's three workloads and their output checks.

Each workload follows one protocol, driven by ``run.py``:

* ``prepare()`` builds the seeded inputs (outside every timed region);
* ``setup(slot)`` builds the program objects a user would build before the
  first operation, in the private directory ``slot``, and returns the
  seconds it spent copying inputs (which are not set-up time);
* ``measure(seconds)`` drives a closed loop for ``seconds`` and returns a
  :class:`Phase`;
* ``teardown()`` releases everything ``setup`` built;
* ``check(phase)`` returns a list of errors (empty when every output is
  correct), computed after ``teardown``.

Why these workloads:

* ``finetune_loop`` — the paper's loop (sample, GLM2FSA, model check, rank,
  DPO) at a size where fine-tuning measurably helps; LM training and DPO do
  ~90% of its work.
* ``feedback_cold`` — ``repro-serve`` and every pipeline scoring stage on a
  cold cache; GLM2FSA and the model checker do the work, the LM none.
* ``jobs_warm`` — the jobs daemon as ``repro-serve daemon`` wires it, mostly
  answering from a warm shared cache while journaling every job: the
  persistence side of serving.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from inputs import ResponseStream, build_cache_shard, build_history_store, copy_tree, feedback_jobs, job_batch

NPROC = os.cpu_count() or 1


def serving_config(**overrides):
    """The library's default serving config with ``max_workers`` capped at ``nproc``."""
    from repro.serving import ServingConfig

    return ServingConfig(max_workers=min(ServingConfig().max_workers, NPROC), **overrides)


def warm_rule_book() -> None:
    """Translate the rule book into the process-wide Büchi memo, from empty.

    Program start-up work: the first verification of any process pays it.
    """
    from repro.driving.responses import response_templates
    from repro.driving.specifications import all_specifications
    from repro.driving.tasks import training_tasks
    from repro.feedback.formal import FormalVerifier
    from repro.modelcheck.fastpath import automata_memo

    automata_memo().clear()
    task = training_tasks()[0]
    FormalVerifier(all_specifications()).verify_response(
        task.model(), response_templates(task.name, "compliant")[0], task=task.name
    )


def peak_rss_mb() -> float:
    """The measuring process's peak resident set so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def naive_scores(records) -> list:
    """Reference scores from the frozen naive model checker (the oracle)."""
    from repro.core.config import FeedbackConfig
    from repro.driving.scenarios.universal import scenario_model
    from repro.driving.specifications import all_specifications
    from repro.driving.tasks import task_by_name
    from repro.feedback.formal import FormalVerifier
    from repro.modelcheck.checker import NaiveModelChecker

    feedback = FeedbackConfig()
    verifier = FormalVerifier(
        all_specifications(),
        checker=NaiveModelChecker(),
        wait_action=feedback.wait_action,
        restart_on_termination=feedback.restart_on_termination,
    )
    models: dict = {}
    scores = []
    for record in records:
        scenario = task_by_name(record["task"]).scenario
        if scenario not in models:
            models[scenario] = scenario_model(scenario)
        feedback_result = verifier.verify_response(models[scenario], record["response"], task=record["task"])
        scores.append(feedback_result.num_satisfied)
    return scores


@dataclass
class Phase:
    """What one measured phase produced: timings, outputs and failures."""

    loop_s: list = field(default_factory=list)        # one closed-loop iteration each
    latencies_ms: list = field(default_factory=list)  # one per job: a loop, a response or a daemon job
    busy_s: float = 0.0                               # time the throughput is taken over
    responses: int = 0                                # responses scored
    satisfaction: float = 0.0                         # fraction of the 15 specs satisfied
    # Peak RSS once a fixed amount of work is done, so that it does not grow
    # with how much work the host's speed lets into the measuring time.
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    layer: dict = field(default_factory=dict)         # per-layer values the workload measures itself


# ---------------------------------------------------------------------- #
class FinetuneLoop:
    """One closed-loop caller running ``DPOAFPipeline.run()`` end to end."""

    name = "finetune_loop"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.pipeline = None

    def config(self, loop: int):
        """The pipeline config of a phase's loop number ``loop``.

        Loops use pipeline seeds ``2 * seed + loop``: a run's figures average
        two seeds' loops, and runs with different seeds share no loop.
        """
        from repro.core.config import PipelineConfig, SamplingConfig
        from repro.dpo.trainer import DPOConfig
        from repro.lm.pretrain import PretrainConfig

        seed = 2 * self.seed + loop
        # Between quick_pipeline_config and paper_scale_config: large enough
        # that DPO raises satisfaction on every seed, small enough for a run.
        # max_steps fixes the DPO work: seeds yield 73+ pairs, so 10 epochs
        # of 12-pair batches would take 70-80 steps depending on the seed.
        return PipelineConfig(
            pretrain=PretrainConfig(num_steps=140, batch_size=16, seed=seed),
            dpo=DPOConfig(
                num_epochs=10, batch_size=12, learning_rate=3e-3, beta=1.0,
                lora_rank=8, checkpoint_every=5, max_steps=70, seed=seed,
            ),
            sampling=SamplingConfig(responses_per_prompt=4),
            serving=serving_config(),
            corpus_samples_per_task=28,
            seed=seed,
        )

    def describe(self) -> dict:
        return {"pipeline": self.config(0), "loop_seeds": "2 * seed + loop"}

    def prepare(self) -> None:
        pass

    def setup(self, slot: Path) -> float:
        from repro.core.pipeline import DPOAFPipeline

        warm_rule_book()
        self.pipeline = DPOAFPipeline(self.config(0))
        return 0.0

    def measure(self, seconds: float) -> Phase:
        from repro.core.pipeline import DPOAFPipeline

        phase = Phase()
        start = time.perf_counter()
        for loop in itertools.count():
            config = self.config(loop)
            if self.pipeline is None:
                self.pipeline = DPOAFPipeline(config)
            phase.attempted += 1
            began = time.perf_counter()
            try:
                result = self.pipeline.run()
            except Exception as exc:  # a failed loop is counted, not fatal
                phase.failed += 1
                phase.errors.append(f"loop raised {type(exc).__name__}: {exc}")
                result = None
            elapsed = time.perf_counter() - began
            self.pipeline.close()
            self.pipeline = None
            if result is not None:
                phase.loop_s.append(elapsed)
                phase.busy_s += elapsed
                phase.responses += result.serving_metrics["jobs"]
                # The caller's job here is one fine-tuning run.
                phase.latencies_ms.append(elapsed * 1000.0)
                phase.outputs.append(self._summary(result, config.seed))
            # Free this loop's models before the next one starts, so the
            # peak RSS is one loop's, not two.
            del result
            gc.collect()
            if loop == 0:
                phase.peak_rss_mb = peak_rss_mb()
            if time.perf_counter() - start >= seconds:
                break
        after = [summary["after"] for summary in phase.outputs]
        phase.satisfaction = statistics.fmean(after) if after else 0.0
        hits = sum(s["cache_hits"] for s in phase.outputs)
        lookups = hits + sum(s["cache_misses"] for s in phase.outputs)
        phase.layer = {
            "core.loop_wall_s": sum(phase.loop_s),
            "serving.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "serving.warm_start_entries": sum(s["warm_start_entries"] for s in phase.outputs),
        }
        return phase

    @staticmethod
    def _summary(result, seed: int) -> dict:
        """What the checks need from one loop (the models themselves are dropped)."""
        history = result.dpo_result.history
        return {
            "seed": seed,
            "before": result.before_evaluation.satisfaction_ratio(),
            "after": result.after_evaluation.satisfaction_ratio(),
            "evaluations": [
                [(t.task, list(t.satisfied_counts), t.num_specifications) for t in evaluation.per_task]
                for evaluation in (result.before_evaluation, result.after_evaluation)
            ],
            "pretrain_losses": list(result.pretrain_result.losses),
            "dpo_losses": list(history.losses),
            "dpo_epochs": list(history.epoch_boundaries),
            "cache_hits": result.serving_metrics.get("cache_hits", 0),
            "cache_misses": result.serving_metrics.get("cache_misses", 0),
            "warm_start_entries": result.serving_metrics.get("warm_start_entries", 0),
        }

    def teardown(self) -> None:
        if self.pipeline is not None:
            self.pipeline.close()
            self.pipeline = None

    def check(self, phase: Phase) -> list:
        from repro.driving.tasks import training_tasks, validation_tasks

        expected_tasks = [t.name for t in training_tasks()] + [t.name for t in validation_tasks()]
        samples = self.config(0).sampling.responses_per_prompt
        errors = []
        for summary in phase.outputs:
            label = f"pipeline seed {summary['seed']}"
            for evaluation in summary["evaluations"]:
                if [task for task, _, _ in evaluation] != expected_tasks:
                    errors.append(f"{label}: evaluated tasks {[t for t, _, _ in evaluation]}")
                for task, counts, num_specs in evaluation:
                    if len(counts) != samples or any(not 0 <= c <= num_specs for c in counts):
                        errors.append(f"{label}: task {task} has counts {counts}, want {samples} in [0, {num_specs}]")
            if not _falls(summary["pretrain_losses"], 10):
                errors.append(f"{label}: pretraining loss did not fall")
            epochs = summary["dpo_epochs"]
            first_epoch = summary["dpo_losses"][: epochs[0]] if epochs else []
            last_epoch = summary["dpo_losses"][epochs[-2]:] if len(epochs) > 1 else []
            if not first_epoch or not last_epoch or statistics.fmean(last_epoch) >= statistics.fmean(first_epoch):
                errors.append(f"{label}: DPO loss did not fall from the first epoch to the last")
            if not summary["after"] > summary["before"]:
                errors.append(f"{label}: satisfaction {summary['before']:.3f} -> {summary['after']:.3f} did not rise")
        if not phase.outputs:
            errors.append("no loop completed")
        return errors


def _falls(losses: list, window: int) -> bool:
    return len(losses) >= 2 * window and statistics.fmean(losses[-window:]) < statistics.fmean(losses[:window])


# ---------------------------------------------------------------------- #
class FeedbackCold:
    """One closed-loop caller scoring distinct responses on a fresh service."""

    name = "feedback_cold"
    #: Checked against the naive model checker, per phase.
    ORACLE_SAMPLE = 150
    CHUNK = 64
    #: Responses scored before the peak RSS is read (~10 s of a run).
    RSS_RESPONSES = 2400

    def __init__(self, seed: int, work: Path):
        from repro.core.config import SamplingConfig

        self.seed = seed
        # One task's sampling frontier: the pipeline's m responses per prompt.
        self.batch_size = SamplingConfig().responses_per_prompt
        self.service = None
        self.stream = None

    def describe(self) -> dict:
        from inputs import DUPLICATE_SHARE, VAGUE_SHARE

        return {"serving": serving_config(), "batch_size": self.batch_size,
                "vague_share": VAGUE_SHARE, "duplicate_share": DUPLICATE_SHARE}

    def prepare(self) -> None:
        self.stream = ResponseStream(self.seed)

    def setup(self, slot: Path) -> float:
        from repro.driving.specifications import all_specifications
        from repro.serving import FeedbackService

        warm_rule_book()
        self.service = FeedbackService(all_specifications(), config=serving_config())
        return 0.0

    def measure(self, seconds: float) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            chunk = [self.stream.batch(self.batch_size) for _ in range(self.CHUNK)]
            for records in chunk:
                jobs = feedback_jobs(records)
                phase.attempted += len(jobs)
                began = time.perf_counter()
                try:
                    scores = self.service.score_batch(jobs)
                except Exception as exc:
                    phase.failed += len(jobs)
                    phase.errors.append(f"score_batch raised {type(exc).__name__}: {exc}")
                    continue
                elapsed = time.perf_counter() - began
                phase.loop_s.append(elapsed)
                phase.busy_s += elapsed
                phase.responses += len(jobs)
                phase.latencies_ms.extend([elapsed * 1000.0] * len(jobs))
                phase.outputs.append((records, scores))
                if not phase.peak_rss_mb and phase.responses >= self.RSS_RESPONSES:
                    phase.peak_rss_mb = peak_rss_mb()
                if time.perf_counter() - start >= seconds:
                    break
        phase.satisfaction = _mean_fraction(score for _, scores in phase.outputs for score in scores)
        phase.layer = _cache_layer(self.service.metrics.snapshot())
        return phase

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def check(self, phase: Phase) -> list:
        return check_scores(phase.outputs, random.Random(self.seed), self.ORACLE_SAMPLE)


def check_scores(outputs, rng: random.Random, sample: int) -> list:
    """Scored batches are in range, duplicate-consistent, and match the oracle on a sample."""
    from repro.driving.specifications import all_specifications
    from repro.serving.dedup import canonicalize_response

    limit = len(all_specifications())
    errors = []
    flat = []
    for records, scores in outputs:
        if len(scores) != len(records):
            errors.append(f"{len(records)} records but {len(scores)} scores")
            continue
        by_text: dict = {}
        for record, score in zip(records, scores):
            if not isinstance(score, int) or not 0 <= score <= limit:
                errors.append(f"score {score!r} outside [0, {limit}]")
            first = by_text.setdefault(canonicalize_response(record["response"]), score)
            if first != score:
                errors.append(f"duplicate responses scored {first} and {score}")
            flat.append((record, score))
    if not flat:
        return errors + ["nothing was scored"]
    chosen = rng.sample(flat, min(sample, len(flat)))
    reference = naive_scores([record for record, _ in chosen])
    for (record, score), expected in zip(chosen, reference):
        if score != expected:
            errors.append(f"{record['task']}: scored {score}, naive checker says {expected}")
    return errors


def _mean_fraction(scores) -> float:
    from repro.driving.specifications import all_specifications

    scores = list(scores)
    return statistics.fmean(scores) / len(all_specifications()) if scores else 0.0


def _cache_layer(snapshot: dict) -> dict:
    lookups = snapshot["cache_hits"] + snapshot["cache_misses"]
    return {
        "serving.cache_hit_ratio": snapshot["cache_hits"] / lookups if lookups else 0.0,
        "serving.warm_start_entries": snapshot["warm_start_entries"],
    }


# ---------------------------------------------------------------------- #
class JobsWarm:
    """Closed-loop clients of a jobs daemon answering mostly from a warm cache."""

    name = "jobs_warm"
    POOL = 400          # distinct records in the pre-built cache shard
    HISTORY = 2000      # finished jobs in the store every daemon starts from
    BATCH = 16          # jobs per client submission
    HIT_SHARE = 0.95    # share of jobs whose record is in the shard
    CLIENTS = min(2, NPROC)
    RSS_JOBS = 1280     # jobs finished before the peak RSS is read (~12 s of a run)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.shard_template = work / "shard-template"
        self.store_template = work / "store-template"
        self.feeds: list = []

    def describe(self) -> dict:
        return {"pool": self.POOL, "history": self.HISTORY, "batch": self.BATCH,
                "hit_share": self.HIT_SHARE, "clients": self.CLIENTS, "cli": self._cli_args(Path("slot"))}

    def prepare(self) -> None:
        from repro.driving.specifications import all_specifications

        stream = ResponseStream(self.seed)
        rng = random.Random(self.seed)
        pool = []
        for _ in range(self.POOL):
            task = rng.choice(stream.tasks)
            pool.append({"task": task, "response": stream.response(task)})
        scores = build_cache_shard(self.shard_template, pool, all_specifications())
        build_history_store(self.store_template, pool, scores, jobs=self.HISTORY, batch_size=self.BATCH)
        self.feeds = []
        for client in range(self.CLIENTS):
            feed = ResponseStream(self.seed * 1000 + client + 1)
            feed.exclude(record["response"] for record in pool)
            self.feeds.append((feed, pool))

    def _cli_args(self, slot: Path) -> list:
        return ["--socket", str(slot / "d.sock"), "--store", str(slot / "store"), "--cache-dir", str(slot / "shard")]

    def setup(self, slot: Path) -> float:
        from repro.jobs.cli import build_daemon_parser
        from repro.jobs.server import JobsDaemon
        from repro.jobs.store import JobStore
        from repro.serving import Dispatcher, FeedbackService
        from repro.serving.cli import build_feedback, build_specifications, serving_config_from_args
        from repro.utils.retry import RetryPolicy

        began = time.perf_counter()
        copy_tree(self.shard_template, slot / "shard")
        copy_tree(self.store_template, slot / "store")
        copied = time.perf_counter() - began
        warm_rule_book()
        # Wired exactly as `repro-serve daemon` wires it (jobs/cli.py:cmd_daemon).
        args = build_daemon_parser().parse_args(self._cli_args(slot))
        args.max_workers = min(args.max_workers, NPROC)
        self.socket = args.socket
        self.store = JobStore(args.store, snapshot_every=args.snapshot_every)
        self.dispatcher = Dispatcher(name="repro-jobs")
        self.service = FeedbackService(
            build_specifications(args),
            feedback=build_feedback(args),
            config=serving_config_from_args(args),
            seed=args.seed,
            dispatcher=self.dispatcher,
        )
        self.daemon = JobsDaemon(
            args.socket,
            self.store,
            self.service,
            dispatcher=self.dispatcher,
            max_inflight_per_client=args.max_inflight_per_client,
            retry=RetryPolicy(max_attempts=args.job_retries + 1),
            throttle_seconds=args.throttle_seconds,
        )
        self.daemon.start()
        return copied

    def measure(self, seconds: float) -> Phase:
        results = [dict(rounds=[], jobs=[], submit_ms=[], failed=0, attempted=0, errors=[]) for _ in self.feeds]
        self._finished, self._finished_lock, self._rss = 0, threading.Lock(), 0.0
        deadline = time.perf_counter() + seconds
        threads = [
            threading.Thread(target=self._client, args=(k, deadline, results[k]), name=f"bench-client-{k}")
            for k in range(len(self.feeds))
        ]
        began = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase = Phase(busy_s=time.perf_counter() - began, peak_rss_mb=self._rss)
        submit_ms = []
        for result in results:
            phase.loop_s.extend(result["rounds"])
            phase.outputs.extend(result["jobs"])
            phase.attempted += result["attempted"]
            phase.failed += result["failed"]
            phase.errors.extend(result["errors"])
            submit_ms.extend(result["submit_ms"])
        succeeded = [job for job in phase.outputs if job["states"] == ["succeeded"]]
        phase.responses = len(succeeded)
        phase.latencies_ms = [job["latency_ms"] for job in phase.outputs]
        phase.satisfaction = _mean_fraction(job["score"] for job in succeeded)
        phase.layer = _cache_layer(self.service.metrics.snapshot())
        phase.layer.update({
            "jobs.submit_ms_p50": percentile(submit_ms, 50),
            "jobs.submit_ms_p99": percentile(submit_ms, 99),
            "jobs.failed": sum("failed" in job["states"] for job in phase.outputs),
            "jobs.retried": sum("retrying" in job["states"] for job in phase.outputs),
        })
        return phase

    def _client(self, k: int, deadline: float, out: dict) -> None:
        """One closed-loop client: submit a batch, wait for every job, repeat."""
        from repro.jobs.client import JobsClient
        from repro.jobs.models import TERMINAL_STATES

        feed, pool = self.feeds[k]
        client = JobsClient(self.socket, client_id=f"bench-{k}", timeout=60.0)
        while time.perf_counter() < deadline:
            batch = job_batch(feed, pool, size=self.BATCH, hit_share=self.HIT_SHARE)
            out["attempted"] += len(batch)
            began = time.perf_counter()
            try:
                created = client.create_batch(batch)
                submitted = time.perf_counter()
                jobs = {
                    record["job_id"]: {"spec": spec, "job_id": record["job_id"], "states": []}
                    for spec, record in zip(batch, created["jobs"])
                }
                for event in client.stream_progress(job_ids=list(jobs)):
                    if event["type"] == "end":
                        if event.get("reason") != "done":
                            raise RuntimeError(f"stream ended early: {event}")
                        break
                    record = event["job"]
                    job = jobs[record["job_id"]]
                    # The states that matter to the checks: retries and the terminal one.
                    if record["state"] == "retrying" or record["state"] in TERMINAL_STATES:
                        job["states"].append(record["state"])
                    if record["state"] in TERMINAL_STATES:
                        job["score"] = record["score"]
                        job["latency_ms"] = (time.perf_counter() - began) * 1000.0
            except Exception as exc:  # timeouts and daemon errors count as failures
                out["failed"] += len(batch)
                out["errors"].append(f"client {k}: {type(exc).__name__}: {exc}")
                continue
            out["rounds"].append(time.perf_counter() - began)
            out["submit_ms"].append((submitted - began) * 1000.0)
            out["failed"] += sum(job["states"] != ["succeeded"] for job in jobs.values())
            out["jobs"].extend(jobs.values())
            with self._finished_lock:
                self._finished += len(jobs)
                if not self._rss and self._finished >= self.RSS_JOBS:
                    self._rss = peak_rss_mb()

    def teardown(self) -> None:
        # The order `repro-serve daemon` shuts down in.
        self.daemon.stop()
        self.service.close()
        self.dispatcher.close()
        self.store.close()
        self.store_dir = Path(self.store.root)

    def check(self, phase: Phase) -> list:
        """Every job SUCCEEDED exactly once, with the one-shot service's score."""
        from repro.driving.specifications import all_specifications
        from repro.jobs.store import JobStore
        from repro.serving import FeedbackService, ServingConfig

        errors = []
        for job in phase.outputs:
            if job["states"] != ["succeeded"]:
                errors.append(f"{job['job_id']}: terminal states {job['states']}")
        specs = [job["spec"] for job in phase.outputs]
        with FeedbackService(all_specifications(), config=ServingConfig(backend="serial", cache_size=max(4096, len(specs)))) as one_shot:
            expected = one_shot.score_batch(feedback_jobs(specs))
        stored = JobStore(self.store_dir, fsync=False)
        try:
            for job, want in zip(phase.outputs, expected):
                record = stored.get(job["job_id"])
                if job.get("score") != want:
                    errors.append(f"{job['job_id']}: daemon scored {job.get('score')}, one-shot says {want}")
                if record is None or record.state != "succeeded" or record.score != want:
                    errors.append(f"{job['job_id']}: stored as {record}")
        finally:
            stored.close()
        if not phase.outputs:
            errors.append("no job finished")
        return errors


WORKLOADS = {w.name: w for w in (FinetuneLoop, FeedbackCold, JobsWarm)}
