"""Per-layer timing for traced runs, recorded from outside the program.

:class:`Recorder` replaces public functions and methods at their import
sites with timing wrappers and restores them afterwards.  Nothing inside
``src/`` changes, so the per-layer names stay meaningful when later changes
move spans around inside the program.

Leaf layers that run on the serving thread pool (GLM2FSA parsing and model
checking) are timed in thread CPU seconds: under the GIL, wall time inside a
call also counts the time spent waiting for the other worker.  Everything
else is wall time.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict

import numpy as np

#: Every per-layer metric: name -> (unit, better).  A traced run reports all
#: of them; a layer the workload never calls reads 0.
PER_LAYER = {
    "core.pretrain_s": ("s", "lower"),
    "core.evaluate_s": ("s", "lower"),
    "core.collect_s": ("s", "lower"),
    "core.train_s": ("s", "lower"),
    "core.unattributed_s": ("s", "lower"),
    "lm.pretrain.steps": ("count", "higher"),
    "lm.pretrain.step_s": ("s", "lower"),
    "lm.pretrain.nonpad_tokens_per_s": ("1/s", "higher"),
    "lm.pretrain.pad_fraction": ("ratio", "lower"),
    "lm.optim.step_s": ("s", "lower"),
    "lm.decode.s": ("s", "lower"),
    "lm.decode.tokens_per_s": ("1/s", "higher"),
    "dpo.steps": ("count", "higher"),
    "dpo.step_s": ("s", "lower"),
    "dpo.pairs_per_s": ("1/s", "higher"),
    "dpo.final_loss": ("nats", "lower"),
    "dpo.final_accuracy": ("ratio", "higher"),
    "glm2fsa.parses": ("count", "higher"),
    "glm2fsa.parse_s": ("s", "lower"),
    "glm2fsa.parse_fail_ratio": ("ratio", "lower"),
    "modelcheck.checks": ("count", "higher"),
    "modelcheck.verify_s": ("s", "lower"),
    "modelcheck.checks_per_s": ("1/s", "higher"),
    "modelcheck.result_cache_hit_ratio": ("ratio", "higher"),
    "logic.buchi_translations": ("count", "lower"),
    "logic.buchi_translate_s": ("s", "lower"),
    "serving.score_s": ("s", "lower"),
    "serving.overhead_s": ("s", "lower"),
    "serving.dedup_ratio": ("ratio", "higher"),
    "serving.cache_hit_ratio": ("ratio", "higher"),
    "serving.wait_s": ("s", "lower"),
    "serving.warm_start_s": ("s", "lower"),
    "serving.warm_start_entries": ("count", "higher"),
    "serving.flush_s": ("s", "lower"),
    "jobs.submit_ms_p50": ("ms", "lower"),
    "jobs.submit_ms_p99": ("ms", "lower"),
    "jobs.store.appends": ("count", "higher"),
    "jobs.store.append_s": ("s", "lower"),
    "jobs.store.snapshots": ("count", "lower"),
    "jobs.store.snapshot_s": ("s", "lower"),
    "jobs.store.snapshot_bytes": ("bytes", "lower"),
    "jobs.store.open_s": ("s", "lower"),
    "jobs.failed": ("count", "lower"),
    "jobs.retried": ("count", "lower"),
    "trace.untraced_loop_s": ("s", "lower"),
    "trace.traced_loop_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Recorder:
    """Thread-safe counters and busy-time totals keyed by layer metric name."""

    def __init__(self):
        self._lock = threading.Lock()
        self.seconds: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.last: dict = {}
        self._patches: list = []

    def add(self, name: str, seconds: float = 0.0, count: int = 1) -> None:
        with self._lock:
            self.seconds[name] += seconds
            self.counts[name] += count

    def bump(self, name: str, count: int = 1) -> None:
        with self._lock:
            self.counts[name] += count

    # ------------------------------------------------------------------ #
    def wrap(self, owner, attr: str, name: str, *, clock=time.perf_counter, after=None, failure=None):
        """Time every call of ``owner.attr`` under ``name``.

        ``after(result, args, kwargs)`` runs outside the timed region;
        ``failure`` names the counter bumped when the call raises.
        """
        original = owner.__dict__[attr]
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = original(*args, **kwargs)
            except Exception:
                recorder.add(name, clock() - start)
                if failure is not None:
                    recorder.bump(failure)
                raise
            recorder.add(name, clock() - start)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap the public calls of every layer (see :data:`PER_LAYER`)."""
        import repro.core.pipeline as core_pipeline
        import repro.dpo.trainer as dpo_trainer
        import repro.feedback.formal as formal
        import repro.jobs.store as jobs_store
        import repro.modelcheck.fastpath as fastpath
        import repro.serving.backends as backends
        from repro.core.pipeline import DPOAFPipeline
        from repro.lm.optim import Adam
        from repro.lm.transformer import TransformerLM
        from repro.modelcheck.checker import ModelChecker
        from repro.serving.scheduler import FeedbackService, PendingBatch
        from repro.serving.dedup import canonicalize_response

        cpu = time.thread_time

        # core: the pipeline's stages.
        self.wrap(DPOAFPipeline, "pretrain_model", "core.pretrain_s")
        self.wrap(DPOAFPipeline, "evaluate_model", "core.evaluate_s")
        self.wrap(DPOAFPipeline, "collect_preference_pairs", "core.collect_s")
        self.wrap(DPOAFPipeline, "augment_with_templates", "core.collect_s")
        self.wrap(DPOAFPipeline, "finetune", "core.train_s")

        # lm: pretraining steps, optimiser steps and frontier decoding.
        cross_entropy = TransformerLM.__dict__["cross_entropy"]

        def timed_cross_entropy(model, tokens, *, pad_id, backward=True):
            if not backward:
                return cross_entropy(model, tokens, pad_id=pad_id, backward=False)
            start = time.perf_counter()
            loss = cross_entropy(model, tokens, pad_id=pad_id, backward=True)
            self.add("lm.pretrain.step_s", time.perf_counter() - start)
            computed = np.asarray(tokens)[:, :-1]  # the positions the forward pass runs on
            self.bump("lm.pretrain.tokens", int(computed.size))
            self.bump("lm.pretrain.pad_tokens", int((computed == pad_id).sum()))
            return loss

        TransformerLM.cross_entropy = timed_cross_entropy
        self._patches.append((TransformerLM, "cross_entropy", cross_entropy))
        self.wrap(Adam, "step", "lm.optim.step_s")

        def decoded(frontier, args, kwargs):
            tokenizer = args[1]
            self.bump("lm.decode.tokens", sum(len(tokenizer.encode(r)) for group in frontier for r in group))

        self.wrap(core_pipeline, "sample_response_frontier", "lm.decode.s", after=decoded)

        # dpo: one optimisation step per call.
        def dpo_done(metrics, args, kwargs):
            self.bump("dpo.pairs", int(len(args[2]["indices"])))
            self.last["dpo.final_loss"] = float(metrics.loss)
            self.last["dpo.final_accuracy"] = float(metrics.accuracy)

        self.wrap(dpo_trainer, "dpo_step", "dpo.step_s", after=dpo_done)

        # glm2fsa: text -> controller, at both import sites.
        for module in (formal, backends):
            self.wrap(module, "build_controller_from_text", "glm2fsa.parse_s", clock=cpu, failure="glm2fsa.parse_failures")

        # modelcheck: one controller against the rule book per call.
        self.wrap(ModelChecker, "verify_controller", "modelcheck.verify_s", clock=cpu)
        result_get = fastpath.ResultCache.__dict__["get"]

        def counted_get(cache, key):
            hit = result_get(cache, key)
            self.bump("modelcheck.result_cache.hits" if hit is not None else "modelcheck.result_cache.misses")
            return hit

        fastpath.ResultCache.get = counted_get
        self._patches.append((fastpath.ResultCache, "get", result_get))

        # logic: LTL -> Büchi translations (memo misses).
        self.wrap(fastpath, "ltl_to_buchi", "logic.buchi_translate_s")

        # serving: batches, waits, warm start and flush.
        def scored(scores, args, kwargs):
            jobs = list(args[1])
            unique = {(job.scenario, canonicalize_response(job.response)) for job in jobs}
            self.bump("serving.jobs", len(jobs))
            self.bump("serving.unique_jobs", len(unique))

        self.wrap(FeedbackService, "score_batch", "serving.score_s", after=scored)
        self.wrap(PendingBatch, "result", "serving.wait_s")
        # The pipeline blocks in as_completed before it reads each result.
        waiting = core_pipeline.__dict__["as_completed"]

        def timed_as_completed(*args, **kwargs):
            handles = waiting(*args, **kwargs)
            while True:
                start = time.perf_counter()
                handle = next(handles, None)
                self.add("serving.wait_s", time.perf_counter() - start, count=0)
                if handle is None:
                    return
                yield handle

        core_pipeline.as_completed = timed_as_completed
        self._patches.append((core_pipeline, "as_completed", waiting))
        self.wrap(FeedbackService, "__init__", "serving.warm_start_s")
        self.wrap(FeedbackService, "flush", "serving.flush_s")

        # jobs: journal appends, snapshots and store replay.
        self.wrap(jobs_store.JobStore, "append_job", "jobs.store.append_s")
        self.wrap(jobs_store.JobStore, "append_batch", "jobs.store.append_s")
        self.wrap(jobs_store.JobStore, "__init__", "jobs.store.open_s")

        def snapshot_written(result, args, kwargs):
            self.bump("jobs.store.snapshot_bytes", os.path.getsize(args[1]))

        self.wrap(jobs_store, "dump_json_atomic", "jobs.store.snapshot_s", after=snapshot_written)

    # ------------------------------------------------------------------ #
    def metrics(self, extra: dict) -> dict:
        """Every :data:`PER_LAYER` value from the recorded totals plus ``extra``.

        ``extra`` carries what the workload measured itself (submit round
        trips, failures, loop times, cache counters).
        """
        s, n = self.seconds, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        score_s = s["serving.score_s"]
        core_parts = sum(s[k] for k in ("core.pretrain_s", "core.evaluate_s", "core.collect_s", "core.train_s"))
        values = {
            "core.pretrain_s": s["core.pretrain_s"],
            "core.evaluate_s": s["core.evaluate_s"],
            "core.collect_s": s["core.collect_s"],
            "core.train_s": s["core.train_s"],
            "core.unattributed_s": extra.pop("core.loop_wall_s", 0.0) - core_parts if core_parts else 0.0,
            "lm.pretrain.steps": n["lm.pretrain.step_s"],
            "lm.pretrain.step_s": s["lm.pretrain.step_s"],
            "lm.pretrain.nonpad_tokens_per_s": ratio(n["lm.pretrain.tokens"] - n["lm.pretrain.pad_tokens"], s["lm.pretrain.step_s"]),
            "lm.pretrain.pad_fraction": ratio(n["lm.pretrain.pad_tokens"], n["lm.pretrain.tokens"]),
            "lm.optim.step_s": s["lm.optim.step_s"],
            "lm.decode.s": s["lm.decode.s"],
            "lm.decode.tokens_per_s": ratio(n["lm.decode.tokens"], s["lm.decode.s"]),
            "dpo.steps": n["dpo.step_s"],
            "dpo.step_s": s["dpo.step_s"],
            "dpo.pairs_per_s": ratio(n["dpo.pairs"], s["dpo.step_s"]),
            "dpo.final_loss": self.last.get("dpo.final_loss", 0.0),
            "dpo.final_accuracy": self.last.get("dpo.final_accuracy", 0.0),
            "glm2fsa.parses": n["glm2fsa.parse_s"],
            "glm2fsa.parse_s": s["glm2fsa.parse_s"],
            "glm2fsa.parse_fail_ratio": ratio(n["glm2fsa.parse_failures"], n["glm2fsa.parse_s"]),
            "modelcheck.checks": n["modelcheck.verify_s"],
            "modelcheck.verify_s": s["modelcheck.verify_s"],
            "modelcheck.checks_per_s": ratio(n["modelcheck.verify_s"], s["modelcheck.verify_s"]),
            "modelcheck.result_cache_hit_ratio": ratio(
                n["modelcheck.result_cache.hits"],
                n["modelcheck.result_cache.hits"] + n["modelcheck.result_cache.misses"],
            ),
            "logic.buchi_translations": n["logic.buchi_translate_s"],
            "logic.buchi_translate_s": s["logic.buchi_translate_s"],
            "serving.score_s": score_s,
            "serving.overhead_s": score_s - s["glm2fsa.parse_s"] - s["modelcheck.verify_s"] if score_s else 0.0,
            "serving.dedup_ratio": 1.0 - ratio(n["serving.unique_jobs"], n["serving.jobs"]) if n["serving.jobs"] else 0.0,
            "serving.wait_s": s["serving.wait_s"],
            "serving.warm_start_s": s["serving.warm_start_s"],
            "serving.flush_s": s["serving.flush_s"],
            "jobs.store.appends": n["jobs.store.append_s"],
            "jobs.store.append_s": s["jobs.store.append_s"],
            "jobs.store.snapshots": n["jobs.store.snapshot_s"],
            "jobs.store.snapshot_s": s["jobs.store.snapshot_s"],
            "jobs.store.snapshot_bytes": n["jobs.store.snapshot_bytes"],
            "jobs.store.open_s": s["jobs.store.open_s"],
        }
        values.update(extra)
        return {name: float(values.get(name, 0.0)) for name in PER_LAYER}
