"""Seeded input generators for the benchmark workloads.

Everything here is derived from the run's ``--seed``: the same seed gives the
same records, the same pre-built cache shard and the same job history.  The
program under test only ever receives the generated inputs.

Records are ``{"task": ..., "response": ...}`` dicts, the wire shape of
``repro-serve`` and the jobs daemon.  A response is a recombination of
numbered steps taken from one task's compliant and flawed templates, so it
parses and verifies like a language-model sample; a small share are vague
(unparseable) responses recombined from the shared vague templates, and a
small share of batch slots repeat an earlier response of the same batch with
different whitespace (a duplicate after canonicalisation).
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

from repro.driving.responses import VAGUE_RESPONSES, response_templates
from repro.driving.tasks import all_tasks
from repro.glm2fsa.semantic_parser import strip_numbering

#: Share of generated responses drawn from the vague (unparseable) templates.
VAGUE_SHARE = 0.05
#: Share of batch slots that repeat an earlier response of the same batch.
DUPLICATE_SHARE = 0.05
#: Steps per recombined response (inclusive range).
MIN_STEPS, MAX_STEPS = 2, 5


def _steps(templates) -> list:
    """Every distinct step line of ``templates``, numbering stripped, in order."""
    seen: dict = {}
    for template in templates:
        for line in template.split("\n"):
            line = strip_numbering(line).strip()
            if line:
                seen.setdefault(line, None)
    return list(seen)


class ResponseStream:
    """An endless, seeded stream of distinct responses, one task per batch.

    ``batch()`` returns the records of one batch: ``size`` responses to one
    task, as the pipeline submits one task's sampling frontier.  No response
    repeats across the stream (generated texts are already canonical), except
    the deliberate within-batch duplicates.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.tasks = [task.name for task in all_tasks()]
        self._task_steps = {
            name: _steps(response_templates(name, "compliant") + response_templates(name, "flawed"))
            for name in self.tasks
        }
        self._vague_steps = _steps(VAGUE_RESPONSES)
        self._seen: set = set()

    def response(self, task: str) -> str:
        """One fresh response to ``task`` (never seen before in this stream)."""
        pool = self._vague_steps if self.rng.random() < VAGUE_SHARE else self._task_steps[task]
        while True:
            count = self.rng.randint(MIN_STEPS, min(MAX_STEPS, len(pool)))
            steps = self.rng.sample(pool, count)
            text = "\n".join(f"{i}. {step}" for i, step in enumerate(steps, 1))
            if text not in self._seen:
                self._seen.add(text)
                return text

    def exclude(self, texts) -> None:
        """Never produce any of ``texts`` (e.g. another stream's responses)."""
        self._seen.update(texts)

    def batch(self, size: int, task: str | None = None) -> list:
        """``size`` records for one task (random unless given), with duplicates."""
        task = task or self.rng.choice(self.tasks)
        records: list = []
        for _ in range(size):
            if records and self.rng.random() < DUPLICATE_SHARE:
                original = self.rng.choice(records)["response"]
                # Same canonical text, different bytes: trailing spaces per line.
                records.append({"task": task, "response": original.replace("\n", "  \n") + "  "})
            else:
                records.append({"task": task, "response": self.response(task)})
        return records


def feedback_jobs(records) -> list:
    """The serving layer's ``FeedbackJob`` for each record."""
    from repro.driving.tasks import task_by_name
    from repro.serving.scheduler import FeedbackJob

    return [
        FeedbackJob(task=r["task"], scenario=task_by_name(r["task"]).scenario, response=r["response"])
        for r in records
    ]


def job_batch(stream: ResponseStream, pool: list, *, size: int, hit_share: float) -> list:
    """``size`` job records: ``hit_share`` of them reuse ``pool`` records, the rest are fresh.

    Pool records are what the pre-built cache shard already holds, so they
    are the daemon's cache hits; fresh records are distinct and cold.
    """
    rng = stream.rng
    batch = []
    for _ in range(size):
        if rng.random() < hit_share:
            batch.append(dict(rng.choice(pool)))
        else:
            task = rng.choice(stream.tasks)
            batch.append({"task": task, "response": stream.response(task)})
    return batch


def build_cache_shard(directory: Path, pool: list, specifications) -> dict:
    """Score ``pool`` once and leave the scores in a shared cache directory.

    This is the cache a previous ``repro-serve --cache-dir`` run would have
    left behind: the daemon warm-starts from it.  Returns ``{(task,
    response): score}`` for building the job history.
    """
    from repro.serving import FeedbackService, ServingConfig

    config = ServingConfig(backend="serial", shared_cache_dir=str(directory), cache_size=max(4096, len(pool)))
    with FeedbackService(specifications, config=config) as service:
        scores = service.score_batch(feedback_jobs(pool))
    return {(r["task"], r["response"]): score for r, score in zip(pool, scores)}


def build_history_store(directory: Path, pool: list, scores: dict, *, jobs: int, batch_size: int) -> None:
    """A job store holding ``jobs`` finished (SUCCEEDED) jobs in batches.

    The store is written once per run and copied fresh before every daemon
    start (:func:`copy_tree`), so one daemon's snapshot growth never leaks
    into the next.
    """
    from repro.driving.tasks import task_by_name
    from repro.jobs.models import SUCCEEDED, Batch, Job
    from repro.jobs.store import JobStore

    with JobStore(directory, snapshot_every=10 ** 9, fsync=False) as store:
        for b in range(jobs // batch_size):
            batch_id = f"b-{b + 1:06d}"
            job_ids = []
            for i in range(batch_size):
                n = b * batch_size + i
                record = pool[n % len(pool)]
                job = Job(
                    job_id=f"j-{n + 1:06d}",
                    client_id=f"client-{b % 2}",
                    task=record["task"],
                    scenario=task_by_name(record["task"]).scenario,
                    response=record["response"],
                    state=SUCCEEDED,
                    attempts=1,
                    score=scores[(record["task"], record["response"])],
                    batch_id=batch_id,
                    created_at=float(n),
                    updated_at=float(n),
                )
                store.append_job(job)
                job_ids.append(job.job_id)
            store.append_batch(Batch(batch_id=batch_id, client_id=f"client-{b % 2}", job_ids=tuple(job_ids)))


def copy_tree(source: Path, target: Path) -> Path:
    """Fresh copy of a template directory (replacing any previous copy)."""
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(source, target)
    return target
