"""Self-test of the output checks: correct outputs pass, a corrupted one fails.

Run with ``python3 perfbench/run.py --self-test``.  Each case runs a small
real workload, checks its outputs (which must pass), corrupts one output and
checks again (which must fail).  Exits 0 only when every corruption is caught.
"""

from __future__ import annotations

import copy
import random
import shutil
from pathlib import Path

from inputs import feedback_jobs
from workloads import FeedbackCold, FinetuneLoop, JobsWarm, Phase, check_scores


def _cold_case() -> tuple:
    workload = FeedbackCold(0, Path("."))
    workload.prepare()
    workload.setup(Path("."))
    try:
        outputs = []
        for _ in range(12):
            records = workload.stream.batch(workload.batch_size)
            outputs.append((records, workload.service.score_batch(feedback_jobs(records))))
    finally:
        workload.teardown()
    sample = sum(len(records) for records, _ in outputs)
    clean = check_scores(outputs, random.Random(0), sample)
    records, scores = outputs[3]
    corrupted = list(outputs)
    corrupted[3] = (records, [(scores[0] + 1) % 16] + scores[1:])
    return clean, check_scores(corrupted, random.Random(0), sample)


def _jobs_case(work: Path) -> tuple:
    workload = JobsWarm(0, work)
    workload.POOL, workload.HISTORY = 40, 80
    workload.prepare()
    workload.setup(work / "slot")
    try:
        phase = workload.measure(1.0)
    finally:
        workload.teardown()
    clean = workload.check(phase)
    phase.outputs[0]["score"] = (phase.outputs[0]["score"] + 1) % 16
    return clean, workload.check(phase)


def _loop_case() -> tuple:
    """The loop checks on a synthetic summary shaped like a real loop's."""
    from repro.driving.tasks import training_tasks, validation_tasks

    workload = FinetuneLoop(0, Path("."))
    tasks = [t.name for t in training_tasks()] + [t.name for t in validation_tasks()]
    summary = {
        "seed": 0,
        "before": 0.6,
        "after": 0.9,
        "evaluations": [[(task, [9, 10, 12, 15], 15) for task in tasks] for _ in range(2)],
        "pretrain_losses": [5.0 - 0.02 * i for i in range(140)],
        "dpo_losses": [0.69 - 0.005 * i for i in range(80)],
        "dpo_epochs": list(range(8, 81, 8)),
    }
    clean = workload.check(Phase(outputs=[summary]))
    corrupted = copy.deepcopy(summary)
    corrupted["evaluations"][1][0] = (tasks[0], [9, 10, 12], 15)  # one sample lost
    return clean, workload.check(Phase(outputs=[corrupted]))


def self_test() -> int:
    work = Path(".perfbench_tmp") / "self-test"
    ok = True
    try:
        for name, case in (
            ("feedback_cold score", _cold_case),
            ("jobs_warm score", lambda: _jobs_case(work)),
            ("finetune_loop evaluation", _loop_case),
        ):
            clean, corrupted = case()
            passed = not clean and bool(corrupted)
            ok &= passed
            print(f"{'ok  ' if passed else 'FAIL'} {name}: clean errors={clean[:3]} corrupted errors={corrupted[:3]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0 if ok else 1
