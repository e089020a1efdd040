"""Benchmark entry point: one workload, one seed, a fixed measuring time.

Usage, from the repository root::

    python3 perfbench/run.py --workload finetune_loop --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric (see ``BENCHMARK.json`` and ``perfbench/README.md``).  The last line
of standard output is the result object; the line before it is the run
manifest.  The process exits non-zero when an output check fails, and
without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metric name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "loop_s": ("s", "lower"),
    "satisfaction_after": ("fraction", "higher"),
    "responses_per_s": ("1/s", "higher"),
    "jobs_per_s": ("1/s", "higher"),
    "job_latency_ms_p50": ("ms", "lower"),
    "job_latency_ms_p99": ("ms", "lower"),
}
#: Fresh processes timed from spawn to ready; setup_s is their median.
SETUP_PROBES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="show that corrupted outputs fail the checks")
    # Internal: one set-up probe (see probe_setup).
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--slot", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.self_test:
        from selftest import self_test

        return self_test()
    if args.workload not in WORKLOADS:
        print(f"perfbench: --workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.probe_setup:
        return probe_child(workload, args)

    work = Path(".perfbench_tmp") / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(workload(args.seed, work), args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def run(workload, args, work: Path) -> int:
    workload.prepare()
    if args.trace:
        metrics, phases, errors = traced(workload, args.seconds, work)
        setup_samples = []
    else:
        setup_samples = [probe_setup(args, work, k) for k in range(SETUP_PROBES)]
        phase = measured(workload, args.seconds, work / "main")
        errors = workload.check(phase)
        phases = [phase]
        metrics = end_to_end(phase, setup_samples)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [e for p in phases for e in p.errors] + errors
    details = {
        "manifest": manifest(workload, args),
        "phases": [
            {"loops": len(p.loop_s), "responses": p.responses, "busy_s": p.busy_s,
             "attempted": p.attempted, "failed": p.failed}
            for p in phases
        ],
        "setup_samples_s": setup_samples,
        "errors": errors[:20],
    }
    print(json.dumps(details, sort_keys=True, default=str))
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def measured(workload, seconds: float, slot: Path):
    workload.setup(slot)
    try:
        return workload.measure(seconds)
    finally:
        workload.teardown()


def traced(workload, seconds: float, work: Path):
    """An untraced half, then a traced half, each from a fresh set-up."""
    from layers import Recorder

    untraced = measured(workload, seconds / 2, work / "untraced")
    errors = workload.check(untraced)
    recorder = Recorder()
    recorder.install()
    try:
        traced_phase = measured(workload, seconds / 2, work / "traced")
    finally:
        recorder.restore()
    errors += workload.check(traced_phase)
    plain = statistics.median(untraced.loop_s) if untraced.loop_s else 0.0
    timed = statistics.median(traced_phase.loop_s) if traced_phase.loop_s else 0.0
    extra = dict(traced_phase.layer)
    extra.update({
        "trace.untraced_loop_s": plain,
        "trace.traced_loop_s": timed,
        "trace.overhead_s": timed - plain,
    })
    return recorder.metrics(extra), [untraced, traced_phase], errors


def end_to_end(phase, setup_samples) -> dict:
    from workloads import peak_rss_mb, percentile

    rate = phase.responses / phase.busy_s if phase.busy_s else 0.0
    return {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": phase.peak_rss_mb or peak_rss_mb(),
        "loop_s": statistics.median(phase.loop_s) if phase.loop_s else 0.0,
        "satisfaction_after": phase.satisfaction,
        "responses_per_s": rate,
        # Every job carries one response, so the two rates coincide; the
        # jobs workload counts jobs that finished as SUCCEEDED.
        "jobs_per_s": rate,
        "job_latency_ms_p50": percentile(phase.latencies_ms, 50),
        "job_latency_ms_p99": percentile(phase.latencies_ms, 99),
    }


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    from layers import PER_LAYER

    return PER_LAYER[name][0]


# ---------------------------------------------------------------------- #
# set-up time
# ---------------------------------------------------------------------- #
def probe_setup(args, work: Path, k: int) -> float:
    """Seconds from spawning a fresh interpreter to the workload being ready.

    Covers interpreter start, imports, rule-book translation and the
    workload's own set-up (store replay, cache warm start, daemon start);
    copying the prepared inputs into place is subtracted.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--probe-setup",
        "--workload", args.workload, "--seed", str(args.seed),
        "--work", str(work), "--slot", str(work / f"probe{k}"),
        "--spawned-at", repr(time.time()),
    ]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    ready = [line for line in out.splitlines() if line.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {out[-500:]}")
    shutil.rmtree(work / f"probe{k}", ignore_errors=True)
    return float(ready[-1].split()[1])


def probe_child(workload_class, args) -> int:
    workload = workload_class(args.seed, args.work)
    copied = workload.setup(args.slot)
    print(f"READY {time.time() - args.spawned_at - copied!r}", flush=True)
    workload.teardown()
    return 0


# ---------------------------------------------------------------------- #
# manifest
# ---------------------------------------------------------------------- #
def manifest(workload, args) -> dict:
    import numpy as np

    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]
    except Exception as exc:  # older numpy: no dict mode
        build = f"unavailable: {exc}"
    config = json.dumps(workload.describe(), sort_keys=True, default=str)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": build,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "config_sha256": hashlib.sha256(config.encode()).hexdigest(),
        "config": json.loads(config),
    }


def git_sha() -> str | None:
    """HEAD's commit from the checkout's own ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over every source file of the program, path and content."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
