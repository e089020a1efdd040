"""``repro-serve`` — score a JSONL file of responses through the feedback service.

Input: one JSON object per line with a ``task`` (a name from
:mod:`repro.driving.tasks`) and a ``response`` (the step-by-step text)::

    {"task": "turn_right_traffic_light", "response": "1. Observe the traffic light. ..."}

A record may instead name its verification ``scenario`` directly, which also
covers tasks outside the built-in catalogue::

    {"task": "merge_onto_highway", "scenario": "highway_merge", "response": "..."}

Output: the *original* objects — every extra field (ids, provenance, …) is
preserved verbatim — with the resolved ``scenario`` and an integer ``score``
merged in, one per line, followed by a telemetry summary on stderr.  The
input file is validated in full before any verification machinery is built,
so a typo'd path or malformed line is reported immediately; when ``--output``
is used the file is written through a tmp file and moved into place, so a
failure mid-run never leaves a truncated output behind.

By default the whole input is scored as one synchronous batch.  With
``--batch-size N`` the input is split into batches submitted asynchronously
through one shared :class:`~repro.serving.scheduler.Dispatcher`
(``FeedbackService.submit_batch``); ``--max-inflight-batches`` /
``--max-inflight-jobs`` bound how much *unresolved verification work* may be
queued on the dispatcher at once — the shape a long-running producer wants.
(The input file itself is still loaded and validated in full up front, so
these bounds cap dispatcher queueing, not total process memory.)  Output
order and scores are identical either way.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

EPILOG = """\
backends:
  serial    score cache misses inline — the bitwise reference path
  thread    ThreadPoolExecutor; cheap to start, but verification is pure
            Python, so the GIL caps it near single-core speed
  process   ProcessPoolExecutor; each worker builds the verifier/world-model
            stack once and scores chunks of misses in parallel — use this for
            large cold batches on multi-core machines (small batches fall
            back to serial automatically)

caching:
  --cache-file FILE   private single-file cache: loaded at startup, written
                      (atomically) at exit
  --cache-dir DIR     shared cache directory: one JSON shard per feedback
                      fingerprint (<sha256-prefix>.json), written atomically
                      and merged across runs — point the pipeline, the
                      benchmarks and repeated repro-serve invocations at the
                      same directory and they warm-start each other.  A
                      changed mode/spec-set/seed changes the fingerprint and
                      therefore the shard, so stale scores are never served.
  --cache-max-entries N / --cache-max-bytes N
                      compact the shared directory after flushing: trim every
                      shard to its newest N entries, then evict whole shards
                      (least recently written first) until the directory is
                      under N bytes — keeps long-lived cache directories from
                      growing without bound.

streaming:
  --batch-size N      submit the input as batches of N records through the
                      service's async API (one shared dispatcher thread)
                      instead of one blocking score_batch call; scores and
                      output order are identical
  --max-inflight-batches N / --max-inflight-jobs N
                      back-pressure for --batch-size: block submission while
                      N batches (or jobs) are still unresolved, bounding the
                      verification work queued on the dispatcher; time spent
                      blocked is reported in the telemetry line

daemon mode:
  repro-serve daemon --socket S --store DIR [service flags]
                      run feedback scoring as a durable multi-client service:
                      every job is journaled before it is acknowledged, so a
                      killed daemon restarted on the same --store resumes and
                      finishes every accepted job exactly once, with scores
                      identical to a one-shot run
  repro-serve submit|status|watch --socket S
                      submit a JSONL file as a batch (--wait writes the same
                      scored records a one-shot run would), query job/batch/
                      daemon state, or stream progress events (docs/jobs.md)

training data:
  --pairs-output PATH write a DPO-ready preference dataset next to the scored
                      records: responses are grouped per task, ranked by
                      score (canonically — input order never matters), turned
                      into preference pairs, tokenised with a vocabulary fit
                      on the input, and emitted as one encoded pair per JSONL
                      line (token ids + response-mask starts, the
                      repro.dpo.stream.DPODatasetWriter spill format).  The
                      file is byte-identical whether the input was scored
                      blocking or streamed with --batch-size.
"""


#: Subcommands routed to :mod:`repro.jobs.cli` (the daemon mode); everything
#: else is the original one-shot scoring path, byte-for-byte.
JOBS_COMMANDS = ("daemon", "submit", "status", "watch")


def add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the service/config flags shared by every ``repro-serve`` entry point.

    The one-shot parser and the ``daemon`` subcommand both call this, so a
    daemon is configured with exactly the flags a one-shot run understands —
    same names, same defaults, same help text.  Pair with
    :func:`serving_config_from_args` / :func:`build_specifications` /
    :func:`build_feedback` to turn the parsed values into service inputs.
    """
    parser.add_argument("--mode", choices=("formal", "empirical"), default="formal", help="feedback channel")
    parser.add_argument("--core-specs", action="store_true", help="score against Φ1-Φ5 only instead of all 15 rules")
    parser.add_argument(
        "--backend", choices=("serial", "thread", "process"), default="thread", help="worker-pool backend"
    )
    parser.add_argument("--max-workers", type=int, default=4, help="worker-pool width")
    parser.add_argument("--cache-size", type=int, default=4096, help="LRU bound on the result cache")
    parser.add_argument("--cache-file", type=Path, default=None, help="persist/warm-start the cache at this path")
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="shared cross-run cache directory of per-fingerprint shards",
    )
    parser.add_argument(
        "--cache-max-entries", type=int, default=None,
        help="compact the shared cache directory to this many entries per shard",
    )
    parser.add_argument(
        "--cache-max-bytes", type=int, default=None,
        help="compact the shared cache directory to this many total bytes",
    )
    parser.add_argument(
        "--automata-cache-dir", type=Path, default=None,
        help="persist the Büchi construction memo here (skips LTL re-translation across runs/workers)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for empirical trace collection")


def build_specifications(args) -> dict:
    """The specification set the parsed arguments select (core or all 15)."""
    from repro.driving.specifications import all_specifications, core_specifications

    return core_specifications() if args.core_specs else all_specifications()


def build_feedback(args):
    """The :class:`~repro.core.config.FeedbackConfig` for ``--mode``."""
    from repro.core.config import FeedbackConfig

    return FeedbackConfig(use_empirical=args.mode == "empirical")


def serving_config_from_args(args, **overrides):
    """Build the :class:`~repro.serving.config.ServingConfig` the flags describe.

    ``overrides`` are extra ``ServingConfig`` fields an entry point adds on
    top of the shared flags (the one-shot path passes its back-pressure
    bounds).  Raises ``ValueError`` exactly as ``ServingConfig`` does.
    """
    from repro.serving import ServingConfig

    return ServingConfig(
        backend=args.backend,
        max_workers=args.max_workers,
        cache_size=args.cache_size,
        persist_path=str(args.cache_file) if args.cache_file else None,
        shared_cache_dir=str(args.cache_dir) if args.cache_dir else None,
        shared_cache_max_entries=args.cache_max_entries,
        shared_cache_max_bytes=args.cache_max_bytes,
        automata_cache_dir=str(args.automata_cache_dir) if args.automata_cache_dir else None,
        **overrides,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Score step-by-step driving responses through the batched feedback service.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("jsonl", type=Path, help="input JSONL file of {task, response} objects")
    parser.add_argument("-o", "--output", type=Path, default=None, help="output JSONL path (default: stdout)")
    add_service_arguments(parser)
    parser.add_argument(
        "--batch-size", type=int, default=None,
        help="submit the input asynchronously in batches of this many records",
    )
    parser.add_argument(
        "--max-inflight-batches", type=int, default=None,
        help="back-pressure: max unresolved async batches (requires --batch-size)",
    )
    parser.add_argument(
        "--max-inflight-jobs", type=int, default=None,
        help="back-pressure: max unresolved async jobs (requires --batch-size)",
    )
    parser.add_argument(
        "--pairs-output", type=Path, default=None,
        help="also write DPO-ready encoded preference pairs (JSONL) to this path",
    )
    parser.add_argument(
        "--trace", type=Path, default=None,
        help="export a Chrome/Perfetto trace of the run to this path "
        "(inspect with repro-trace report or ui.perfetto.dev)",
    )
    return parser


def load_jobs(path: Path) -> list:
    """Parse the input JSONL into ``(record, scenario)`` pairs.

    The full input record is kept so the output can preserve caller metadata;
    ``scenario`` is the resolved verification scenario (from the record or the
    task catalogue).
    """
    from repro.driving.scenarios.universal import SCENARIO_BUILDERS
    from repro.driving.tasks import task_by_name

    jobs = []
    for line_number, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{line_number}: invalid JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{line_number}: each line must be a JSON object, got {type(record).__name__}")
        if "task" not in record or "response" not in record:
            raise ValueError(f"{path}:{line_number}: each record needs 'task' and 'response' fields")
        for field in ("task", "response"):
            if not isinstance(record[field], str):
                raise ValueError(
                    f"{path}:{line_number}: {field!r} must be a string, got {type(record[field]).__name__}"
                )
        scenario = record.get("scenario")
        if scenario is not None and not isinstance(scenario, str):
            raise ValueError(
                f"{path}:{line_number}: 'scenario' must be a string, got {type(scenario).__name__}"
            )
        if scenario is None:
            try:
                scenario = task_by_name(record["task"]).scenario
            except KeyError as exc:
                raise ValueError(
                    f"{path}:{line_number}: {exc.args[0]} (or add a 'scenario' field to the record)"
                ) from exc
        elif scenario not in SCENARIO_BUILDERS:
            raise ValueError(
                f"{path}:{line_number}: unknown scenario {scenario!r}; known: {sorted(SCENARIO_BUILDERS)}"
            )
        jobs.append((record, scenario))
    return jobs


def write_pairs(jobs, scores, output: Path):
    """Build and write DPO-ready encoded preference pairs from scored records.

    Responses are grouped per ``task`` (first-occurrence order, input order
    within a group), ranked with the canonical, order-independent
    :func:`~repro.feedback.ranker.rank_to_pairs`, and tokenised by a
    :class:`~repro.dpo.stream.DPODatasetWriter` spilling to ``output``,
    reloadable with :func:`repro.dpo.stream.read_encoded_pairs`.  Every input
    is deterministic (the tokenizer vocabulary is fit on the records in input
    order), so the file is byte-identical however the scores were obtained.
    The file appears atomically: if encoding or writing fails, no partial
    shard (and no tmp file) is left behind.  Returns the sealed writer, whose
    ``pairs_encoded`` and ``encode_seconds`` count the work.
    """
    from repro.dpo.stream import DPODatasetWriter
    from repro.driving.tasks import task_by_name
    from repro.feedback.ranker import rank_to_pairs
    from repro.lm.corpus import format_document, format_prompt
    from repro.lm.tokenizer import Tokenizer

    grouped: dict = {}
    for (record, _scenario), score in zip(jobs, scores):
        grouped.setdefault(record["task"], ([], []))
        responses, task_scores = grouped[record["task"]]
        responses.append(record["response"])
        task_scores.append(score)

    def prompt_for(task_name: str) -> str:
        try:
            return format_prompt(task_by_name(task_name))
        except KeyError:  # off-catalogue task scored via an explicit scenario
            return format_prompt(task_name)

    prompts = {task: prompt_for(task) for task in grouped}
    # The vocabulary covers every document the pairs will encode, fit in
    # deterministic input order.
    texts = []
    for task, (responses, _task_scores) in grouped.items():
        texts.append(prompts[task])
        texts.extend(format_document(prompts[task], response) for response in responses)
    tokenizer = Tokenizer.fit(texts)

    with DPODatasetWriter(tokenizer, spill_path=output) as writer:
        for task, (responses, task_scores) in grouped.items():
            for pair in rank_to_pairs(prompts[task], responses, task_scores, task=task):
                writer.append(pair)
    return writer


def write_records(records, output: Path | None) -> None:
    """Write scored records to ``output`` (atomically) or stdout."""
    lines = "".join(json.dumps(record) + "\n" for record in records)
    if output is None:
        sys.stdout.write(lines)
        return
    from repro.utils.atomic import write_text_atomic

    write_text_atomic(output, lines)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in JOBS_COMMANDS:
        # Daemon mode lives in repro.jobs (imported lazily so the one-shot
        # path pays nothing for it); everything below is unchanged.
        from repro.jobs.cli import main as jobs_main

        return jobs_main(argv)
    args = build_parser().parse_args(argv)

    # Validate and load the whole input before building any verification
    # machinery: a bad path or malformed line must fail fast and cheap.
    try:
        jobs = load_jobs(args.jsonl)
    except (OSError, ValueError) as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2

    from repro.serving import Dispatcher, FeedbackJob, FeedbackService

    if args.batch_size is None and (
        args.max_inflight_batches is not None or args.max_inflight_jobs is not None
    ):
        print(
            "repro-serve: --max-inflight-batches/--max-inflight-jobs require --batch-size",
            file=sys.stderr,
        )
        return 2
    if args.batch_size is not None and args.batch_size <= 0:
        print(f"repro-serve: --batch-size must be positive, got {args.batch_size}", file=sys.stderr)
        return 2

    specifications = build_specifications(args)
    try:
        config = serving_config_from_args(
            args,
            max_inflight_batches=args.max_inflight_batches,
            max_inflight_jobs=args.max_inflight_jobs,
        )
    except ValueError as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2
    feedback_jobs = [
        FeedbackJob(task=record["task"], scenario=scenario, response=record["response"])
        for record, scenario in jobs
    ]
    from repro.obs import tracer as obs

    # Tracing must be live before the service is built: the service captures
    # the tracer's shard directory into its worker payload, which is how
    # process-backend workers know where to write their span shards.
    tracer = None
    if args.trace is not None:
        tracer = obs.Tracer.for_trace_file(args.trace)
        obs.install_tracer(tracer)
    # The context managers flush the cache (and compact the shared directory
    # when bounded) on exit, then shut down the dispatch thread / worker pool.
    with Dispatcher(name="repro-serve") as dispatcher:
        with FeedbackService(
            specifications,
            feedback=build_feedback(args),
            config=config,
            seed=args.seed,
            dispatcher=dispatcher,
        ) as service:
            if args.batch_size is None:
                scores = service.score_batch(feedback_jobs)
            else:
                # Stream the input through the async API: submission blocks
                # under the configured in-flight bounds, capping the
                # unresolved work queued on the dispatcher.  Batches resolve
                # in submission order, so concatenation preserves input order.
                handles = [
                    service.submit_batch(feedback_jobs[start : start + args.batch_size])
                    for start in range(0, len(feedback_jobs), args.batch_size)
                ]
                scores = [score for handle in handles for score in handle.result()]

    write_records(
        ({**record, "scenario": scenario, "score": score} for (record, scenario), score in zip(jobs, scores)),
        args.output,
    )
    if args.pairs_output is not None:
        pairs_writer = write_pairs(jobs, scores, args.pairs_output)
        service.metrics.record_stage("encode", pairs_writer.encode_seconds)
        print(
            f"wrote {pairs_writer.pairs_encoded} encoded preference pairs "
            f"to {args.pairs_output} "
            f"(encode stage {pairs_writer.encode_seconds:.2f}s)",
            file=sys.stderr,
        )

    # One MetricsRegistry snapshot feeds both the stderr summary and the
    # exported trace — the same code path the pipeline's telemetry uses.
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.report import format_serving_summary

    registry = MetricsRegistry()
    registry.register_provider("serving", service.metrics.snapshot)
    snapshot = registry.snapshot()
    print(format_serving_summary(snapshot["serving"]), file=sys.stderr)
    if tracer is not None:
        from repro.obs.export import write_chrome_trace

        if obs.current_tracer() is tracer:
            obs.uninstall_tracer()
        write_chrome_trace(args.trace, tracer, metrics=snapshot)
        tracer.close()
        print(f"wrote trace to {args.trace}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
