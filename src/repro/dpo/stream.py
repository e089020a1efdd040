"""Encoded preference-pair spills: an atomic JSONL writer and its reader.

``DPODatasetWriter``
    Tokenises each :class:`~repro.feedback.ranker.PreferencePair` it is given
    via :func:`~repro.dpo.dataset.encode_preference_pair` — the exact function
    ``DPODataset.from_preference_pairs`` uses, so the spill holds the same
    pairs, token ids and response-mask starts a dataset build would — and
    writes one JSON record per pair (:func:`encoded_pair_record`) to a JSONL
    shard.  Writes land in a tmp sibling that is moved into place at
    :meth:`~DPODatasetWriter.seal`, so a crash or an exception mid-file never
    leaves a truncated shard (``repro-serve --pairs-output`` writes through
    it).

:func:`read_encoded_pairs`
    Reloads a shard as :class:`~repro.dpo.dataset.EncodedPair` records, so a
    later process can rebuild a training set without re-ranking or
    re-tokenising.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.dpo.dataset import EncodedPair, encode_preference_pair
from repro.lm.tokenizer import Tokenizer
from repro.utils.atomic import AtomicTextWriter


class DPODatasetWriter:
    """Incrementally tokenise preference pairs into an atomically-committed spill.

    Every :meth:`append` encodes one pair and writes its record to the
    in-flight tmp file; :meth:`seal` moves the finished shard to
    ``spill_path``.  As a context manager a clean exit seals and an exception
    discards the partial shard, so a failed run leaves no file behind.  The
    writer counts :attr:`pairs_encoded` and the :attr:`encode_seconds` spent
    tokenising.
    """

    def __init__(self, tokenizer: Tokenizer, *, spill_path: str | Path, max_seq_len: int = 96):
        self.tokenizer = tokenizer
        self.max_seq_len = max_seq_len
        self.spill_path = Path(spill_path)
        self.pairs_encoded = 0
        self.encode_seconds = 0.0
        self._spill = AtomicTextWriter(self.spill_path)

    def append(self, pair) -> EncodedPair:
        """Encode one raw preference pair and write its spill record."""
        start = time.perf_counter()
        encoded = encode_preference_pair(pair, self.tokenizer, max_seq_len=self.max_seq_len)
        self.encode_seconds += time.perf_counter() - start
        self._spill.write(json.dumps(encoded_pair_record(encoded)) + "\n")
        self.pairs_encoded += 1
        return encoded

    def seal(self) -> Path:
        """Move the finished shard into place and return its path.

        Idempotent.  If the move fails (the target directory vanished, say)
        the tmp file is still removed and the error propagates.
        """
        return self._spill.commit()

    def __enter__(self) -> "DPODatasetWriter":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        return self._spill.__exit__(exc_type, exc_value, traceback)


def encoded_pair_record(encoded: EncodedPair) -> dict:
    """JSON-friendly record of one encoded pair (the spill JSONL line shape)."""
    return {
        "task": encoded.task,
        "chosen_ids": list(encoded.chosen_ids),
        "rejected_ids": list(encoded.rejected_ids),
        "chosen_response_start": encoded.chosen_response_start,
        "rejected_response_start": encoded.rejected_response_start,
    }


def read_encoded_pairs(path: str | Path) -> list:
    """Load the :class:`EncodedPair` list a writer spilled to ``path``.

    A later process can rebuild a :class:`~repro.dpo.dataset.DPODataset`
    from the shard (plus the tokenizer it was encoded with) without
    re-ranking or re-tokenising.
    """
    pairs = []
    with Path(path).open() as shard:  # line-by-line: shards can exceed memory
        for line_number, line in enumerate(shard, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                pairs.append(
                    EncodedPair(
                        chosen_ids=list(record["chosen_ids"]),
                        rejected_ids=list(record["rejected_ids"]),
                        chosen_response_start=int(record["chosen_response_start"]),
                        rejected_response_start=int(record["rejected_response_start"]),
                        task=record.get("task", ""),
                    )
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{line_number}: invalid encoded-pair record ({exc})"
                ) from exc
    return pairs
