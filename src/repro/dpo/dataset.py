"""Tokenised preference datasets for DPO training.

Each :class:`~repro.feedback.ranker.PreferencePair` ``(x, y_w, y_l)`` becomes a
pair of token sequences (prompt + chosen, prompt + rejected) plus masks that
select the *response* target positions — DPO's log-probabilities are summed
only over the response tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TrainingError
from repro.feedback.ranker import PreferencePair
from repro.lm.corpus import format_document
from repro.lm.tokenizer import Tokenizer


@dataclass
class EncodedPair:
    """Token ids and response masks for one preference pair."""

    chosen_ids: list
    rejected_ids: list
    chosen_response_start: int
    rejected_response_start: int
    task: str = ""


def encode_preference_pair(pair: PreferencePair, tokenizer: Tokenizer, *, max_seq_len: int = 96) -> EncodedPair:
    """Tokenise one preference pair (truncating over-long sequences).

    The single source of truth for pair encoding: both
    :meth:`DPODataset.from_preference_pairs` and the spill writer
    :class:`~repro.dpo.stream.DPODatasetWriter` call this, which is what makes
    a reloaded spill equal to a dataset built from the same pairs.
    """
    if not isinstance(pair, PreferencePair):
        raise TrainingError(f"expected PreferencePair, got {type(pair)!r}")
    prompt_ids = tokenizer.encode(pair.prompt, add_bos=True)
    chosen_ids = tokenizer.encode(format_document(pair.prompt, pair.chosen), add_bos=True, add_eos=True)
    rejected_ids = tokenizer.encode(format_document(pair.prompt, pair.rejected), add_bos=True, add_eos=True)
    return EncodedPair(
        chosen_ids=chosen_ids[:max_seq_len],
        rejected_ids=rejected_ids[:max_seq_len],
        chosen_response_start=min(len(prompt_ids), max_seq_len - 1),
        rejected_response_start=min(len(prompt_ids), max_seq_len - 1),
        task=pair.task,
    )


@dataclass
class DPODataset:
    """A tokenised preference dataset ready for mini-batching."""

    pairs: list = field(default_factory=list)          # list[EncodedPair]
    tokenizer: Tokenizer = None
    max_seq_len: int = 96

    def __len__(self) -> int:
        return len(self.pairs)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_preference_pairs(
        cls,
        pairs,
        tokenizer: Tokenizer,
        *,
        max_seq_len: int = 96,
    ) -> "DPODataset":
        """Encode raw preference pairs (truncating over-long sequences)."""
        encoded = [encode_preference_pair(pair, tokenizer, max_seq_len=max_seq_len) for pair in pairs]
        return cls(pairs=encoded, tokenizer=tokenizer, max_seq_len=max_seq_len)

    # ------------------------------------------------------------------ #
    def _pad_batch(self, sequences: list, starts: list) -> tuple:
        """Pad sequences to a common length; build the response target mask."""
        pad_id = self.tokenizer.pad_id
        max_len = max(len(s) for s in sequences)
        tokens = np.full((len(sequences), max_len), pad_id, dtype=np.int64)
        mask = np.zeros((len(sequences), max_len - 1), dtype=np.float32)
        for row, (sequence, start) in enumerate(zip(sequences, starts)):
            tokens[row, : len(sequence)] = sequence
            # Target position j predicts tokens[j + 1]; response targets begin
            # at the first token after the prompt (and its newline separator).
            for j in range(start, len(sequence) - 1):
                mask[row, j] = 1.0
        return tokens, mask

    def batch(self, indices) -> dict:
        """Materialise one mini-batch over an explicit index selection.

        ``indices`` is any integer sequence; the returned dictionary has the
        same arrays :meth:`batches` yields.
        """
        index = np.asarray(list(indices), dtype=np.int64)
        chosen = [self.pairs[i].chosen_ids for i in index]
        rejected = [self.pairs[i].rejected_ids for i in index]
        chosen_starts = [self.pairs[i].chosen_response_start for i in index]
        rejected_starts = [self.pairs[i].rejected_response_start for i in index]
        chosen_tokens, chosen_mask = self._pad_batch(chosen, chosen_starts)
        rejected_tokens, rejected_mask = self._pad_batch(rejected, rejected_starts)
        return {
            "chosen_tokens": chosen_tokens,
            "chosen_mask": chosen_mask,
            "rejected_tokens": rejected_tokens,
            "rejected_mask": rejected_mask,
            "indices": index,
        }

    def batches(self, batch_size: int, *, rng: np.random.Generator | None = None, shuffle: bool = True):
        """Yield mini-batches as dictionaries of numpy arrays."""
        if not self.pairs:
            raise TrainingError("DPO dataset is empty")
        order = np.arange(len(self.pairs))
        if shuffle:
            if rng is None:
                raise TrainingError("shuffling requires an rng")
            order = rng.permutation(order)
        for start in range(0, len(order), batch_size):
            yield self.batch(order[start: start + batch_size])

    def num_batches(self, batch_size: int) -> int:
        return (len(self.pairs) + batch_size - 1) // batch_size
