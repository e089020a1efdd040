"""The encoded-pair spill: ``DPODatasetWriter`` and ``read_encoded_pairs``.

The contracts under test:

* the pairs a ``DPODatasetWriter`` encodes — and the spill it seals — equal
  ``DPODataset.from_preference_pairs`` exactly (pair order, token ids, masks);
* the spill appears only at seal time, and a writer left by an exception,
  or whose seal fails, leaves neither the shard nor its tmp file behind;
* the spill's JSONL record shape is stable, and ``read_encoded_pairs``
  rejects corrupt records, naming the offending line;
* a dataset rebuilt from a spill trains exactly like the directly built one.
"""

import json

import numpy as np
import pytest

from repro.dpo import DPODataset, DPODatasetWriter, encoded_pair_record, read_encoded_pairs
from repro.errors import TrainingError
from repro.feedback import PreferencePair
from repro.lm import Tokenizer


@pytest.fixture(scope="module")
def toy_tokenizer() -> Tokenizer:
    texts = [
        'Steps for "turn right" :',
        "1. observe the light.\n2. if green, turn right.",
        "1. turn right.",
        "1. drive carefully.",
        "1. stop at the line.\n2. wait for green.",
    ]
    return Tokenizer.fit(texts)


def _toy_pairs(count: int = 6) -> list:
    prompt = 'Steps for "turn right" :'
    responses = [
        "1. observe the light.\n2. if green, turn right.",
        "1. turn right.",
        "1. drive carefully.",
        "1. stop at the line.\n2. wait for green.",
    ]
    pairs = []
    for i in range(count):
        chosen = responses[i % len(responses)]
        rejected = responses[(i + 1) % len(responses)]
        pairs.append(
            PreferencePair(
                prompt=prompt,
                chosen=chosen,
                rejected=rejected,
                chosen_score=float(10 - i),
                rejected_score=float(i),
                task=f"task_{i}",
            )
        )
    return pairs


class TestDatasetWriter:
    def test_writer_encodes_like_the_dataset_build(self, toy_tokenizer, tmp_path):
        pairs = _toy_pairs(8)
        built = DPODataset.from_preference_pairs(pairs, toy_tokenizer, max_seq_len=48)
        spill = tmp_path / "pairs.jsonl"
        with DPODatasetWriter(toy_tokenizer, max_seq_len=48, spill_path=spill) as writer:
            encoded = [writer.append(pair) for pair in pairs]
        assert encoded == built.pairs  # order, ids, masks — all of it
        assert read_encoded_pairs(spill) == built.pairs
        assert writer.pairs_encoded == len(pairs)
        assert writer.encode_seconds > 0

    def test_spill_round_trips_and_is_atomic(self, toy_tokenizer, tmp_path):
        pairs = _toy_pairs(5)
        spill = tmp_path / "pairs.jsonl"
        writer = DPODatasetWriter(toy_tokenizer, max_seq_len=48, spill_path=spill)
        encoded = [writer.append(pair) for pair in pairs]
        # Incremental writes go to a tmp sibling; the final path appears at seal.
        assert not spill.exists()
        assert list(tmp_path.glob("pairs.jsonl.tmp.*"))
        assert writer.seal() == spill
        assert list(tmp_path.glob("pairs.jsonl.tmp.*")) == []
        assert read_encoded_pairs(spill) == encoded

    def test_exception_inside_the_writer_drops_the_partial_spill(self, toy_tokenizer, tmp_path):
        spill = tmp_path / "pairs.jsonl"
        with pytest.raises(RuntimeError, match="boom"):
            with DPODatasetWriter(toy_tokenizer, max_seq_len=48, spill_path=spill) as writer:
                writer.append(_toy_pairs(1)[0])
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_read_encoded_pairs_rejects_corrupt_lines(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"chosen_ids": [1]}\n')
        with pytest.raises(ValueError):
            read_encoded_pairs(bad)

    def test_failed_seal_leaves_no_litter(self, toy_tokenizer, tmp_path):
        """If committing the spill raises at seal time, the error propagates
        and the tmp file is removed — nothing half-written survives."""
        spill = tmp_path / "pairs.jsonl"
        spill.mkdir()  # os.replace onto a directory fails
        writer = DPODatasetWriter(toy_tokenizer, max_seq_len=48, spill_path=spill)
        writer.append(_toy_pairs(1)[0])
        assert list(tmp_path.glob("pairs.jsonl.tmp.*"))
        with pytest.raises(OSError):
            writer.seal()
        assert list(tmp_path.iterdir()) == [spill]
        assert list(spill.iterdir()) == []

    def test_empty_writer_seals_an_empty_shard(self, toy_tokenizer, tmp_path):
        spill = tmp_path / "pairs.jsonl"
        with DPODatasetWriter(toy_tokenizer, max_seq_len=48, spill_path=spill) as writer:
            pass
        assert spill.read_text() == ""
        assert read_encoded_pairs(spill) == []
        assert writer.pairs_encoded == 0

    def test_seal_is_idempotent(self, toy_tokenizer, tmp_path):
        spill = tmp_path / "pairs.jsonl"
        writer = DPODatasetWriter(toy_tokenizer, max_seq_len=48, spill_path=spill)
        writer.append(_toy_pairs(1)[0])
        assert writer.seal() == spill
        contents = spill.read_text()
        assert writer.seal() == spill
        assert spill.read_text() == contents
        assert sorted(tmp_path.iterdir()) == [spill]

    def test_writer_creates_missing_parent_directories(self, toy_tokenizer, tmp_path):
        spill = tmp_path / "a" / "b" / "pairs.jsonl"
        with DPODatasetWriter(toy_tokenizer, max_seq_len=48, spill_path=spill) as writer:
            writer.append(_toy_pairs(1)[0])
        assert len(read_encoded_pairs(spill)) == 1

    def test_failed_encode_writes_and_counts_nothing(self, toy_tokenizer, tmp_path):
        spill = tmp_path / "pairs.jsonl"
        writer = DPODatasetWriter(toy_tokenizer, max_seq_len=48, spill_path=spill)
        with pytest.raises(TrainingError):
            writer.append("not a pair")
        assert writer.pairs_encoded == 0
        writer.append(_toy_pairs(1)[0])
        writer.seal()
        assert writer.pairs_encoded == 1
        assert len(read_encoded_pairs(spill)) == 1

    def test_over_long_pairs_spill_truncated_like_the_dataset_build(self, toy_tokenizer, tmp_path):
        pairs = _toy_pairs(4)
        built = DPODataset.from_preference_pairs(pairs, toy_tokenizer, max_seq_len=10)
        assert any(len(pair.chosen_ids) == 10 for pair in built.pairs)  # truncation happened
        spill = tmp_path / "pairs.jsonl"
        with DPODatasetWriter(toy_tokenizer, max_seq_len=10, spill_path=spill) as writer:
            for pair in pairs:
                writer.append(pair)
        reloaded = read_encoded_pairs(spill)
        assert reloaded == built.pairs
        assert all(len(pair.chosen_ids) <= 10 and pair.chosen_response_start <= 9 for pair in reloaded)


class TestSpillFormat:
    """The JSONL record shape is a contract: later processes rebuild a
    training set from it without re-ranking or re-tokenising."""

    def test_one_record_per_line_in_append_order(self, toy_tokenizer, tmp_path):
        pairs = _toy_pairs(3)
        spill = tmp_path / "pairs.jsonl"
        with DPODatasetWriter(toy_tokenizer, max_seq_len=48, spill_path=spill) as writer:
            encoded = [writer.append(pair) for pair in pairs]
        lines = spill.read_text().splitlines()
        assert len(lines) == len(pairs)
        for line, pair in zip(lines, encoded):
            assert json.loads(line) == encoded_pair_record(pair)
            assert set(json.loads(line)) == {
                "task",
                "chosen_ids",
                "rejected_ids",
                "chosen_response_start",
                "rejected_response_start",
            }
        assert [json.loads(line)["task"] for line in lines] == ["task_0", "task_1", "task_2"]

    def test_reader_skips_blank_lines_and_defaults_the_task(self, tmp_path):
        shard = tmp_path / "pairs.jsonl"
        record = {"chosen_ids": [1, 2, 3], "rejected_ids": [1, 4], "chosen_response_start": 1, "rejected_response_start": 1}
        shard.write_text("\n" + json.dumps(record) + "\n\n   \n")
        (pair,) = read_encoded_pairs(shard)
        assert pair.chosen_ids == [1, 2, 3] and pair.rejected_ids == [1, 4]
        assert pair.task == ""

    @pytest.mark.parametrize(
        "bad_line",
        [
            "not json at all",
            '{"chosen_ids": [1], "rejected_ids": [2], "chosen_response_start": 0}',
            '{"chosen_ids": 7, "rejected_ids": [2], "chosen_response_start": 0, "rejected_response_start": 0}',
            '{"chosen_ids": [1], "rejected_ids": [2], "chosen_response_start": "x", "rejected_response_start": 0}',
        ],
        ids=["not-json", "missing-field", "ids-not-a-list", "non-integer-start"],
    )
    def test_reader_names_the_bad_line(self, tmp_path, bad_line):
        good = json.dumps(
            {"chosen_ids": [1], "rejected_ids": [2], "chosen_response_start": 0, "rejected_response_start": 0}
        )
        shard = tmp_path / "pairs.jsonl"
        shard.write_text(good + "\n" + bad_line + "\n")
        with pytest.raises(ValueError, match=r"pairs\.jsonl:2: invalid encoded-pair record"):
            read_encoded_pairs(shard)


def test_training_on_a_reloaded_spill_matches_training_on_the_built_dataset(toy_tokenizer, tmp_path):
    """A dataset rebuilt from a spill trains bitwise-identically to one built
    from the raw pairs: same losses, same final weights."""
    from repro.dpo import DPOConfig, DPOTrainer
    from repro.lm import ModelConfig, TransformerLM

    def model():
        config = ModelConfig(
            vocab_size=toy_tokenizer.vocab_size, max_seq_len=48, dim=16, num_heads=2, num_layers=1, hidden_dim=32
        )
        return TransformerLM(config, seed=0)

    pairs = _toy_pairs(6)
    config = DPOConfig(num_epochs=2, batch_size=3, checkpoint_every=1, lora_rank=2, seed=0)
    built = DPODataset.from_preference_pairs(pairs, toy_tokenizer, max_seq_len=48)
    direct = DPOTrainer(model(), toy_tokenizer, config).train(built)

    spill = tmp_path / "pairs.jsonl"
    with DPODatasetWriter(toy_tokenizer, max_seq_len=48, spill_path=spill) as writer:
        for pair in pairs:
            writer.append(pair)
    reloaded = DPODataset(pairs=read_encoded_pairs(spill), tokenizer=toy_tokenizer, max_seq_len=48)
    via_spill = DPOTrainer(model(), toy_tokenizer, config).train(reloaded)

    assert via_spill.history.losses == direct.history.losses
    for key, value in direct.policy.state_dict().items():
        assert np.array_equal(via_spill.policy.state_dict()[key], value), key
