"""Direct preference optimization: dataset encoding, loss, trainer, metrics.

Also the encoded-pair spill format (:mod:`repro.dpo.stream`): a
:class:`DPODatasetWriter` that tokenises pairs into an atomically-committed
JSONL shard, and :func:`read_encoded_pairs` to reload it.
"""

from repro.dpo.dataset import DPODataset, EncodedPair, encode_preference_pair
from repro.dpo.loss import DPOBatchMetrics, dpo_step, sigmoid, stack_pair_batch
from repro.dpo.metrics import MultiSeedCurves, TrainingHistory
from repro.dpo.stream import DPODatasetWriter, encoded_pair_record, read_encoded_pairs
from repro.dpo.trainer import DPOConfig, DPOResult, DPOTrainer, run_dpo

__all__ = [
    "DPODataset",
    "EncodedPair",
    "encode_preference_pair",
    "DPOBatchMetrics",
    "dpo_step",
    "sigmoid",
    "stack_pair_batch",
    "MultiSeedCurves",
    "TrainingHistory",
    "DPODatasetWriter",
    "encoded_pair_record",
    "read_encoded_pairs",
    "DPOConfig",
    "DPOResult",
    "DPOTrainer",
    "run_dpo",
]
