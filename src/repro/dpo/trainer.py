"""The DPO fine-tuning loop with LoRA and periodic checkpoints."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.obs import tracer as obs
from repro.dpo.dataset import DPODataset
from repro.dpo.loss import dpo_step
from repro.dpo.metrics import TrainingHistory
from repro.errors import TrainingError
from repro.lm.lora import LoRAConfig, apply_lora
from repro.lm.optim import Adam
from repro.lm.tokenizer import Tokenizer
from repro.lm.transformer import TransformerLM
from repro.utils.rng import seeded_rng


@dataclass(frozen=True)
class DPOConfig:
    """Hyper-parameters of the DPO fine-tuning stage."""

    beta: float = 0.5
    learning_rate: float = 1e-3
    batch_size: int = 8
    num_epochs: int = 40
    checkpoint_every: int = 4          # in epochs, mirroring the paper's every-20-epochs checkpoints
    max_steps: int | None = None       # optional hard cap on descent steps
    lora_rank: int = 4
    use_lora: bool = True
    seed: int = 0


@dataclass
class DPOResult:
    """Everything produced by one fine-tuning run."""

    policy: TransformerLM
    reference: TransformerLM
    history: TrainingHistory
    checkpoints: dict = field(default_factory=dict)   # epoch -> state_dict
    lora_summary: dict = field(default_factory=dict)
    # Training throughput: {"steps", "pairs", "seconds", "steps_per_second",
    # "pairs_per_second"} — the fused-forward benchmark lane reads these.
    throughput: dict = field(default_factory=dict)

    def checkpoint_epochs(self) -> list:
        return sorted(self.checkpoints)

    def model_at_epoch(self, epoch: int) -> TransformerLM:
        """Reconstruct the policy as it was at a stored checkpoint."""
        if epoch not in self.checkpoints:
            raise TrainingError(f"no checkpoint at epoch {epoch}; available: {self.checkpoint_epochs()}")
        model = self.policy.clone()
        model.load_state_dict(self.checkpoints[epoch])
        return model


class DPOTrainer:
    """Runs DPO on a pre-trained policy against a frozen reference copy.

    The reference model is a deep copy of the pre-trained policy taken before
    any update (the ``π_ref`` of the DPO objective); with ``use_lora`` the
    policy's base weights are frozen and only the adapters are updated,
    following Appendix E.
    """

    def __init__(self, model: TransformerLM, tokenizer: Tokenizer, config: DPOConfig | None = None):
        self.config = config or DPOConfig()
        self.tokenizer = tokenizer
        self.policy = model
        self.reference = model.clone()
        self.lora_summary: dict = {}
        if self.config.use_lora:
            self.lora_summary = apply_lora(
                self.policy,
                LoRAConfig(rank=self.config.lora_rank, seed=self.config.seed),
            )
        self.optimizer = Adam(self.policy.parameters(), learning_rate=self.config.learning_rate)

    # ------------------------------------------------------------------ #
    def train(self, dataset: DPODataset, *, progress_every: int = 0) -> DPOResult:
        """Fine-tune on a tokenised preference dataset."""
        if len(dataset) == 0:
            raise TrainingError("cannot run DPO on an empty preference dataset")
        rng = seeded_rng(self.config.seed)
        history = TrainingHistory()
        checkpoints: dict = {0: self.policy.state_dict()}
        total_steps = total_pairs = 0
        stop = False
        started = time.perf_counter()

        for epoch in range(1, self.config.num_epochs + 1):
            for batch in dataset.batches(self.config.batch_size, rng=rng, shuffle=True):
                with obs.span("dpo.step", category="train", epoch=epoch, step=total_steps + 1):
                    self.optimizer.zero_grad()
                    metrics = dpo_step(self.policy, self.reference, batch, beta=self.config.beta)
                    grad_norm = self.optimizer.step()
                history.record(metrics, grad_norm)
                total_steps += 1
                total_pairs += int(len(batch["indices"]))
                if progress_every and total_steps % progress_every == 0:  # pragma: no cover - console feedback
                    print(
                        f"[dpo] epoch {epoch} step {total_steps} "
                        f"loss={metrics.loss:.3f} acc={metrics.accuracy:.2f} margin={metrics.marginal_preference:.2f}"
                    )
                stop = self.config.max_steps is not None and total_steps >= self.config.max_steps
                if stop:
                    break
            history.mark_epoch()
            if epoch % self.config.checkpoint_every == 0 or epoch == self.config.num_epochs:
                checkpoints[epoch] = self.policy.state_dict()
            if stop:
                break

        seconds = time.perf_counter() - started
        return DPOResult(
            policy=self.policy,
            reference=self.reference,
            history=history,
            checkpoints=checkpoints,
            lora_summary=self.lora_summary,
            throughput={
                "steps": total_steps,
                "pairs": total_pairs,
                "seconds": seconds,
                "steps_per_second": total_steps / seconds if seconds > 0 else 0.0,
                "pairs_per_second": total_pairs / seconds if seconds > 0 else 0.0,
            },
        )


def run_dpo(
    model: TransformerLM,
    tokenizer: Tokenizer,
    preference_pairs,
    config: DPOConfig | None = None,
    *,
    max_seq_len: int | None = None,
) -> DPOResult:
    """Convenience wrapper: encode pairs, build a trainer, and train."""
    config = config or DPOConfig()
    dataset = DPODataset.from_preference_pairs(
        preference_pairs,
        tokenizer,
        max_seq_len=max_seq_len or model.config.max_seq_len,
    )
    trainer = DPOTrainer(model, tokenizer, config)
    return trainer.train(dataset)
