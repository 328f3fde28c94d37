"""Training hyper-parameters shared by every trainable model."""

from dataclasses import dataclass

__all__ = ["TrainConfig"]


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run.

    All shuffling and dropout randomness derives from seed.
    """

    epochs: int
    batch_size: int = 16
    max_len: int = 36
    l1_activity: float = 0.0
    seed: int = 0
    freeze_embeddings: bool = True

    def __post_init__(self):
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.l1_activity < 0:
            raise ValueError(f"l1_activity must be >= 0, got {self.l1_activity}")
