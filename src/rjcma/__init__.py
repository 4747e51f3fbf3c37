"""Recursive joint cross-modal attention fusion at desk scale.

A self-contained stack for training and verifying the recursive
audio/visual/text fusion mechanism: a reverse-mode autodiff core over 2-D
float64 tensors, TCN temporal modeling, the fusion block with its CCC loss,
synthetic data generation, and a reproducible training harness + CLI.
"""

import os
import sys

# OpenBLAS reads this when numpy loads it. With one BLAS thread per product,
# `fusion.attention_step` runs its K x K blocks on one thread per CPU; a
# process that loaded numpy first keeps the BLAS threads it has.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .autodiff import Tensor, backward, grad_check
from .data import SequenceRecord, SyntheticConfig, WindowSpec, generate_synthetic, window
from .fusion import FusionConfig, init_params, rjcma_forward
from .metrics import ccc, ccc_loss, evaluate
from .model import RjcmaModel
from .temporal import tcn_forward
from .train import TrainConfig, fit

__all__ = [
    "Tensor", "backward", "grad_check",
    "SequenceRecord", "SyntheticConfig", "WindowSpec",
    "generate_synthetic", "window",
    "FusionConfig", "init_params", "rjcma_forward",
    "ccc", "ccc_loss", "evaluate",
    "RjcmaModel", "tcn_forward",
    "TrainConfig", "fit",
]

__version__ = "0.1.0"
