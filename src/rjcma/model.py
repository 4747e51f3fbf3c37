"""Full per-target model: normalization, per-modality TCNs, fusion block, head."""

from __future__ import annotations

import numpy as np

from . import checkpoint as ckpt
from .autodiff import Tensor
from .data import MODALITIES, Normalizer, Window
from .fusion import FusionConfig, RjcmaParams, rjcma_forward
from .metrics import ccc_loss
from .temporal import TcnStack, tcn_forward


class RjcmaModel:
    """One valence-or-arousal regressor: TCN per modality feeding the
    recursive joint cross-modal attention block and its MLP head."""

    def __init__(self, config: FusionConfig, target: str, seed: int,
                 tcn_kernel: int = 3, tcn_dilations: tuple[int, ...] = (1, 2),
                 normalizer: Normalizer | None = None):
        if target not in ("valence", "arousal"):
            raise ValueError(f"unknown target {target!r}")
        self.config = config
        self.target = target
        self.seed = seed
        self.tcn_kernel = tcn_kernel
        self.tcn_dilations = tuple(tcn_dilations)
        self.normalizer = normalizer
        rng = np.random.default_rng(seed)
        self.fusion = RjcmaParams(config, rng)
        self.tcn = {
            m: TcnStack(config.dim(m), rng, kernel_size=tcn_kernel,
                        dilations=self.tcn_dilations)
            for m in MODALITIES
        }

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        params = dict(self.fusion.named())
        for m in MODALITIES:
            params.update(self.tcn[m].named(prefix=f"tcn/{m}"))
        return params

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.parameters().items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        if set(state) != set(params):
            missing = set(params) ^ set(state)
            raise ValueError(f"state mismatch on {sorted(missing)[:5]}")
        for name, arr in state.items():
            if params[name].data.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}")
            params[name].data = arr.copy()

    # -- forward ------------------------------------------------------------

    def _inputs(self, win: Window) -> dict[str, Tensor]:
        out = {}
        for m in MODALITIES:
            feats = win.features[m]
            if self.normalizer is not None:
                feats = self.normalizer.transform(feats, m)
            out[m] = Tensor(feats)
        return out

    def forward_window(self, win: Window):
        x = self._inputs(win)
        encoded = {m: tcn_forward(x[m], self.tcn[m]) for m in MODALITIES}
        return rjcma_forward(encoded["a"], encoded["v"], encoded["t"],
                             self.fusion, self.config)

    def predict(self, win: Window, target: str | None = None) -> np.ndarray:
        if target is not None and target != self.target:
            raise ValueError(f"model predicts {self.target}, asked for {target}")
        return self.forward_window(win).predictions.data.ravel().copy()

    def loss_on_window(self, win: Window) -> Tensor:
        out = self.forward_window(win)
        return ccc_loss(out.predictions, win.labels(self.target),
                        win.label_mask(self.target))

    # -- persistence ---------------------------------------------------------

    def checkpoint_config(self) -> dict:
        return {
            "d_a": self.config.d_a, "d_v": self.config.d_v,
            "d_t": self.config.d_t, "K": self.config.K,
            "iterations": self.config.iterations,
            "target": self.target, "seed": self.seed,
            "tcn_kernel": self.tcn_kernel,
            "tcn_dilations": list(self.tcn_dilations),
        }

    def save(self, path) -> None:
        tensors = self.state_arrays()
        if self.normalizer is not None:
            tensors.update(dict(self.normalizer.named_arrays()))
        ckpt.write_checkpoint(path, self.checkpoint_config(), tensors)

    @classmethod
    def load(cls, path) -> "RjcmaModel":
        config, tensors = ckpt.read_checkpoint(path)
        try:
            fusion_cfg = FusionConfig(d_a=config["d_a"], d_v=config["d_v"],
                                      d_t=config["d_t"], K=config["K"],
                                      iterations=config["iterations"])
            kwargs = dict(target=config["target"], seed=config["seed"],
                          tcn_kernel=config["tcn_kernel"],
                          tcn_dilations=tuple(config["tcn_dilations"]))
        except KeyError as e:
            raise ckpt.CheckpointError(
                f"{path}: config lacks key {e.args[0]!r}") from None
        norm_names = {n for n in tensors if n.startswith("norm/")}
        normalizer = None
        if norm_names:
            normalizer = Normalizer.from_named_arrays(
                {n: tensors[n] for n in norm_names})
        model = cls(fusion_cfg, normalizer=normalizer, **kwargs)
        model.load_state_arrays(
            {n: a for n, a in tensors.items() if n not in norm_names})
        return model
