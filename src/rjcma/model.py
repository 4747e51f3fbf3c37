"""Full per-target model: normalization, per-modality TCNs, fusion block, head."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from . import parallel, temporal
from .autodiff import Tensor
from .data import MODALITIES, TARGETS, Normalizer, Window, _is_int
from .fusion import FusionConfig, init_params, rjcma_forward
from .metrics import ccc_loss
from .temporal import tcn_forward


class RjcmaModel:
    """One valence-or-arousal regressor: TCN per modality feeding the
    recursive joint cross-modal attention block and its MLP head."""

    def __init__(self, config: FusionConfig, target: str, seed: int,
                 normalizer: Normalizer | None = None):
        if target not in TARGETS:
            raise ValueError(f"unknown target {target!r}")
        self.config = config
        self.target = target
        self.seed = seed
        self.normalizer = normalizer
        rng = np.random.default_rng(seed)
        # every learnable tensor, by its checkpoint name
        self.params = init_params(config, rng)
        for m in MODALITIES:
            self.params.update({f"tcn/{m}/{name}": p for name, p
                                in temporal.init_params(config.dim(m), rng).items()})

    def state_arrays(self, out: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
        """A copy of every parameter array; with `out` (an earlier result),
        the copy is written into its arrays."""
        if out is None:
            return {name: p.data.copy() for name, p in self.params.items()}
        for name, p in self.params.items():
            np.copyto(out[name], p.data)
        return out

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        """Copy `state` into the parameters' own arrays. Every name and
        shape is checked before anything is copied, so a state that does
        not fit does not change the model."""
        params = self.params
        if set(state) != set(params):
            missing = set(params) ^ set(state)
            raise ValueError(f"state mismatch on {sorted(missing)[:5]}")
        for name, arr in state.items():
            if params[name].data.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape}, "
                                 f"expected {params[name].data.shape}")
        for name, arr in state.items():
            np.copyto(params[name].data, arr)

    # -- forward ------------------------------------------------------------

    def _inputs(self, windows: Sequence[Window]) -> dict[str, Tensor]:
        out = {}
        for m in MODALITIES:
            feats = [w.features[m] for w in windows]
            if self.normalizer is not None:
                feats = [self.normalizer.transform(f, m) for f in feats]
            out[m] = Tensor.stack(feats)
        return out

    def forward_window(self, windows: Sequence[Window]):
        """Forward a batch of windows as one graph over (B, d_m, K) stacks."""
        x = self._inputs(windows)
        encoded = {m: tcn_forward(x[m], self.params, f"tcn/{m}/") for m in MODALITIES}
        return rjcma_forward(encoded["a"], encoded["v"], encoded["t"],
                             self.params, self.config)

    def predict(self, win: Window, target: str | None = None) -> np.ndarray:
        if target is not None and target != self.target:
            raise ValueError(f"model predicts {self.target}, asked for {target}")
        with ad.no_grad():
            out = self.forward_window([win])
        return out.predictions.data.ravel().copy()

    def predict_windows(self, windows: Sequence[Window],
                        target: str | None = None) -> list[np.ndarray]:
        """`[self.predict(w, target) for w in windows]`, forwarded in chunks
        of as many windows as one block of C holds (`parallel.per_block`,
        the attention step's own rule, so the chunks depend on K alone: 32
        windows at K=64, 2 at K=256, 1 from K=257 on in f64). A chunk is one
        `no_grad` `forward_window` call, or `self.predict` for a chunk of one
        window. Each chunk is one item on `parallel.for_each`, which spreads
        the chunks over its threads where a chunk is large enough to gain
        from them; a chunk's attention steps run inline on its thread (the
        nesting rule), so it gets the same numpy calls on any thread and
        the same bits."""
        if target is not None and target != self.target:
            raise ValueError(f"model predicts {self.target}, asked for {target}")
        window_bytes = self.config.K ** 2 * self.params["fc_joint/w"].data.itemsize
        size = parallel.per_block(window_bytes)
        chunks = [windows[i:i + size] for i in range(0, len(windows), size)]
        out = [None] * len(chunks)

        def one(i):
            if len(chunks[i]) == 1:
                out[i] = [self.predict(chunks[i][0], target)]
                return
            with ad.no_grad():
                preds = self.forward_window(chunks[i]).predictions.data
            out[i] = [p.ravel().copy() for p in preds]

        parallel.for_each(one, list(range(len(chunks))), size * window_bytes, ())
        return [p for preds in out for p in preds]

    def loss_on_batch(self, windows: Sequence[Window]) -> Tensor:
        """Mean over the windows of 1 - CCC on each window's valid frames."""
        out = self.forward_window(windows)
        return ccc_loss(out.predictions,
                        np.stack([w.labels(self.target) for w in windows]),
                        np.stack([w.label_mask(self.target) for w in windows]))

    def loss_on_window(self, win: Window) -> Tensor:
        return self.loss_on_batch([win])

    # -- persistence ---------------------------------------------------------

    def checkpoint_config(self) -> dict:
        return {
            "d_a": self.config.d_a, "d_v": self.config.d_v,
            "d_t": self.config.d_t, "K": self.config.K,
            "iterations": self.config.iterations,
            "target": self.target, "seed": self.seed,
            # the TCN geometry is fixed; a checkpoint records it as a format field
            "tcn_kernel": temporal.KERNEL_SIZE,
            "tcn_dilations": list(temporal.DILATIONS),
        }

    def save(self, path) -> None:
        # the parameters' own arrays: the writer copies none of them
        tensors = {name: p.data for name, p in self.params.items()}
        if self.normalizer is not None:
            tensors.update(dict(self.normalizer.named_arrays()))
        ckpt.write_checkpoint(path, self.checkpoint_config(), tensors)

    @classmethod
    def load(cls, path) -> "RjcmaModel":
        """The model a checkpoint holds. A config key that is missing or of
        the wrong type, an invalid value (the TCN geometry included), a
        tensor that is missing, unknown or mis-shaped for the config, or a
        normalizer std that is not positive raises CheckpointError naming
        the file and the key or tensor. The config's sizes are checked
        against the file's tensors before the model draws any weight."""
        config, tensors = ckpt.read_checkpoint(path)
        for key, valid in _CONFIG_TYPES.items():
            if key not in config:
                raise ckpt.CheckpointError(f"{path}: config lacks key {key!r}")
            if not valid(config[key]):
                raise ckpt.CheckpointError(
                    f"{path}: config key {key!r} has the wrong type: {config[key]!r}")
        norm = {n: a for n, a in tensors.items() if n.startswith("norm/")}
        try:
            normalizer = Normalizer.from_named_arrays(norm) if norm else None
        except KeyError as e:
            raise ckpt.CheckpointError(
                f"{path}: checkpoint lacks tensor {e.args[0]!r}") from None
        try:
            fusion = FusionConfig(d_a=config["d_a"], d_v=config["d_v"], d_t=config["d_t"],
                                  K=config["K"], iterations=config["iterations"])
            # each size must fit a tensor of the file before any weight is
            # drawn, so that no config sizes a model far larger than its file
            if tensors.get("fc_joint/w", np.empty(0)).shape != (fusion.d, fusion.d):
                raise ValueError(f"config keys d_a + d_v + d_t = {fusion.d} do not fit "
                                 f"tensor 'fc_joint/w'")
            for name in (f"iter{i}/W_ca" for i in range(1, fusion.iterations + 1)):
                if name not in tensors:
                    raise ValueError(f"config key 'iterations' is {fusion.iterations}, "
                                     f"but the checkpoint lacks tensor {name!r}")
                if tensors[name].shape != (fusion.K, fusion.K):
                    raise ValueError(f"config key 'K' is {fusion.K}, which does not fit "
                                     f"tensor {name!r} of shape {tensors[name].shape}")
            model = cls(fusion, normalizer=normalizer, target=config["target"],
                        seed=config["seed"])
            for key, value in model.checkpoint_config().items():
                if config[key] != value:
                    raise ValueError(f"config key {key!r} is {config[key]!r}, not {value!r}")
            known = dict(normalizer.named_arrays()) if normalizer else {}
            for name, arr in known.items():
                expected = (model.config.dim(name.split("/")[1]), 1)
                if arr.shape != expected:
                    raise ValueError(f"shape mismatch for {name}: {arr.shape}, "
                                     f"expected {expected}")
                if name.endswith("/std") and not np.all(arr > 0.0):
                    raise ValueError(f"{name} has a value that is not positive")
            # a norm/ tensor that the normalizer does not read is a state mismatch
            model.load_state_arrays({n: a for n, a in tensors.items() if n not in known})
        except ValueError as e:
            raise ckpt.CheckpointError(f"{path}: {e}") from None
        return model


# the config keys `RjcmaModel.load` reads, each with its JSON type
_CONFIG_TYPES = {
    **dict.fromkeys(("d_a", "d_v", "d_t", "K", "iterations", "seed", "tcn_kernel"),
                    _is_int),
    "target": lambda value: isinstance(value, str),
    "tcn_dilations": lambda value: isinstance(value, list) and all(map(_is_int, value)),
}
