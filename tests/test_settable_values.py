"""The package's settable values, pinned: a change that adds or removes a
knob has to edit `SETTABLE` below."""

import dataclasses
import importlib
import inspect
import pkgutil

import rjcma

# every dataclass init field ("module.Class.field") and every defaulted
# parameter ("module.function(param)", "module.Class.method(param)") of the
# public functions, classes and methods of the package, sorted
SETTABLE = [
    "autodiff.grad_check(h)", "autodiff.grad_check(tol)", "cli.GradcheckConfig.K",
    "cli.GradcheckConfig.d_m", "cli.GradcheckConfig.h", "cli.GradcheckConfig.iterations",
    "cli.GradcheckConfig.seed", "cli.GradcheckConfig.tol", "cli.main(argv)",
    "data.Normalizer.__init__(mean)", "data.Normalizer.__init__(std)",
    "data.SequenceRecord.arousal", "data.SequenceRecord.features",
    "data.SequenceRecord.fps", "data.SequenceRecord.id", "data.SequenceRecord.valence",
    "data.SyntheticConfig.d_a", "data.SyntheticConfig.d_t", "data.SyntheticConfig.d_v",
    "data.SyntheticConfig.dropout_prob", "data.SyntheticConfig.fps",
    "data.SyntheticConfig.invalid_label_prob", "data.SyntheticConfig.latent_step_sigma",
    "data.SyntheticConfig.n_private", "data.SyntheticConfig.n_sequences",
    "data.SyntheticConfig.noise_sigma", "data.SyntheticConfig.t_max",
    "data.SyntheticConfig.t_min", "data.Window.arousal", "data.Window.features",
    "data.Window.n_padded", "data.Window.offset", "data.Window.sequence_id",
    "data.Window.valence", "data.WindowSpec.K", "data.WindowSpec.stride",
    "fusion.FusionConfig.K", "fusion.FusionConfig.d_a", "fusion.FusionConfig.d_t",
    "fusion.FusionConfig.d_v", "fusion.FusionConfig.iterations",
    "fusion.FusionOutput.attended", "fusion.FusionOutput.intermediates",
    "fusion.FusionOutput.predictions", "fusion.attention_step(keep)",
    "fusion.rjcma_forward(collect_intermediates)", "metrics.EvalResult.ccc_arousal",
    "metrics.EvalResult.ccc_valence", "metrics.EvalResult.n_frames",
    "metrics.EvalResult.per_sequence", "metrics.ccc(mask)", "metrics.ccc_loss(mask)",
    "metrics.evaluate(targets)", "model.RjcmaModel.__init__(normalizer)",
    "model.RjcmaModel.predict(target)", "model.RjcmaModel.predict_windows(target)",
    "model.RjcmaModel.state_arrays(out)", "train.EpochStats.epoch", "train.EpochStats.lr",
    "train.EpochStats.train_loss", "train.EpochStats.val_ccc",
    "train.FitResult.best_val_ccc", "train.FitResult.history", "train.FitResult.model",
    "train.OptimizerState.m", "train.OptimizerState.step", "train.OptimizerState.v",
    "train.TrainConfig.batch_size", "train.TrainConfig.early_stop_patience",
    "train.TrainConfig.iterations", "train.TrainConfig.lr_init",
    "train.TrainConfig.lr_min", "train.TrainConfig.max_epochs",
    "train.TrainConfig.plateau_factor", "train.TrainConfig.plateau_patience",
    "train.TrainConfig.seed", "train.TrainConfig.target",
    "train.TrainConfig.warmup_epochs", "train.TrainConfig.weight_decay",
    "train.adam_step(weight_decay)", "train.train_fold(targets)",
]


def settable_values() -> list[str]:
    out = []
    for info in pkgutil.iter_modules(rjcma.__path__):
        module = importlib.import_module(f"rjcma.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            where = f"{info.name}.{name}"
            if inspect.isfunction(obj):
                out += [f"{where}({p})" for p in _defaulted(obj)]
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    out += [f"{where}.{f.name}" for f in dataclasses.fields(obj) if f.init]
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)     # class and static methods
                    if inspect.isfunction(fn) and (
                            not attr.startswith("_")
                            or attr == "__init__" and not dataclasses.is_dataclass(obj)):
                        out += [f"{where}.{attr}({p})" for p in _defaulted(fn)]
    return sorted(out)


def _defaulted(fn) -> list[str]:
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.default is not inspect.Parameter.empty]


def test_settable_values_are_pinned():
    assert settable_values() == SETTABLE
    assert len(SETTABLE) == 81
