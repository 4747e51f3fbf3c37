"""Command-line front end: gen, train, eval, gradcheck, ablate, cv.

Every command is driven by a JSON config (unknown keys rejected, every field
overridable via --set section.key=value) and a seed, and echoes the effective
config into its run directory so runs are reproducible artifacts.

Exit codes: 0 success, 1 usage/config, 2 data/format, 3 numerical failure,
4 internal error (an uncaught exception, reported with its traceback).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
import traceback
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import data as dat
from .autodiff import grad_check
from .fusion import FusionConfig
from .metrics import InsufficientDataError, evaluate
from .model import RjcmaModel, _is_int
from .train import NumericalError, TrainConfig, train_fold

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    pass


@dataclass
class GradcheckConfig:
    # seed picked so no ReLU pre-activation sits within h of its kink
    # and no gradient is below the f64 finite-difference noise floor
    d_m: int = 8
    K: int = 16
    iterations: int = 3
    h: float = 1e-5
    tol: float = 1e-4
    seed: int = 2

    def __post_init__(self):
        # each message starts with the offending field and its value; the
        # range check is written so that NaN fails it
        for name in ("d_m", "K", "iterations", "h", "tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name}={getattr(self, name)} is not positive and finite")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} is negative")


def default_config() -> dict:
    return {
        "seed": 0,
        "n_folds": 6,
        "synthetic": asdict(dat.SyntheticConfig()),
        "window": asdict(dat.WindowSpec()),
        # None: train.seed follows seed
        "train": {**asdict(TrainConfig()), "seed": None},
        "gradcheck": asdict(GradcheckConfig()),
    }


def _merge(base: dict, override: dict, path: str = "") -> dict:
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be an object")
            _merge(base[key], value, where)
        else:
            base[key] = value
    return base


def load_config(path: str | None, overrides: list[str], args) -> dict:
    cfg = default_config()
    if path:
        try:
            user = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON in {path}: {e}")
        _merge(cfg, user)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = {}
        cursor = node
        keys = dotted.split(".")
        for k in keys[:-1]:
            cursor[k] = {}
            cursor = cursor[k]
        cursor[keys[-1]] = value
        _merge(cfg, node)
    seed, train_seed = cfg["seed"], cfg["train"]["seed"]
    if not _is_int(seed):
        raise ConfigError(f"seed must be int, got {seed!r}")
    # the echoed config holds both keys, so they may agree but not differ
    if train_seed is not None and train_seed != seed:
        raise ConfigError(f"train.seed={train_seed!r} differs from seed={seed}")
    key = "seed"
    if getattr(args, "seed", None) is not None:
        key, seed = "--seed", args.seed
    if seed < 0:
        raise ConfigError(f"{key}={seed} is negative")
    cfg["seed"] = cfg["train"]["seed"] = seed
    if getattr(args, "target", None):
        cfg["train"]["target"] = args.target
    if getattr(args, "iterations", None) is not None:
        cfg["train"]["iterations"] = args.iterations
    return cfg


def new_run_dir(base: str) -> Path:
    """Fresh run directory under `base`; existing runs are never touched."""
    root = Path(base)
    root.mkdir(parents=True, exist_ok=True)
    for i in range(10000):
        candidate = root / f"run-{i:04d}"
        if not candidate.exists():
            candidate.mkdir()
            return candidate
    raise OSError(f"no free run directory under {base}")


def echo_config(run_dir: Path, cfg: dict) -> None:
    (run_dir / "config.json").write_text(
        json.dumps(cfg, indent=2, sort_keys=True) + "\n")


# the JSON values a config dataclass field of each annotated type accepts
_FIELD_TYPES = {
    "int": _is_int,
    "float": lambda value: _is_int(value) or isinstance(value, float),
    "str": lambda value: isinstance(value, str),
}


def _build(cls, section: str, values: dict):
    """`cls(**values)` for one config section. A value of the wrong type or
    one the dataclass rejects raises ConfigError naming the key and value
    (the dataclasses start each message with the field and its value)."""
    for f in fields(cls):
        if f.name in values and not _FIELD_TYPES[f.type](values[f.name]):
            raise ConfigError(
                f"{section}.{f.name} must be {f.type}, got {values[f.name]!r}")
    try:
        return cls(**values)
    except ValueError as e:
        raise ConfigError(f"{section}.{e}") from None


def _train_config(cfg: dict, **changes) -> TrainConfig:
    return _build(TrainConfig, "train", {**cfg["train"], **changes})


def _synthetic_config(cfg: dict) -> dat.SyntheticConfig:
    return _build(dat.SyntheticConfig, "synthetic", cfg["synthetic"])


def _window_spec(cfg: dict, K: int | None = None) -> dat.WindowSpec:
    """The window section; `K` (a checkpoint's) replaces window.K."""
    window = cfg["window"] if K is None else {**cfg["window"], "K": K}
    return _build(dat.WindowSpec, "window", window)


def _fusion_config(records, spec: dat.WindowSpec, iterations: int) -> FusionConfig:
    """The model for `records`: its widths are their feature widths (a
    FormatError names a record that differs). `iterations` comes from a
    checked TrainConfig."""
    dims = dat.feature_dims(records)
    return FusionConfig(d_a=dims["a"], d_v=dims["v"], d_t=dims["t"],
                        K=spec.K, iterations=iterations)


def _folds(cfg: dict, sequence_ids: list[str]) -> dict[str, int]:
    n_folds = cfg["n_folds"]
    if not (_is_int(n_folds) and 1 <= n_folds <= len(sequence_ids)):
        raise ConfigError(f"n_folds={n_folds!r} must be an integer in "
                          f"[1, {len(sequence_ids)} sequences]")
    return dat.make_folds(sequence_ids, n_folds, cfg["seed"])


def _load_splits(manifest: str, *splits: str) -> list[list[dat.SequenceRecord]]:
    """The manifest's sequences of each split, read once."""
    entries = dat.load_manifest_records(manifest)
    out = []
    for split in splits:
        out.append([rec for entry, rec in entries if entry.get("split") == split])
        if not out[-1]:
            raise dat.FormatError(f"no sequences with split={split!r} in {manifest}")
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args) -> int:
    cfg = load_config(args.config, args.set, args)
    records = dat.generate_synthetic(_synthetic_config(cfg), cfg["seed"])
    folds = _folds(cfg, [r.id for r in records])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for rec in records:
        path = out / f"{rec.id}.mmf"
        dat.write_features(path, rec)
        entries.append({"id": rec.id, "path": path.name,
                        "split": "val" if folds[rec.id] == 0 else "train",
                        "fold": folds[rec.id]})
    dat.write_manifest(out / "manifest.json", entries)
    echo_config(out, cfg)
    print(f"wrote {len(entries)} sequences + manifest.json to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.set, args)
    spec = _window_spec(cfg)
    tcfg = _train_config(cfg)
    train_recs, val_recs = _load_splits(args.manifest, "train", "val")
    records = train_recs + val_recs
    fusion_cfg = _fusion_config(records, spec, tcfg.iterations)
    run_dir = new_run_dir(args.out)
    echo_config(run_dir, cfg)

    models, report, fits = train_fold(records, {r.id for r in val_recs},
                                      fusion_cfg, spec, tcfg,
                                      targets=(tcfg.target,))
    models[tcfg.target].save(run_dir / "checkpoint.bin")
    (run_dir / "history.csv").write_text(fits[tcfg.target].history_csv())
    (run_dir / "report.json").write_text(report.to_json())
    print("\n".join(report.report_lines()))
    print(f"artifacts in {run_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = load_config(args.config, args.set, args)
    model = RjcmaModel.load(args.checkpoint)
    spec = _window_spec(cfg, K=model.config.K)
    [recs] = _load_splits(args.manifest, args.split)
    dims = dat.feature_dims(recs)
    expected = {m: model.config.dim(m) for m in dat.MODALITIES}
    if dims != expected:
        raise dat.FormatError(
            f"{recs[0].id}: feature dims {dims} do not match checkpoint {expected}")
    windows = [w for r in recs for w in dat.window(r, spec)]
    try:
        report = evaluate(model.predict, windows, (model.target,))
    except InsufficientDataError as e:
        raise InsufficientDataError(f"{args.manifest} split {args.split!r}: {e}") from None
    run_dir = new_run_dir(args.out)
    echo_config(run_dir, cfg)
    (run_dir / "report.json").write_text(report.to_json())
    print("\n".join(report.report_lines()))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = load_config(args.config, args.set, args)
    if args.seed is not None:
        cfg["gradcheck"]["seed"] = args.seed
    report = run_gradcheck(_build(GradcheckConfig, "gradcheck", cfg["gradcheck"]))
    print("\n".join(report.lines()))
    print(f"max relative error {report.max_error:.3e} "
          f"({'PASS' if report.passed else 'FAIL'} at tol {report.tol:g})")
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def run_gradcheck(g: GradcheckConfig):
    """Finite-difference check of the full pipeline: TCN + fusion + CCC loss."""
    fusion_cfg = FusionConfig(d_a=g.d_m, d_v=g.d_m, d_t=g.d_m, K=g.K,
                              iterations=g.iterations)
    model = RjcmaModel(fusion_cfg, target="valence", seed=g.seed)
    rng = np.random.default_rng(g.seed + 1)
    # training inits the attention weights near zero, which parks ReLU
    # pre-activations on the kink where central differences are biased;
    # audit at O(1) scale instead
    for name, p in model.parameters().items():
        if "/W_c" in name or "/W_h" in name:
            p.data = rng.uniform(-0.5, 0.5, size=p.data.shape)
    win = dat.Window(
        sequence_id="gradcheck", offset=0,
        features={m: rng.normal(size=(g.d_m, g.K)) for m in dat.MODALITIES},
        valence=np.clip(rng.normal(scale=0.5, size=g.K), -1, 1),
        arousal=np.clip(rng.normal(scale=0.5, size=g.K), -1, 1))
    return grad_check(lambda: model.loss_on_window(win),
                      model.parameters(), h=g.h, tol=g.tol)


def cmd_ablate(args) -> int:
    cfg = load_config(args.config, args.set, args)
    try:
        l_values = [int(x) for x in args.l_values.split(",") if x]
    except ValueError:
        raise ConfigError(f"--l-values must be integers, got {args.l_values!r}") from None
    if not l_values:
        raise ConfigError("--l-values must list at least one recursion depth")
    return _sweep(args, cfg, lambda n_folds: [(l, 0, l) for l in l_values],
                  "ablation", "l", "Num. of recursions (l)")


def cmd_cv(args) -> int:
    cfg = load_config(args.config, args.set, args)
    l = cfg["train"]["iterations"]
    return _sweep(args, cfg, lambda n_folds: [(f, f, l) for f in range(n_folds)],
                  "cv", "fold", "Validation Set (fold)")


def _sweep(args, cfg: dict, rows_for, name: str, key: str, header: str) -> int:
    """Train one `train_fold` per `(label, fold, l)` row: depth l, with the
    sequences of `fold` held out. `rows_for(n_folds)` lists the rows once
    `_folds` has checked n_folds; every check runs before the run directory
    is made. Writes the table to `<name>.json` and `<name>.txt` and prints it."""
    spec = _window_spec(cfg)
    records = _records_for(args, cfg)
    assignment = _folds(cfg, [r.id for r in records])
    rows = rows_for(cfg["n_folds"])
    tcfgs = [_train_config(cfg, iterations=l) for _, _, l in rows]
    fusion_cfgs = [_fusion_config(records, spec, tcfg.iterations) for tcfg in tcfgs]
    run_dir = new_run_dir(args.out)
    echo_config(run_dir, cfg)
    table = []
    for (label, fold, _), tcfg, fusion_cfg in zip(rows, tcfgs, fusion_cfgs):
        val_ids = {sid for sid, f in assignment.items() if f == fold}
        _, result, _ = train_fold(records, val_ids, fusion_cfg, spec, tcfg,
                                  targets=_targets(args))
        table.append({key: label, "valence": result.ccc_valence,
                      "arousal": result.ccc_arousal, "mean": result.mean})
    text = _format_table(table, key=key, header=header)
    (run_dir / f"{name}.json").write_text(
        json.dumps(table, indent=2, sort_keys=True) + "\n")
    (run_dir / f"{name}.txt").write_text(text)
    print(text, end="")
    return EXIT_OK


def _targets(args) -> tuple[str, ...]:
    """The targets `--target` of ablate and cv selects."""
    return ("valence", "arousal") if args.targets == "both" else (args.targets,)


def _records_for(args, cfg):
    if getattr(args, "manifest", None):
        return [rec for _, rec in dat.load_manifest_records(args.manifest)]
    return dat.generate_synthetic(_synthetic_config(cfg), cfg["seed"])


def _format_table(rows: list[dict], key: str, header: str) -> str:
    def fmt(v):
        return "  --  " if v is None else f"{v:.4f}"

    lines = [f"{header:<24} {'Valence':>8} {'Arousal':>8} {'Mean':>8}"]
    for row in rows:
        lines.append(f"{str(row[key]):<24} {fmt(row['valence']):>8} "
                     f"{fmt(row['arousal']):>8} {fmt(row['mean']):>8}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rjcma",
        description="Recursive joint cross-modal attention: synthetic data, "
                    "training, evaluation, verification, ablation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the global seed")
        p.add_argument("--set", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="override any config field")
        if out:
            p.add_argument("--out", default="runs", help="output directory")

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    common(p)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train one per-target model")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--target", choices=("valence", "arousal"),
                   help="the target to train (default: train.target)")
    p.add_argument("--iterations", type=int, help="recursion depth l")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=("train", "val"), default="val")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    common(p, out=False)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ablate", help="recursion-depth sweep")
    common(p)
    p.add_argument("--manifest")
    p.add_argument("--l-values", default="1,2,3,4")
    p.add_argument("--target", dest="targets", default="both",
                   choices=("valence", "arousal", "both"))
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("cv", help="k-fold cross-validation")
    common(p)
    p.add_argument("--manifest")
    p.add_argument("--target", dest="targets", default="both",
                   choices=("valence", "arousal", "both"))
    p.set_defaults(fn=cmd_cv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (dat.FormatError, ckpt.CheckpointError, InsufficientDataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
