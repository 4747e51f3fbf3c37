"""Synthetic multimodal sequences, windowing, masking, normalization, file I/O.

Sequences carry three frame-synchronized feature streams (audio/visual/text
stand-ins) plus per-frame valence/arousal labels in [-1, 1], with -5 marking
frames without a valid annotation. Feature files use the versioned binary
"MMF1" container so precomputed real features can be dropped in.
"""

from __future__ import annotations

import json
import logging
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

# checkpoint and parameter names follow this order
MODALITIES = ("a", "v", "t")
TARGETS = ("valence", "arousal")
INVALID_LABEL = -5.0

# normalization targets per modality: (mean, std)
NORM_TARGETS = {"a": (0.5, 0.5), "v": (0.5, 0.5), "t": (0.0, 1.0)}


class FormatError(ValueError):
    """Malformed feature file (bad magic, truncation, invalid counts)."""


@dataclass
class SequenceRecord:
    id: str
    features: dict  # modality -> (d_m x T) float64 array
    valence: np.ndarray
    arousal: np.ndarray
    fps: float = 30.0

    def __post_init__(self):
        lengths = {m: f.shape[1] for m, f in self.features.items()}
        if len(set(lengths.values())) != 1:
            raise ValueError(f"modality frame counts differ: {lengths}")
        t = self.length
        if t == 0:
            raise ValueError(f"sequence {self.id!r} has zero frames")
        if self.valence.shape != (t,) or self.arousal.shape != (t,):
            raise ValueError(f"label lengths do not match T={t}")

    @property
    def length(self) -> int:
        return next(iter(self.features.values())).shape[1]


@dataclass(frozen=True)
class WindowSpec:
    K: int = 300
    stride: int = 200

    def __post_init__(self):
        # each message starts with the offending field and its value
        if self.K < 1:
            raise ValueError(f"K={self.K} is not positive")
        if not (1 <= self.stride <= self.K):
            raise ValueError(f"stride={self.stride} is outside [1, K={self.K}]")


@dataclass
class Window:
    sequence_id: str
    offset: int
    features: dict                 # modality -> (d_m x K)
    valence: np.ndarray            # K, raw values incl. -5 sentinels
    arousal: np.ndarray
    n_padded: int = 0
    # label masks: false on -5 sentinels and on padded tail frames
    valence_mask: np.ndarray = field(init=False)
    arousal_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        valid = np.arange(self.K) < self.K - self.n_padded
        self.valence_mask = (self.valence != INVALID_LABEL) & valid
        self.arousal_mask = (self.arousal != INVALID_LABEL) & valid

    @property
    def K(self) -> int:
        return self.valence.size

    def labels(self, target: str) -> np.ndarray:
        return self.valence if target == "valence" else self.arousal

    def label_mask(self, target: str) -> np.ndarray:
        return self.valence_mask if target == "valence" else self.arousal_mask


def window(rec: SequenceRecord, spec: WindowSpec) -> list[Window]:
    """Fixed-length sub-sequences at a fixed stride; short tails are padded by
    repeating the last frame with padded labels masked. An unpadded window's
    features are views of the record's, so the record's arrays must not be
    written while its windows are in use."""
    t, k, stride = rec.length, spec.K, spec.stride
    if t >= k:
        count = max(1, -(-(t - k) // stride) + 1)
    else:
        count = 1
    out = []
    for i in range(count):
        start = i * stride
        stop = min(start + k, t)
        n_pad = start + k - stop
        feats = {}
        for m, f in rec.features.items():
            chunk = f[:, start:stop]
            if n_pad:
                chunk = np.concatenate(
                    [chunk, np.repeat(chunk[:, -1:], n_pad, axis=1)], axis=1)
            feats[m] = chunk

        def pad_labels(lab):
            chunk = lab[start:stop]
            if n_pad:
                chunk = np.concatenate([chunk, np.repeat(chunk[-1:], n_pad)])
            return chunk.copy()

        out.append(Window(sequence_id=rec.id, offset=start, features=feats,
                          valence=pad_labels(rec.valence),
                          arousal=pad_labels(rec.arousal), n_padded=n_pad))
    return out


# ---------------------------------------------------------------------------
# synthetic generation


@dataclass(frozen=True)
class SyntheticConfig:
    n_sequences: int = 12
    t_min: int = 200
    t_max: int = 400
    d_a: int = 16
    d_v: int = 16
    d_t: int = 16
    latent_step_sigma: float = 0.05
    n_private: int = 2
    noise_sigma: float = 0.01
    dropout_prob: float = 0.0
    invalid_label_prob: float = 0.0
    fps: float = 30.0

    def __post_init__(self):
        # each message starts with the offending field and its value
        for name in ("n_sequences", "t_min", "d_a", "d_v", "d_t"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}={getattr(self, name)} is not positive")
        if self.t_max < self.t_min:
            raise ValueError(f"t_max={self.t_max} is below t_min={self.t_min}")
        for name in ("latent_step_sigma", "noise_sigma", "n_private"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name}={getattr(self, name)} is not a finite value >= 0")
        for name in ("dropout_prob", "invalid_label_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name}={getattr(self, name)} is outside [0, 1]")
        if not 0 < self.fps < np.inf:
            raise ValueError(f"fps={self.fps} is not a finite value > 0")

    def dim(self, m: str) -> int:
        return {"a": self.d_a, "v": self.d_v, "t": self.d_t}[m]


def _smooth_walk(rng: np.random.Generator, dims: int, t: int, sigma: float) -> np.ndarray:
    steps = rng.normal(0.0, sigma, size=(dims, t))
    return np.tanh(np.cumsum(steps, axis=1))


def generate_synthetic(cfg: SyntheticConfig, seed: int) -> list[SequenceRecord]:
    """Seeded dataset: a shared smooth 2-D latent drives the labels, and each
    modality observes a linear mixture of the shared latent plus a private
    nuisance latent, with optional noise, frame dropout, and -5 labels."""
    rng = np.random.default_rng(seed)
    mixing = {
        m: rng.normal(0.0, 1.0, size=(cfg.dim(m), 2 + cfg.n_private))
        for m in MODALITIES
    }
    records = []
    for s in range(cfg.n_sequences):
        t = int(rng.integers(cfg.t_min, cfg.t_max + 1))
        latent = _smooth_walk(rng, 2, t, cfg.latent_step_sigma)
        valence = latent[0].copy()
        arousal = latent[1].copy()
        feats = {}
        for m in MODALITIES:
            private = _smooth_walk(rng, cfg.n_private, t, cfg.latent_step_sigma)
            source = np.concatenate([latent, private], axis=0)
            x = mixing[m] @ source
            if cfg.noise_sigma > 0:
                x = x + rng.normal(0.0, cfg.noise_sigma, size=x.shape)
            if cfg.dropout_prob > 0:
                drop = rng.random(t) < cfg.dropout_prob
                x[:, drop] = 0.0
            feats[m] = x
        for lab in (valence, arousal):
            if cfg.invalid_label_prob > 0:
                bad = rng.random(t) < cfg.invalid_label_prob
                lab[bad] = INVALID_LABEL
        records.append(SequenceRecord(id=f"seq{s:03d}", features=feats,
                                      valence=valence, arousal=arousal,
                                      fps=cfg.fps))
    return records


# ---------------------------------------------------------------------------
# normalization


class Normalizer:
    """Per-feature-dimension affine transform to modality-specific targets.

    Statistics come from the training partition only; validation/test data
    reuse them. Zero-variance dimensions are centered with scale 1.
    """

    def __init__(self, mean: dict | None = None, std: dict | None = None):
        self.mean = mean or {}
        self.std = std or {}

    def fit(self, records: list[SequenceRecord]) -> "Normalizer":
        if not records:
            raise ValueError("cannot fit normalizer on an empty partition")
        for m in MODALITIES:
            stacked = np.concatenate([r.features[m] for r in records], axis=1)
            mu = stacked.mean(axis=1, keepdims=True)
            sd = stacked.std(axis=1, keepdims=True)
            zero = sd.ravel() == 0.0
            if zero.any():
                logger.warning("modality %s: %d zero-variance dims left at scale 1",
                               m, int(zero.sum()))
                sd[zero.reshape(sd.shape)] = 1.0
            self.mean[m] = mu
            self.std[m] = sd
        return self

    def transform(self, features: np.ndarray, modality: str) -> np.ndarray:
        tgt_mean, tgt_std = NORM_TARGETS[modality]
        z = (features - self.mean[modality]) / self.std[modality]
        return z * tgt_std + tgt_mean

    def named_arrays(self):
        for m in MODALITIES:
            yield f"norm/{m}/mean", self.mean[m]
            yield f"norm/{m}/std", self.std[m]

    @classmethod
    def from_named_arrays(cls, arrays: dict) -> "Normalizer":
        mean = {m: arrays[f"norm/{m}/mean"] for m in MODALITIES}
        std = {m: arrays[f"norm/{m}/std"] for m in MODALITIES}
        return cls(mean=mean, std=std)


# ---------------------------------------------------------------------------
# MMF1 binary feature files

_MAGIC = b"MMF1"
_VERSION = 1


class _Reader:
    """Little-endian cursor over a file's bytes; errors name the file and offset."""

    def __init__(self, blob: bytes, path, error: type[Exception] = FormatError):
        self.blob = blob
        self.off = 0
        self.path = path
        self.error = error

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise self.error(
                f"{self.path}: truncated at byte {self.off} (wanted {n} more)")
        chunk = self.blob[self.off:self.off + n]
        self.off += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def f64_array(self, count: int) -> np.ndarray:
        start = self.off
        arr = np.frombuffer(self.take(8 * count), dtype="<f8").astype(np.float64)
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise self.error(
                f"{self.path}: non-finite value at byte {start + 8 * int(bad[0])}")
        return arr

    def text(self, what: str) -> str:
        """Length-prefixed UTF-8 string at the cursor."""
        n = self.u32()
        start = self.off
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise self.error(
                f"{self.path}: {what} is not UTF-8 at byte {start + e.start}") from None


def write_features(path, rec: SequenceRecord) -> None:
    t = rec.length
    parts = [_MAGIC, struct.pack("<I", _VERSION)]
    ident = rec.id.encode("utf-8")
    parts.append(struct.pack("<I", len(ident)))
    parts.append(ident)
    parts.append(struct.pack("<d", rec.fps))
    parts.append(struct.pack("<Q", t))
    parts.append(struct.pack("<I", len(MODALITIES)))
    for m in MODALITIES:
        f = np.ascontiguousarray(rec.features[m], dtype="<f8")
        parts.append(struct.pack("<Q", f.shape[0]))
        parts.append(f.tobytes())
    parts.append(np.ascontiguousarray(rec.valence, dtype="<f8").tobytes())
    parts.append(np.ascontiguousarray(rec.arousal, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def read_features(path) -> SequenceRecord:
    r = _Reader(Path(path).read_bytes(), path)
    magic = r.take(4)
    if magic != _MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at byte 0")
    version = r.u32()
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte 4")
    ident = r.text("sequence id")
    fps = r.f64()
    if not 0 < fps < np.inf:
        raise FormatError(f"{path}: fps {fps} is not a finite value > 0 "
                          f"at byte {r.off - 8}")
    t = r.u64()
    if t == 0:
        raise FormatError(f"{path}: empty sequence (T=0) at byte {r.off - 8}")
    n_mod = r.u32()
    if n_mod != len(MODALITIES):
        raise FormatError(f"{path}: expected {len(MODALITIES)} modalities, "
                          f"got {n_mod} at byte {r.off - 4}")
    feats = {}
    for m in MODALITIES:
        d = r.u64()
        if d == 0:
            raise FormatError(f"{path}: zero feature dim at byte {r.off - 8}")
        feats[m] = r.f64_array(d * t).reshape(d, t)
    valence = r.f64_array(t)
    arousal = r.f64_array(t)
    if r.off != len(r.blob):
        raise FormatError(f"{path}: {len(r.blob) - r.off} trailing bytes "
                          f"at byte {r.off}")
    return SequenceRecord(id=ident, features=feats, valence=valence,
                          arousal=arousal, fps=fps)


# ---------------------------------------------------------------------------
# manifests and folds


def write_manifest(path, entries: list[dict]) -> None:
    Path(path).write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> list[dict]:
    """The manifest's entries; each is an object with a string `path`."""
    blob = Path(path).read_bytes()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 at byte {e.start}") from None
    try:
        entries = json.loads(text)
    except json.JSONDecodeError as e:
        at = len(text[:e.pos].encode("utf-8"))
        raise FormatError(f"{path}: not JSON at byte {at}: {e.msg}") from None
    if not isinstance(entries, list):
        raise FormatError(f"{path}: manifest must be a JSON list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: entry {i} is not an object")
        if "path" not in entry:
            raise FormatError(f"{path}: entry {i} lacks key 'path'")
        if not isinstance(entry["path"], str):
            raise FormatError(
                f"{path}: entry {i} key 'path' is not a string: {entry['path']!r}")
    return entries


def load_manifest_records(manifest_path) -> list[tuple[dict, SequenceRecord]]:
    """Each entry with the sequence its file holds. Splits and folds are sets
    of sequence ids, so a sequence id that two entries hold raises
    FormatError."""
    base = Path(manifest_path).parent
    out = []
    seen = {}
    for i, entry in enumerate(read_manifest(manifest_path)):
        p = Path(entry["path"])
        if not p.is_absolute():
            p = base / p
        rec = read_features(p)
        if rec.id in seen:
            raise FormatError(f"{manifest_path}: entries {seen[rec.id]} and {i} "
                              f"hold the same sequence id {rec.id!r}")
        seen[rec.id] = i
        out.append((entry, rec))
    return out


def feature_dims(records: list[SequenceRecord]) -> dict[str, int]:
    """The feature width of each modality. Every record must share them: the
    first that does not raises FormatError naming it."""
    first = records[0]
    dims = {m: first.features[m].shape[0] for m in MODALITIES}
    for rec in records[1:]:
        got = {m: rec.features[m].shape[0] for m in MODALITIES}
        if got != dims:
            raise FormatError(
                f"{rec.id}: feature dims {got} differ from {first.id}'s {dims}")
    return dims


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def make_folds(sequence_ids: list[str], n_folds: int, seed: int) -> dict[str, int]:
    """Sequence-level fold assignment; fold 0 is the canonical train/val split.
    Each fold is held out in turn, so at least two are needed."""
    if not (_is_int(n_folds) and 2 <= n_folds <= len(sequence_ids)):
        raise ValueError(f"n_folds={n_folds!r} must be an integer in "
                         f"[2, {len(sequence_ids)} sequences]")
    rng = np.random.default_rng(seed)
    order = list(sequence_ids)
    rng.shuffle(order)
    return {sid: i % n_folds for i, sid in enumerate(order)}
