"""Synthetic embedding sequences with surgical-phase structure.

Each sequence walks the phase ontology in order (optionally truncated to
mimic incomplete recordings). Per-phase durations follow log-normal
distributions parameterized by mean and standard deviation in frames; each
frame's feature vector is its phase's cluster center plus Gaussian noise.
The default profile keeps the tumor-resection phase dominant and closure
brief, so imbalance-sensitive losses have something to chew on.

Label noise jitters the annotated boundary positions (weak labels are
timing-imprecise, not class-shuffled), which keeps every generated timeline
monotone with unit steps. Boundary blur instead mixes adjacent cluster
centers in a window around each true transition, making frames near
boundaries genuinely ambiguous.

Feature files on disk are .npy arrays, read through FeatureFile: opening one
checks its header, and rows(lo, hi) reads, casts and checks a row range, so
a caller can project a long sequence without holding it (mstcnpp.forward
does for segment and for eval, one sequence at a time). load_features reads
every row at once. sequence_files lists a split's feature and label files;
load_dataset, which train uses, holds every sequence of the split.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .annotate import read_label_csv, replacing, write_label_csv
from .seqcore import ShapeError


@dataclass(frozen=True)
class SynthConfig:
    dim: int = 64
    duration_mean: tuple = (30.0, 35.0, 96.0, 12.0)   # frames per phase
    duration_std: tuple = (8.0, 10.0, 24.0, 3.0)
    noise_sigma: float = 0.35
    confusability: tuple | None = None   # (C, C) center-mixing weights, zero diagonal
    label_noise: float = 0.0             # boundary jitter, fraction of segment length
    boundary_blur: int = 0               # half-width of center mixing at transitions
    include_all_phases: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.dim < len(self.duration_mean):
            raise ValueError("dim must be at least the number of phases")
        if len(self.duration_mean) != len(self.duration_std):
            raise ValueError("duration_mean and duration_std must align")
        if any(m <= 0 for m in self.duration_mean) or any(s < 0 for s in self.duration_std):
            raise ValueError("durations must be positive, stds nonnegative")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not 0 <= self.label_noise < 1:
            raise ValueError("label_noise must lie in [0, 1)")

    @property
    def n_phases(self) -> int:
        return len(self.duration_mean)


def phase_centers(cfg: SynthConfig) -> np.ndarray:
    """Deterministic (C, d) cluster centers: orthonormal directions, mixed
    by the confusability matrix to pull configured pairs closer."""
    rng = np.random.default_rng(cfg.seed)
    centers = np.linalg.qr(rng.normal(size=(cfg.dim, cfg.n_phases)))[0].T
    if cfg.confusability is not None:
        mix = np.asarray(cfg.confusability, dtype=float)
        if mix.shape != (cfg.n_phases, cfg.n_phases):
            raise ValueError(f"confusability must be ({cfg.n_phases}, {cfg.n_phases})")
        centers = centers + mix @ centers
    return centers


def _sample_duration(rng, mean: float, std: float) -> int:
    if std == 0:
        return max(1, round(mean))
    sigma2 = np.log(1.0 + (std / mean) ** 2)
    mu = np.log(mean) - sigma2 / 2.0
    return max(1, round(rng.lognormal(mu, np.sqrt(sigma2))))


def _jitter_boundaries(rng, durations: list[int], fraction: float) -> list[int]:
    """Shift segment boundaries by up to `fraction` of the shorter neighbor."""
    bounds = list(np.cumsum(durations))  # exclusive segment ends
    total = bounds[-1]
    for i in range(len(bounds) - 1):
        left = bounds[i] - (bounds[i - 1] if i else 0)
        right = bounds[i + 1] - bounds[i]
        reach = fraction * min(left, right)
        shift = round(rng.uniform(-reach, reach))
        lo = (bounds[i - 1] if i else 0) + 1
        hi = bounds[i + 1] - 1
        bounds[i] = int(np.clip(bounds[i] + shift, lo, hi))
    ends = bounds[:-1] + [total]
    starts = [0] + ends[:-1]
    return [e - s for s, e in zip(starts, ends)]


_FILE_MAX = float(np.finfo(np.float32).max)  # dataset files store float32


def generate(cfg: SynthConfig, n_sequences: int,
             sequence_seed: int | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Generate (features (T, d) float64, labels (T,) int64) pairs.

    Deterministic for (cfg, n_sequences, sequence_seed). Raises ValueError
    if a feature is non-finite or beyond the float32 range of a dataset file.

    Cluster centers always derive from cfg.seed, so splits drawn with
    different sequence_seed values share one feature geometry.
    """
    if n_sequences < 1:
        raise ValueError("n_sequences must be >= 1")
    rng = np.random.default_rng(cfg.seed if sequence_seed is None else sequence_seed)
    centers = phase_centers(cfg)
    out = []
    for _ in range(n_sequences):
        if cfg.include_all_phases:
            first, last = 0, cfg.n_phases - 1
        else:
            first = int(rng.integers(0, cfg.n_phases))
            last = int(rng.integers(first, cfg.n_phases))
        phases = list(range(first, last + 1))
        durations = [_sample_duration(rng, cfg.duration_mean[p], cfg.duration_std[p])
                     for p in phases]

        true_labels = np.repeat(phases, durations)
        t_len = true_labels.size
        features = centers[true_labels].astype(np.float64)

        if cfg.boundary_blur > 0 and len(phases) > 1:
            w = cfg.boundary_blur
            boundary = 0
            for seg in range(len(phases) - 1):
                boundary += durations[seg]
                lo, hi = max(0, boundary - w), min(t_len, boundary + w)
                for t in range(lo, hi):
                    alpha = (t - (boundary - w)) / (2 * w)
                    features[t] = ((1 - alpha) * centers[phases[seg]]
                                   + alpha * centers[phases[seg + 1]])

        if cfg.noise_sigma > 0:
            features = features + rng.normal(0.0, cfg.noise_sigma, size=features.shape)

        if not np.abs(features).max() <= _FILE_MAX:  # NaN fails too
            raise ValueError("features beyond the float32 range of a dataset file: lower "
                             "noise_sigma or the confusability (sellar_closure_confusability)")

        if cfg.label_noise > 0 and len(phases) > 1:
            durations = _jitter_boundaries(rng, durations, cfg.label_noise)
        out.append((features, np.repeat(phases, durations).astype(np.int64)))
    return out


# ---------------------------------------------------------------------------
# on-disk dataset layout: seq_###.npy (T, d) float32 + seq_###.csv labels
# ---------------------------------------------------------------------------

def save_dataset(sequences, directory) -> list[str]:
    """Write each (features, labels) as seq_###.npy and .csv; returns their paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for i, (features, labels) in enumerate(sequences):
        npy, labels_csv = directory / f"seq_{i:03d}.npy", directory / f"seq_{i:03d}.csv"
        with replacing(npy, "wb") as fh:
            np.save(fh, np.asarray(features, dtype=np.float32))
        write_label_csv(labels_csv, labels)
        written += [str(npy), str(labels_csv)]
    return written


class FeatureFile:
    """A (T, d) feature file (.npy) opened for reading row ranges at dtype.

    Opening reads and checks the header alone. Raises ShapeError unless the
    array is 2-D with T >= 1 and d >= 1, and ValueError unless the file is a
    .npy file (not an .npz archive or a pickle) of real numbers (bool, int
    or float; not objects) in C order and this machine's byte order, with as
    many data bytes as its header describes. rows() then checks the values
    it hands out. Every message names the file. Use it in a `with` block,
    or close() it.
    """

    def __init__(self, path, dtype=np.float64):
        self.path, self.dtype = path, np.dtype(dtype)
        self._lock = threading.Lock()  # rows() seeks and reads one file handle
        self._fh = open(path, "rb", buffering=0)
        try:
            self._stored, self.shape, self._offset = self._read_header()
        except BaseException:
            self._fh.close()
            raise

    def _read_header(self):
        fmt, path = np.lib.format, self.path
        try:
            version = fmt.read_magic(self._fh)  # an .npz or a pickle fails here
            if version not in ((1, 0), (2, 0)):
                raise ValueError(f"unsupported .npy format version {version}")
            read = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
            shape, fortran_order, stored = read(self._fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not a readable .npy file: {exc}") from None
        if stored.kind not in "biuf":  # complex, dates, strings, objects, records
            raise ValueError(f"{path}: features must be real numbers, got dtype {stored}")
        if not stored.isnative:
            raise ValueError(f"{path}: features must be stored in this machine's byte "
                             f"order, got dtype {stored.str}")
        if len(shape) != 2:
            raise ShapeError(f"{path}: features must be 2-D (T, channels), got shape {shape}")
        if fortran_order:
            raise ValueError(f"{path}: features must be stored in C order, not Fortran order")
        if shape[0] < 1 or shape[1] < 1:
            raise ShapeError(f"{path}: features need T >= 1 and d >= 1, got {shape}")
        offset = self._fh.tell()
        need = shape[0] * shape[1] * stored.itemsize
        have = os.fstat(self._fh.fileno()).st_size - offset
        if have < need:
            raise ValueError(f"{path}: the header describes {need} data bytes, "
                             f"the file holds {have}")
        return stored, shape, offset

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows [lo, hi) as a new (hi - lo, d) array of dtype, read at their
        offset: bool and integer rows are cast straight to dtype, rows
        already in dtype are not copied. Raises ValueError if an entry is
        non-finite in dtype (a float64 value beyond the float32 range
        counts as infinite) or the file has shrunk since it was opened.
        Threads may call it at once."""
        d = self.shape[1]
        raw = np.empty((hi - lo, d), dtype=self._stored)
        buf = memoryview(raw.reshape(-1).view(np.uint8))
        got = 0
        with self._lock:
            self._fh.seek(self._offset + lo * d * self._stored.itemsize)
            while got < len(buf) and (n := self._fh.readinto(buf[got:])):
                got += n
        if got < len(buf):
            raise ValueError(f"{self.path}: the file ends before row {hi}")
        with np.errstate(over="ignore"):  # overflow shows as inf, rejected below
            rows = raw.astype(self.dtype, copy=False)
        if not np.isfinite(rows).all():
            raise ValueError(f"{self.path}: features contain non-finite entries")
        return rows

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def load_features(path, dtype=np.float64) -> np.ndarray:
    """Every row of the FeatureFile at path, as one (T, d) array of dtype."""
    with FeatureFile(path, dtype) as features:
        return features.rows(0, features.shape[0])


def sequence_files(directory) -> list[tuple[Path, Path]]:
    """Every (seq_*.npy, seq_*.csv) pair under directory, sorted by name;
    raises FileNotFoundError, before any is read, if a .npy has no .csv or
    there is no .npy."""
    pairs = [(npy, npy.with_suffix(".csv")) for npy in sorted(Path(directory).glob("seq_*.npy"))]
    for npy, csv_path in pairs:
        if not csv_path.exists():
            raise FileNotFoundError(f"missing label file for {npy.name}")
    if not pairs:
        raise FileNotFoundError(f"no seq_*.npy files under {directory}")
    return pairs


def load_dataset(directory, dtype=np.float64) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every sequence_files pair, loaded: (features (T, d) of dtype, labels)."""
    pairs = []
    for npy, csv_path in sequence_files(directory):
        features = load_features(npy, dtype)
        pairs.append((features, read_label_csv(csv_path, total_frames=features.shape[0])))
    return pairs
