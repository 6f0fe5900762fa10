"""Phase ontology, operative-note parsing and weak-label timeline building.

Surgeon notes arrive as (HH:MM:SS, free text) records. A keyword lexicon maps
each note to a phase of the fixed ordered ontology; matched notes become
phase boundaries in seconds, then frames. Frames before the first boundary
are ignore-masked rather than guessed, since recordings may begin mid-phase.

File formats:
  notes    - one JSON object per line: {"t": "HH:MM:SS", "note": "..."}
  lexicon  - lines of the form  phase_name: keyword1, keyword2
  labels   - CSV with header frame,phase_id; one row per frame (ignored
             frames carry phase_id -1), which is what write_label_csv
             writes, or one row per boundary, which read_label_csv also reads;
             consecutive boundary rows differ in phase_id
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field

import numpy as np

PHASE_NAMES = ("nasal", "sphenoid", "sellar", "closure")

DEFAULT_LEXICON = {
    "nasal": ("nasal", "turbinate", "septum", "decongestion"),
    "sphenoid": ("sphenoid", "ostium", "drill", "sinus"),
    "sellar": ("sellar", "sella", "tumor", "resection", "dura"),
    "closure": ("closure", "flap", "reconstruction", "graft"),
}


class NoteParseError(ValueError):
    """A timestamp or note record is malformed."""


class NoteConflictError(ValueError):
    """Two different phases claim the same timestamp."""


class PhaseOrderError(ValueError):
    """Extracted phases violate the fixed procedural order."""


@dataclass(frozen=True)
class PhaseOntology:
    """Ordered phase names with a per-phase keyword lexicon."""

    names: tuple[str, ...] = PHASE_NAMES
    lexicon: dict = field(default_factory=lambda: dict(DEFAULT_LEXICON))

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("phase names must be unique")
        for name in self.names:
            if not self.lexicon.get(name):
                raise ValueError(f"phase {name!r} has no keywords")

    @property
    def n_phases(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def match(self, text: str) -> int | None:
        """Phase index whose keywords appear in text (case-insensitive).

        Returns None when nothing matches; raises NoteConflictError when
        keywords of two different phases both match.
        """
        lowered = text.lower()
        hits = [i for i, name in enumerate(self.names)
                if any(kw.lower() in lowered for kw in self.lexicon[name])]
        if not hits:
            return None
        if len(hits) > 1:
            names = ", ".join(self.names[i] for i in hits)
            raise NoteConflictError(f"note matches multiple phases ({names}): {text!r}")
        return hits[0]

    @classmethod
    def from_file(cls, path) -> "PhaseOntology":
        """Load a lexicon override; phase order stays fixed."""
        lexicon = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if ":" not in line:
                    raise NoteParseError(f"{path}:{lineno}: expected 'phase: kw1, kw2'")
                name, kws = line.split(":", 1)
                name = name.strip()
                if name not in PHASE_NAMES:
                    raise NoteParseError(f"{path}:{lineno}: unknown phase {name!r}")
                keywords = tuple(k.strip() for k in kws.split(",") if k.strip())
                if not keywords:
                    raise NoteParseError(f"{path}:{lineno}: phase {name!r} has no keywords")
                lexicon[name] = keywords
        merged = dict(DEFAULT_LEXICON)
        merged.update(lexicon)
        return cls(lexicon=merged)


_TS_RE = re.compile(r"^(\d{1,3}):(\d{2}):(\d{2})$")


def parse_timestamp(s: str) -> int:
    """HH:MM:SS -> total seconds. Rejects fractional or out-of-range fields."""
    m = _TS_RE.match(s.strip())
    if not m:
        raise NoteParseError(f"malformed timestamp {s!r}: expected HH:MM:SS")
    hh, mm, ss = (int(g) for g in m.groups())
    if mm >= 60:
        raise NoteParseError(f"malformed timestamp {s!r}: minutes field {mm} not in [0, 60)")
    if ss >= 60:
        raise NoteParseError(f"malformed timestamp {s!r}: seconds field {ss} not in [0, 60)")
    return 3600 * hh + 60 * mm + ss


def format_timestamp(seconds: int) -> str:
    """Inverse of parse_timestamp; canonical zero-padded HH:MM:SS."""
    if seconds < 0:
        raise ValueError(f"seconds must be >= 0, got {seconds}")
    hh, rem = divmod(int(seconds), 3600)
    mm, ss = divmod(rem, 60)
    return f"{hh:02d}:{mm:02d}:{ss:02d}"


def seconds_to_frame(seconds: float, fps: float) -> int:
    """Frame index of a wall-clock time at the working frame rate."""
    if not (np.isfinite(fps) and fps > 0):
        raise ValueError(f"fps must be finite and > 0, got {fps}")
    frame = np.floor(seconds * fps)
    if not np.isfinite(frame):
        raise ValueError(f"{seconds} s at {fps} fps is beyond any frame index")
    return int(frame)


def extract_boundaries(notes, ontology: PhaseOntology = PhaseOntology()):
    """Keyword-match (HH:MM:SS, text) notes to phases; returns sorted
    [(seconds, phase_id)].

    Notes matching no phase are ignored; consecutive duplicates collapse to
    the earliest timestamp; out-of-order phase mentions raise PhaseOrderError
    listing the offenders, and two phases at one timestamp raise
    NoteConflictError.
    """
    matched = []
    for timestamp, text in notes:
        phase = ontology.match(text)
        if phase is None:
            continue
        matched.append((parse_timestamp(timestamp), phase))
    matched.sort(key=lambda pair: (pair[0], pair[1]))

    for (t1, p1), (t2, p2) in zip(matched, matched[1:]):
        if t1 == t2 and p1 != p2:
            raise NoteConflictError(
                f"phases {ontology.names[p1]!r} and {ontology.names[p2]!r} "
                f"both claimed at {format_timestamp(t1)}")

    boundaries = []
    for ts, phase in matched:
        if boundaries and phase == boundaries[-1][1]:
            continue  # duplicate consecutive phase: keep the earliest mention
        boundaries.append((ts, phase))

    offenders = [(ts, phase) for (_, prev), (ts, phase) in zip(boundaries, boundaries[1:])
                 if phase < prev]
    if offenders:
        desc = "; ".join(f"{ontology.names[p]} at {format_timestamp(t)}" for t, p in offenders)
        raise PhaseOrderError(f"phase mentions out of procedural order: {desc}")
    return boundaries


@dataclass(frozen=True)
class LabelTimeline:
    """Per-frame weak labels with an ignore mask for unlabeled leading frames."""

    labels: np.ndarray   # int64, -1 on ignored frames
    ignore: np.ndarray   # bool, True where the frame is excluded
    fps: float
    boundaries: tuple    # ((frame, phase_id), ...)

    @property
    def num_frames(self) -> int:
        return self.labels.size


def build_timeline(boundaries, total_frames: int, fps: float,
                   ontology: PhaseOntology = PhaseOntology()) -> LabelTimeline:
    """Expand (seconds, phase) boundaries into per-frame labels.

    Each boundary labels [frame_i, frame_{i+1}); the last phase extends to
    total_frames; frames before the first boundary are ignore-masked.
    """
    if total_frames < 1:
        raise ValueError(f"total_frames must be >= 1, got {total_frames}")
    labels = np.full(total_frames, -1, dtype=np.int64)
    frame_bounds = []
    for seconds, phase in boundaries:
        frame = seconds_to_frame(seconds, fps)
        if frame >= total_frames:
            raise ValueError(
                f"boundary at {format_timestamp(seconds)} maps to frame {frame}, "
                f"beyond the {total_frames}-frame sequence")
        if not 0 <= phase < ontology.n_phases:
            raise ValueError(f"phase id {phase} outside the ontology")
        frame_bounds.append((frame, phase))

    for (f1, p1), (f2, p2) in zip(frame_bounds, frame_bounds[1:]):
        if f2 <= f1:
            raise ValueError(f"boundary frames must strictly increase, got {f1} then {f2}")
        if p2 <= p1:
            raise ValueError(f"boundary phases must strictly increase, got {p1} then {p2}")

    for i, (frame, phase) in enumerate(frame_bounds):
        end = frame_bounds[i + 1][0] if i + 1 < len(frame_bounds) else total_frames
        labels[frame:end] = phase
    ignore = labels < 0
    return LabelTimeline(labels=labels, ignore=ignore, fps=fps,
                         boundaries=tuple(frame_bounds))


# ---------------------------------------------------------------------------
# file IO
# ---------------------------------------------------------------------------

def read_notes_file(path) -> list[tuple[str, str]]:
    """Parse a JSON-lines notes file into (timestamp, text) pairs; errors carry
    the offending line number."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise NoteParseError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from None
            except RecursionError:
                raise NoteParseError(f"{path}:{lineno}: JSON nested too deeply") from None
            if not isinstance(obj, dict) or "t" not in obj or "note" not in obj:
                raise NoteParseError(f"{path}:{lineno}: expected {{\"t\": ..., \"note\": ...}}")
            timestamp = str(obj["t"])
            try:
                parse_timestamp(timestamp)  # validate eagerly so the line number is known
            except NoteParseError as exc:
                raise NoteParseError(f"{path}:{lineno}: {exc}") from None
            records.append((timestamp, str(obj["note"])))
    return records


def write_label_csv(path, labels: np.ndarray) -> None:
    """Write a per-frame label array as frame,phase_id rows, one per frame."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "phase_id"])
        for frame, phase in enumerate(labels):
            writer.writerow([frame, int(phase)])


_MAX_PHASE_ID = np.iinfo(np.int64).max


def read_label_csv(path, total_frames: int | None = None) -> np.ndarray:
    """Read a label CSV (either mode) back into a per-frame int array.

    Frames are >= 0 and phase ids >= -1 (-1 marks an ignored frame); in
    boundary mode, consecutive rows differ in phase_id.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["frame", "phase_id"]:
                raise NoteParseError(f"{path}: expected header 'frame,phase_id'")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    frame, phase = int(row[0]), int(row[1])
                except (ValueError, IndexError):
                    raise NoteParseError(f"{path}:{lineno}: malformed row {row!r}") from None
                if frame < 0 or not -1 <= phase <= _MAX_PHASE_ID:
                    raise NoteParseError(f"{path}:{lineno}: frame must be >= 0 and phase_id "
                                         f"an int64 >= -1, got {row!r}")
                rows.append((frame, phase))
        except csv.Error as exc:  # e.g. a field beyond csv.field_size_limit()
            raise NoteParseError(f"{path}: {exc}") from None
    if not rows:
        raise NoteParseError(f"{path}: no label rows")
    frames = [f for f, _ in rows]
    if any(b <= a for a, b in zip(frames, frames[1:])):
        raise NoteParseError(f"{path}: frame column must be strictly increasing")
    is_expanded = frames == list(range(len(frames)))
    if is_expanded and (total_frames is None or total_frames == len(rows)):
        return np.array([p for _, p in rows], dtype=np.int64)
    if total_frames is None:
        raise NoteParseError(f"{path}: boundary-mode CSV needs total_frames")
    if frames[-1] >= total_frames:
        raise NoteParseError(f"{path}: boundary frame {frames[-1]} beyond {total_frames} frames")
    # a row that repeats its predecessor's phase is no boundary: most likely a
    # per-frame file cut short, whose last phase would otherwise run to the end
    for (_, prev), (frame, phase) in zip(rows, rows[1:]):
        if phase == prev:
            raise NoteParseError(
                f"{path}: {len(rows)} rows for {total_frames} frames, and the row at "
                f"frame {frame} repeats phase_id {phase}, so it is no boundary "
                f"(a per-frame file cut short?)")
    labels = np.full(total_frames, -1, dtype=np.int64)
    for i, (frame, phase) in enumerate(rows):
        end = rows[i + 1][0] if i + 1 < len(rows) else total_frames
        labels[frame:end] = phase
    return labels
