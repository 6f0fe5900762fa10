import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseseg.annotate import (
    LabelTimeline,
    NoteConflictError,
    NoteParseError,
    PhaseOntology,
    PhaseOrderError,
    build_timeline,
    extract_boundaries,
    format_timestamp,
    parse_timestamp,
    read_label_csv,
    read_notes_file,
    seconds_to_frame,
    write_label_csv,
)


class TestTimestamp:
    def test_zero(self):
        assert parse_timestamp("00:00:00") == 0

    def test_worked_example(self):
        assert parse_timestamp("01:02:03") == 3723

    @pytest.mark.parametrize("bad", ["00:99:00", "00:00:61", "1:2:3x", "00-00-00",
                                     "00:00", "00:00:00.5", "aa:bb:cc", ""])
    def test_malformed_rejected(self, bad):
        with pytest.raises(NoteParseError):
            parse_timestamp(bad)

    def test_long_procedures_allowed(self):
        assert parse_timestamp("27:00:01") == 27 * 3600 + 1

    @given(st.integers(0, 359999))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, seconds):
        assert parse_timestamp(format_timestamp(seconds)) == seconds

    def test_format_is_zero_padded(self):
        assert format_timestamp(3723) == "01:02:03"

    def test_parse_then_format_canonicalizes(self):
        assert format_timestamp(parse_timestamp("1:02:03")) == "01:02:03"


class TestSecondsToFrame:
    def test_worked_example(self):
        assert seconds_to_frame(100, 15) == 1500

    def test_zero(self):
        assert seconds_to_frame(0, 30) == 0

    def test_unit_fps(self):
        assert seconds_to_frame(10, 1) == 10

    def test_floors_fractional(self):
        assert seconds_to_frame(10, 0.3) == 3

    def test_rejects_nonpositive_fps(self):
        with pytest.raises(ValueError):
            seconds_to_frame(5, 0)

    @pytest.mark.parametrize("fps", [float("inf"), float("nan"), -1.0])
    def test_rejects_nonfinite_fps(self, fps):
        with pytest.raises(ValueError, match="fps must be finite"):
            seconds_to_frame(5, fps)

    def test_rejects_overflowing_frame(self):
        # 1e308 fps is finite, but 10 s of it is not a frame index
        with pytest.raises(ValueError, match="beyond any frame index"):
            seconds_to_frame(10, 1e308)


class TestOntology:
    def test_default_order(self):
        onto = PhaseOntology()
        assert onto.names == ("nasal", "sphenoid", "sellar", "closure")
        assert onto.n_phases == 4

    def test_match_case_insensitive(self):
        onto = PhaseOntology()
        assert onto.match("START NASAL STAGE") == 0
        assert onto.match("Sphenoid drilling begins") == 1

    def test_unmatched_returns_none(self):
        assert PhaseOntology().match("irrigation") is None

    def test_ambiguous_note_conflicts(self):
        with pytest.raises(NoteConflictError):
            PhaseOntology().match("nasal then sphenoid work")

    def test_lexicon_file_override(self, tmp_path):
        path = tmp_path / "lexicon.txt"
        path.write_text("sellar: adenoma, debulking\n# comment\n", encoding="utf-8")
        onto = PhaseOntology.from_file(path)
        assert onto.match("adenoma debulking") == 2
        assert onto.match("nasal") == 0  # other phases keep defaults

    def test_lexicon_file_rejects_unknown_phase(self, tmp_path):
        path = tmp_path / "lexicon.txt"
        path.write_text("opening: x\n", encoding="utf-8")
        with pytest.raises(NoteParseError):
            PhaseOntology.from_file(path)


class TestExtractBoundaries:
    def test_worked_example(self):
        notes = [("00:00:10", "start nasal stage"),
                 ("00:20:00", "sphenoid drilling begins")]
        assert extract_boundaries(notes) == [(10, 0), (1200, 1)]

    def test_empty_notes(self):
        assert extract_boundaries([]) == []

    def test_unmatched_notes_ignored(self):
        notes = [("00:00:05", "irrigation"), ("00:01:00", "nasal corridor")]
        assert extract_boundaries(notes) == [(60, 0)]

    def test_duplicate_phase_collapses_to_earliest(self):
        notes = [("00:05:00", "more nasal work"),
                 ("00:01:00", "nasal entry"),
                 ("00:20:00", "sphenoid ostium")]
        assert extract_boundaries(notes) == [(60, 0), (1200, 1)]

    def test_input_order_invariance(self):
        notes = [("00:20:00", "sphenoid ostium"),
                 ("00:00:10", "nasal entry"),
                 ("00:40:00", "tumor resection")]
        forward_order = extract_boundaries(notes)
        assert extract_boundaries(list(reversed(notes))) == forward_order

    def test_out_of_order_phases_rejected(self):
        notes = [("00:10:00", "sphenoid ostium"), ("00:20:00", "nasal corridor")]
        with pytest.raises(PhaseOrderError, match="nasal"):
            extract_boundaries(notes)

    def test_same_timestamp_conflict(self):
        notes = [("00:10:00", "sphenoid ostium"), ("00:10:00", "tumor out")]
        with pytest.raises(NoteConflictError):
            extract_boundaries(notes)


class TestBuildTimeline:
    def test_worked_interval_split(self):
        tl = build_timeline([(0, 0), (100, 1)], total_frames=150, fps=1.0)
        assert (tl.labels[:100] == 0).all()
        assert (tl.labels[100:] == 1).all()
        assert not tl.ignore.any()

    def test_single_boundary_covers_everything(self):
        tl = build_timeline([(0, 2)], total_frames=40, fps=1.0)
        assert (tl.labels == 2).all()

    def test_leading_frames_ignore_masked(self):
        tl = build_timeline([(10, 0)], total_frames=30, fps=1.0)
        assert tl.ignore[:10].all()
        assert (tl.labels[:10] == -1).all()
        assert (tl.labels[10:] == 0).all()

    def test_partition_covers_all_frames(self):
        tl = build_timeline([(5, 0), (20, 1), (31, 3)], total_frames=50, fps=1.0)
        assert tl.num_frames == 50
        labeled = tl.labels >= 0
        assert np.array_equal(labeled, ~tl.ignore)
        kept = tl.labels[labeled]
        assert np.all(np.diff(kept) >= 0)

    def test_boundary_beyond_sequence_rejected(self):
        with pytest.raises(ValueError):
            build_timeline([(100, 0)], total_frames=50, fps=1.0)

    def test_fps_scales_frames(self):
        tl = build_timeline([(10, 0), (20, 1)], total_frames=400, fps=15.0)
        assert tl.boundaries == ((150, 0), (300, 1))

    def test_regressing_phases_rejected(self):
        with pytest.raises(ValueError):
            build_timeline([(0, 1), (10, 0)], total_frames=20, fps=1.0)


class TestFileIO:
    def test_notes_round_trip(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_text('{"t": "00:00:10", "note": "nasal entry"}\n'
                        '\n'
                        '{"t": "00:20:00", "note": "sphenoid ostium"}\n',
                        encoding="utf-8")
        notes = read_notes_file(path)
        assert notes == [("00:00:10", "nasal entry"), ("00:20:00", "sphenoid ostium")]
        assert extract_boundaries(notes) == [(10, 0), (1200, 1)]

    def test_notes_error_carries_line_number(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_text('{"t": "00:00:10", "note": "ok nasal"}\n'
                        '{"t": "00:99:00", "note": "bad"}\n', encoding="utf-8")
        with pytest.raises(NoteParseError, match=":2"):
            read_notes_file(path)

    def test_notes_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(NoteParseError, match=":1"):
            read_notes_file(path)

    def test_label_csv_expanded_round_trip(self, tmp_path):
        labels = np.array([-1, -1, 0, 0, 1, 2, 2])
        path = tmp_path / "labels.csv"
        write_label_csv(path, labels)
        np.testing.assert_array_equal(read_label_csv(path), labels)

    def test_label_csv_boundary_round_trip(self, tmp_path):
        # boundary-mode files are read, not written: one row per boundary
        tl = build_timeline([(2, 0), (4, 1)], total_frames=7, fps=1.0)
        path = tmp_path / "labels.csv"
        path.write_text("frame,phase_id\n" + "".join(f"{f},{p}\n" for f, p in tl.boundaries),
                        encoding="utf-8")
        np.testing.assert_array_equal(read_label_csv(path, total_frames=7), tl.labels)

    @pytest.mark.parametrize("keep", [2, 5, 7])
    def test_truncated_per_frame_csv_rejected(self, tmp_path, keep):
        # a per-frame file cut short repeats a phase in consecutive rows,
        # which no boundary-mode file does
        labels = np.array([0, 0, 1, 1, 2, 3, 3, 3])
        path = tmp_path / "labels.csv"
        write_label_csv(path, labels)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:1 + keep]), encoding="utf-8")
        with pytest.raises(NoteParseError, match="labels.csv.*repeats phase_id"):
            read_label_csv(path, total_frames=8)

    def test_boundary_csv_repeated_phase_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("frame,phase_id\n0,-1\n3,-1\n5,2\n", encoding="utf-8")
        with pytest.raises(NoteParseError, match="frame 3 repeats phase_id -1"):
            read_label_csv(path, total_frames=9)

    @pytest.mark.parametrize("row", ["-1,0", "0,-2", f"0,{2**63}", f"0,{2**70}"])
    def test_label_csv_rejects_out_of_range_rows(self, tmp_path, row):
        path = tmp_path / "labels.csv"
        path.write_text(f"frame,phase_id\n{row}\n", encoding="utf-8")
        with pytest.raises(NoteParseError, match=":2"):
            read_label_csv(path, total_frames=3)

    def test_label_csv_oversized_field_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("frame,phase_id\n0," + "1" * 200_000 + "\n", encoding="utf-8")
        with pytest.raises(NoteParseError, match="labels.csv"):
            read_label_csv(path)

    def test_notes_nested_too_deeply_rejected(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_text("[" * 100_000 + "\n", encoding="utf-8")
        with pytest.raises(NoteParseError, match=":1"):
            read_notes_file(path)

    def test_label_csv_header_required(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0,1\n", encoding="utf-8")
        with pytest.raises(NoteParseError):
            read_label_csv(path)

    def test_timeline_type_invariants(self):
        tl = build_timeline([(0, 0), (3, 1)], total_frames=6, fps=1.0)
        assert isinstance(tl, LabelTimeline)
        assert tl.fps == 1.0
