import argparse
import json
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phaseseg import cli, mstcnpp, synthgen, trainer
from phaseseg.annotate import read_label_csv, write_label_csv
from phaseseg.cli import main

TRAIN_FLAGS = ["--channels", "8", "--stages", "2", "--layers-prediction", "2",
               "--layers-refinement", "2", "--epochs", "3", "--lr", "3e-3"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small dataset plus a trained model shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    rc = main(["gen-synth", "--out", str(data), "--dim", "12",
               "--n-train", "4", "--n-val", "2", "--n-test", "2", "--seed", "5"])
    assert rc == 0
    run = root / "run"
    rc = main(["train", "--data", str(data), "--out", str(run), "--seed", "5",
               *TRAIN_FLAGS])
    assert rc == 0
    return {"root": root, "data": data, "run": run, "model": run / "model.bin"}


class TestGenSynth:
    def test_default_split_counts(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["gen-synth", "--out", str(out), "--dim", "8"]) == 0
        assert len(list((out / "train").glob("seq_*.npy"))) == 62
        assert len(list((out / "val").glob("seq_*.npy"))) == 8
        assert len(list((out / "test").glob("seq_*.npy"))) == 11

    def test_seed_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen-synth", "--out", str(out), "--dim", "8", "--seed", "3",
                         "--n-train", "2", "--n-val", "1", "--n-test", "1"]) == 0
        for name in ("train/seq_000.npy", "test/seq_000.npy"):
            np.testing.assert_array_equal(np.load(a / name), np.load(b / name))

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_setting_read_as_written(self, tmp_path, value):
        cfg_file = tmp_path / "gen.cfg"
        cfg_file.write_text(f"include_all_phases = {str(value).lower()}\n", encoding="utf-8")
        out = tmp_path / "ds"
        assert main(["gen-synth", "--out", str(out), "--dim", "8", "--config", str(cfg_file),
                     "--n-train", "1", "--n-val", "1", "--n-test", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["include_all_phases"] is value

    def test_missing_output_dir_created(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "ds"
        assert main(["gen-synth", "--out", str(out), "--dim", "8",
                     "--n-train", "1", "--n-val", "1", "--n-test", "1"]) == 0
        assert (out / "train" / "seq_000.npy").exists()

    def test_manifest_written(self, workspace):
        manifest = json.loads((workspace["data"] / "manifest.json").read_text())
        assert manifest["command"] == "gen-synth"
        assert manifest["config"]["dim"] == 12
        assert manifest["config_sources"]["dim"] == "flag"
        assert manifest["config_sources"]["noise_sigma"] == "default"
        # the seed is part of the resolved config; there is no top-level copy
        assert manifest["config"]["seed"] == 5 and "seed" not in manifest


class TestTrain:
    def test_artifacts_written(self, workspace):
        assert workspace["model"].exists()
        report = json.loads((workspace["run"] / "train_report.json").read_text())
        assert report["stop_epoch"] >= 1
        assert report["epochs"][0]["val_accuracy"] >= 0.0

    def test_deterministic_model_files(self, workspace, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            rc = main(["train", "--data", str(workspace["data"]), "--out", str(out),
                       "--seed", "5", *TRAIN_FLAGS])
            assert rc == 0
        assert (out1 / "model.bin").read_bytes() == (out2 / "model.bin").read_bytes()

    def test_config_file_and_flag_precedence(self, workspace, tmp_path):
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text("epochs = 2\nlr = 1e-3  # comment\nchannels = 8\n",
                            encoding="utf-8")
        out = tmp_path / "run"
        rc = main(["train", "--data", str(workspace["data"]), "--out", str(out),
                   "--config", str(cfg_file), "--lr", "2e-3",
                   "--stages", "2", "--layers-prediction", "2",
                   "--layers-refinement", "2"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 2
        assert manifest["config_sources"]["epochs"] == "config-file"
        assert manifest["config"]["lr"] == 2e-3
        assert manifest["config_sources"]["lr"] == "flag"
        assert manifest["config_sources"]["patience"] == "default"

    def test_unknown_config_key_rejected(self, workspace, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("warp_speed = 9\n", encoding="utf-8")
        rc = main(["train", "--data", str(workspace["data"]),
                   "--out", str(tmp_path / "x"), "--config", str(cfg_file)])
        assert rc == 2

    @pytest.mark.parametrize("line", ["epochs = 1e400", "epochs = 1.7", "channels = 0.5"])
    def test_non_integer_setting_exits_2(self, workspace, tmp_path, capsys, line):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(line + "\n", encoding="utf-8")
        rc = main(["train", "--data", str(workspace["data"]),
                   "--out", str(tmp_path / "x"), "--config", str(cfg_file)])
        assert rc == 2
        assert f"{line.split()[0]} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_sequence_without_counted_frame_exits_2(self, workspace, tmp_path, capsys, split):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        csv_path = data / split / "seq_000.csv"
        write_label_csv(csv_path, np.full(read_label_csv(csv_path).size, -1))
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                   *TRAIN_FLAGS])
        assert rc == 2
        assert f"{split} sequence 0 has no counted frame" in capsys.readouterr().err

    def test_bce_flag_runs(self, workspace, tmp_path):
        out = tmp_path / "bce"
        rc = main(["train", "--data", str(workspace["data"]), "--out", str(out),
                   "--loss", "bce", "--epochs", "1", *TRAIN_FLAGS[:-4]])
        assert rc == 0

    @pytest.mark.parametrize("flags, line, keys", [
        (["--gamma", "3"], None, ["gamma"]),
        (["--alpha-mode", "inverse-frequency"], None, ["alpha_mode"]),
        ([], "gamma = 2.0", ["gamma"]),
        (["--alpha-mode", "uniform"], "gamma = 0", ["gamma", "alpha_mode"]),
    ])
    def test_bce_with_focal_setting_exits_2(self, workspace, tmp_path, monkeypatch, capsys,
                                           flags, line, keys):
        # bce runs with gamma 0 and uniform alpha, so a gamma or alpha_mode
        # that is set would be ignored while the manifest records it
        fit_calls = []
        monkeypatch.setattr(trainer, "fit", lambda *args, **kwargs: fit_calls.append(args))
        if line is not None:
            cfg_file = tmp_path / "bce.cfg"
            cfg_file.write_text(line + "\n", encoding="utf-8")
            flags = [*flags, "--config", str(cfg_file)]
        out = tmp_path / "out"
        assert main(["train", "--data", str(workspace["data"]), "--out", str(out),
                     "--loss", "bce", *TRAIN_FLAGS, *flags]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in keys)
        assert not fit_calls and not out.exists()

    def test_batch_size_is_not_a_setting(self, workspace, tmp_path, capsys):
        # every optimizer step takes one sequence
        out = tmp_path / "out"
        argv = ["train", "--data", str(workspace["data"]), "--out", str(out), *TRAIN_FLAGS]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--batch-size", "2"])
        assert exc.value.code == 2
        cfg_file = tmp_path / "batch.cfg"
        cfg_file.write_text("batch_size = 2\n", encoding="utf-8")
        assert main([*argv, "--config", str(cfg_file)]) == 2
        assert "unknown config keys: ['batch_size']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_divergence_exits_3_and_keeps_report(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--data", str(workspace["data"]), "--out", str(out),
                     *TRAIN_FLAGS, "--lr", "1e300"]) == 3
        assert "numeric failure" in capsys.readouterr().err
        report = json.loads((out / "train_report.json").read_text())
        assert report["diverged"] is True
        assert report["stop_epoch"] == len(report["epochs"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert set(manifest["phase_s"]) == {"load", "fit", "hash"}
        assert manifest["artifacts"] == [str(out / "train_report.json")]
        assert not (out / "model.bin").exists()

    def test_missing_data_dir_exits_2(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2


@pytest.mark.parametrize("command, line", [
    ("train", "lr = nan"), ("train", "lr = inf"), ("train", "weight_decay = nan"),
    ("train", "weight_decay = -5"), ("train", "gamma = nan"),
    ("train", "lambda_smooth = nan"), ("train", "lambda_smooth = -1"),
    ("gen-synth", "noise_sigma = nan"), ("gen-synth", "noise_sigma = 1e308"),
    ("gen-synth", "noise_sigma = -1"), ("gen-synth", "sellar_closure_confusability = nan"),
    ("gen-synth", "sellar_closure_confusability = inf"),
    ("gen-synth", "include_all_phases = no"), ("gen-synth", "include_all_phases = 1"),
])
def test_bad_float_setting_exits_2(workspace, tmp_path, monkeypatch, capsys, command, line):
    # rejected with the key named before any epoch runs or --out is created
    fit_calls = []
    monkeypatch.setattr(trainer, "fit", lambda *args, **kwargs: fit_calls.append(args))
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    extra = (["--data", str(workspace["data"]), *TRAIN_FLAGS[:-2]] if command == "train"
             else ["--dim", "8"])
    rc = main([command, "--config", str(cfg_file), "--out", str(out), *extra])
    assert rc == 2
    assert line.split()[0] in capsys.readouterr().err
    assert not fit_calls and not out.exists()


def _inference_argv(workspace, command, out, *extra):
    """eval on the test split or segment on its first sequence, with the shared model."""
    source = (["--data", str(workspace["data"] / "test")] if command == "eval" else
              ["--ssl-features", str(workspace["data"] / "test" / "seq_000.npy")])
    return [command, "--model", str(workspace["model"]), "--out", str(out), *source, *extra]


@pytest.mark.parametrize("command", ["gen-synth", "train", "eval", "segment"])
def test_manifest_records_peak_rss(workspace, tmp_path, command):
    out = {"gen-synth": workspace["data"], "train": workspace["run"]}.get(command)
    if out is None:
        out = tmp_path / command
        assert main(_inference_argv(workspace, command, out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["peak_rss_mib"] > 0


@pytest.mark.parametrize("command, precision", [
    ("train", "float64"), ("eval", "float32"), ("segment", "float32")])
def test_manifest_records_default_precision(workspace, tmp_path, command, precision):
    out = workspace["run"] if command == "train" else tmp_path / command
    if command != "train":
        assert main(_inference_argv(workspace, command, out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["precision"] == precision
    assert manifest["config_sources"]["precision"] == "default"


@pytest.mark.parametrize("command", ["eval", "segment"])
def test_manifest_records_environment_and_phase_times(workspace, tmp_path, monkeypatch,
                                                      command):
    monkeypatch.setenv("PHASESEG_THREADS", "3")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    out = tmp_path / command
    assert main(_inference_argv(workspace, command, out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["environment"] == {
        "threads": 3, "openblas_num_threads": "1", "numpy": np.__version__,
        "blas": {"name": blas["name"], "version": blas["version"]}}
    phases = manifest["phase_s"]
    assert set(phases) == {"load", "forward", "post", "write", "hash"}
    assert all(seconds >= 0 for seconds in phases.values())
    assert sum(phases.values()) <= manifest["wall_clock_s"]
    # every command records its environment and the time it spent hashing inputs
    trained = json.loads((workspace["run"] / "manifest.json").read_text())
    assert set(trained["environment"]) == {"threads", "openblas_num_threads", "numpy", "blas"}
    assert set(trained["phase_s"]) == {"load", "fit", "save", "hash"}
    assert sum(trained["phase_s"].values()) <= trained["wall_clock_s"]


@pytest.mark.parametrize("command, bad", [
    ("segment", "model"), ("segment", "features"), ("eval", "model"), ("eval", "features"),
    ("eval", "labels"), ("train", "features"), ("train", "labels")])
def test_bad_input_exits_2_without_output_dir(workspace, tmp_path, capsys, command, bad):
    # every input is read before --out is created, so a bad one leaves nothing behind
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    model = tmp_path / "model.bin"
    shutil.copy(workspace["model"], model)
    split = data / ("train" if command == "train" else "test")
    target = {"model": model, "features": split / "seq_000.npy",
              "labels": split / "seq_000.csv"}[bad]
    if bad == "labels":  # cut at a line end: a per-frame file cut short is rejected
        lines = target.read_text(encoding="utf-8").splitlines(keepends=True)
        target.write_text("".join(lines[:len(lines) // 2]), encoding="utf-8")
    else:
        blob = target.read_bytes()
        target.write_bytes(blob[:len(blob) // 2])
    out = tmp_path / "out"
    argv = {"segment": ["segment", "--model", model, "--ssl-features", split / "seq_000.npy"],
            "eval": ["eval", "--model", model, "--data", split],
            "train": ["train", "--data", data, *TRAIN_FLAGS]}[command]
    assert main([*map(str, argv), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "truncated" in err if bad == "model" else target.name in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "segment", "parse-notes"])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_seed_exists_only_on_gen_synth_and_train(workspace, tmp_path, capsys, command, how):
    # nothing in these commands draws a random number, so neither the flag nor
    # the config key exists; both exit 2 before the output directory is made
    out = tmp_path / "out"
    if command == "parse-notes":
        notes = tmp_path / "notes.jsonl"
        notes.write_text('{"t": "00:00:10", "note": "nasal"}\n', encoding="utf-8")
        argv = ["parse-notes", "--notes", str(notes), "--out", str(out)]
    else:
        argv = _inference_argv(workspace, command, out)
    if how == "flag":
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "0"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
    else:
        cfg_file = tmp_path / "seed.cfg"
        cfg_file.write_text("seed = 0\n", encoding="utf-8")
        assert main([*argv, "--config", str(cfg_file)]) == 2
        assert "unknown config keys: ['seed']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "segment"])
@pytest.mark.parametrize("flags, line, key", [
    (["--threshold", "0"], None, "threshold"),
    (["--post", "none", "--threshold", "-3"], None, "threshold"),
    ([], "post = bogus", "post"),
    ([], "threshold = 0", "threshold"),
    ([], "precision = float16", "precision"),
])
def test_bad_inference_setting_exits_2_before_any_work(workspace, tmp_path, monkeypatch,
                                                       capsys, command, flags, line, key):
    calls = []
    for name in ("load_model", "forward"):
        monkeypatch.setattr(mstcnpp, name, lambda *args, name=name, **kw: calls.append(name))
    if line is not None:
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(line + "\n", encoding="utf-8")
        flags = [*flags, "--config", str(cfg_file)]
    out = tmp_path / "out"
    assert main(_inference_argv(workspace, command, out, *flags)) == 2
    assert key in capsys.readouterr().err
    assert not out.exists() and not calls


@pytest.mark.parametrize("command", ["train", "eval", "segment"])
def test_precision_help_names_default(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    default = {"train": cli.TRAIN_DEFAULTS, "eval": cli.EVAL_DEFAULTS,
               "segment": cli.SEGMENT_DEFAULTS}[command]["precision"]
    assert f"(default {default})" in " ".join(capsys.readouterr().out.split())


_CONFIG_DEFAULTS = [cli.GEN_DEFAULTS, cli.TRAIN_DEFAULTS, cli.EVAL_DEFAULTS,
                    cli.SEGMENT_DEFAULTS, cli.NOTES_DEFAULTS]


@st.composite
def config_files(draw):
    """(command defaults, config file bytes): mostly that command's keys, some
    empty or random keys, repeats, odd numbers, and now and then raw bytes."""
    defaults = draw(st.sampled_from(_CONFIG_DEFAULTS))
    key = st.one_of(st.sampled_from(sorted(defaults)), st.just(""), st.text(max_size=6))
    value = st.one_of(
        st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "9" * 5000,
                         "0x10", "1_000", "true", "False", "", "=", "# c"]),
        st.integers(-2**70, 2**70).map(str), st.floats().map(repr), st.text(max_size=8))
    setting = st.tuples(key, value).map(lambda kv: f"{kv[0]} = {kv[1]}".encode())
    lines = draw(st.lists(setting, max_size=8))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.binary(max_size=12)))
    return defaults, b"\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(case=config_files())
def test_fuzzed_config_file_resolves_or_raises_value_error(case):
    # ValueError (UnicodeDecodeError included) is what main turns into exit 2
    defaults, blob = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_bytes(blob)
        try:
            resolved, sources = cli.resolve_config(defaults, argparse.Namespace(config=str(path)))
        except ValueError:
            return
    assert set(resolved) == set(sources) == set(defaults)
    assert all(type(resolved[key]) is type(default)
               for key, default in defaults.items() if type(default) in (int, bool))


class TestEval:
    def test_eval_writes_reports(self, workspace, tmp_path):
        out = tmp_path / "eval"
        rc = main(["eval", "--model", str(workspace["model"]),
                   "--data", str(workspace["data"] / "test"), "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "report.json").read_text())
        assert set(payload) >= {"per_class", "macro_f1", "accuracy",
                                "confusion", "segment_counts", "post"}
        assert (out / "report.txt").exists()

    def test_report_schema_stable_across_runs(self, workspace, tmp_path):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            main(["eval", "--model", str(workspace["model"]),
                  "--data", str(workspace["data"] / "test"), "--out", str(out)])
            outs.append(json.loads((out / "report.json").read_text()))
        assert outs[0] == outs[1]

    def test_model_predictions_as_labels_scores_100(self, workspace, tmp_path):
        # relabel a split with the model's own predictions: accuracy must be 100
        model = mstcnpp.load_model(workspace["model"])
        features, _ = synthgen.load_dataset(workspace["data"] / "test")[0]
        probs = mstcnpp.forward(model, features)
        pred = np.argmax(probs[-1], axis=1)
        self_dir = tmp_path / "self"
        synthgen.save_dataset(
            [(features.astype(np.float32), pred)], self_dir)
        out = tmp_path / "eval_self"
        rc = main(["eval", "--model", str(workspace["model"]),
                   "--data", str(self_dir), "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["accuracy"] == 100.0

    def test_accumulator_post_flag(self, workspace, tmp_path):
        out = tmp_path / "eval_post"
        rc = main(["eval", "--model", str(workspace["model"]),
                   "--data", str(workspace["data"] / "test"), "--out", str(out),
                   "--post", "accumulator", "--threshold", "10"])
        assert rc == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["post"] == "accumulator"

    def test_truncated_label_csv_exits_2(self, workspace, tmp_path, capsys):
        # a per-frame label file cut short is not read as a boundary file
        split = tmp_path / "split"
        shutil.copytree(workspace["data"] / "test", split)
        csv_path = split / "seq_000.csv"
        lines = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
        csv_path.write_text("".join(lines[:len(lines) // 2]), encoding="utf-8")
        out = tmp_path / "eval"
        rc = main(["eval", "--model", str(workspace["model"]), "--data", str(split),
                   "--out", str(out)])
        assert rc == 2
        assert "seq_000.csv" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_bad_model_path_exits_2(self, workspace, tmp_path):
        rc = main(["eval", "--model", str(tmp_path / "missing.bin"),
                   "--data", str(workspace["data"] / "test"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2


class TestSegment:
    def test_outputs_cover_every_frame(self, workspace, tmp_path):
        feat_file = next((workspace["data"] / "test").glob("seq_*.npy"))
        out = tmp_path / "seg"
        rc = main(["segment", "--model", str(workspace["model"]),
                   "--ssl-features", str(feat_file), "--out", str(out),
                   "--threshold", "10"])
        assert rc == 0
        t_len = np.load(feat_file).shape[0]
        labels = read_label_csv(out / "phases.csv")
        assert labels.size == t_len
        steps = np.diff(labels)
        assert np.all((steps == 0) | (steps == 1))  # accumulator output monotone

    def test_ribbon_is_valid_svg(self, workspace, tmp_path):
        feat_file = next((workspace["data"] / "test").glob("seq_*.npy"))
        out = tmp_path / "seg"
        main(["segment", "--model", str(workspace["model"]),
              "--ssl-features", str(feat_file), "--out", str(out)])
        text = (out / "ribbon.svg").read_text(encoding="utf-8")
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        assert (out / "ribbon.csv").exists()

    @pytest.mark.parametrize("kind", ["truncated-header", "huge-channels"])
    def test_hostile_model_file_exits_2(self, workspace, tmp_path, capsys, kind):
        header = mstcnpp.MAGIC + struct.pack("<I", mstcnpp.FORMAT_VERSION)
        if kind == "truncated-header":
            blob = mstcnpp.MAGIC
        else:
            blob = header + struct.pack("<7I", 12, 2**31, 4, 4, 11, 10, 0)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob)
        feat_file = next((workspace["data"] / "test").glob("seq_*.npy"))
        rc = main(["segment", "--model", str(bad), "--ssl-features", str(feat_file),
                   "--out", str(tmp_path / "seg")])
        assert rc == 2
        assert "truncated" in capsys.readouterr().err

    def test_post_mode_from_config_validated(self, workspace, tmp_path, capsys):
        cfg_file = tmp_path / "seg.cfg"
        cfg_file.write_text("post = median\n", encoding="utf-8")
        feat_file = next((workspace["data"] / "test").glob("seq_*.npy"))
        rc = main(["segment", "--model", str(workspace["model"]), "--config", str(cfg_file),
                   "--ssl-features", str(feat_file), "--out", str(tmp_path / "seg")])
        assert rc == 2
        assert "post must be" in capsys.readouterr().err

    def test_raw_track_is_forward_argmax(self, workspace, tmp_path):
        feat_file = next((workspace["data"] / "test").glob("seq_*.npy"))
        out = tmp_path / "seg"
        assert main(["segment", "--model", str(workspace["model"]), "--post", "none",
                     "--ssl-features", str(feat_file), "--out", str(out)]) == 0
        probs = mstcnpp.forward(mstcnpp.load_model(workspace["model"]), np.load(feat_file))
        np.testing.assert_array_equal(read_label_csv(out / "phases.csv"),
                                      np.argmax(probs[-1], axis=1))


INFER_FRAMES = 2000
INFER_CFG = mstcnpp.StageConfig(in_dim=256, channels=64, n_classes=4, stages=2,
                                layers_prediction=3, layers_refinement=3)


@pytest.fixture(scope="module")
def infer_inputs(tmp_path_factory):
    """A float32 feature file and a model whose float32 sizes a test can add up."""
    root = tmp_path_factory.mktemp("infer")
    mstcnpp.save_model(mstcnpp.init(INFER_CFG, seed=0), root / "model.bin")
    features = np.random.default_rng(0).normal(size=(INFER_FRAMES, INFER_CFG.in_dim))
    np.save(root / "x.npy", features.astype(np.float32))
    return root / "model.bin", root / "x.npy"


def _segment_argv(infer_inputs, out, *extra):
    model_path, feat_path = infer_inputs
    return ["segment", "--model", str(model_path), "--ssl-features", str(feat_path),
            "--out", str(out), "--threshold", "5", *extra]


class TestFloat32Inference:
    @staticmethod
    def _check_peak_memory(infer_inputs, tmp_path, extra):
        # the parameters, the features and a few (T, F) activations, all float32:
        # a 6.9 MB bound; the default peaks at 5.5 MB and float64 at 11.0 MB
        activation = 4 * INFER_FRAMES * INFER_CFG.channels
        bound = (4 * mstcnpp._param_count(INFER_CFG) + 4 * INFER_FRAMES * INFER_CFG.in_dim
                 + 8 * activation)
        tracemalloc.start()
        try:
            assert main(_segment_argv(infer_inputs, tmp_path / "seg", *extra)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if extra:  # forced float64 inference breaks the bound, so the bound can see it
            assert peak > bound
        else:
            assert peak < bound

    @pytest.mark.parametrize("extra", [[], ["--precision", "float64"]])
    def test_segment_peak_memory_is_float32_sized(self, infer_inputs, tmp_path, extra):
        self._check_peak_memory(infer_inputs, tmp_path, extra)

    @pytest.mark.parametrize("extra", [[], ["--precision", "float64"]])
    def test_segment_peak_memory_bound_holds_in_row_blocks(self, infer_inputs, tmp_path,
                                                           monkeypatch, extra):
        # the same bound with the layers cut into two row blocks on two threads
        assert len(mstcnpp._row_blocks(INFER_FRAMES, INFER_CFG.channels, 2)) == 2
        monkeypatch.setenv("PHASESEG_THREADS", "2")
        self._check_peak_memory(infer_inputs, tmp_path, extra)

    def test_segment_outputs_equal_for_threads_1_and_3(self, infer_inputs, tmp_path,
                                                       monkeypatch):
        assert len(mstcnpp._row_blocks(INFER_FRAMES, INFER_CFG.channels, 3)) == 3
        for threads in ("1", "3"):
            monkeypatch.setenv("PHASESEG_THREADS", threads)
            assert main(_segment_argv(infer_inputs, tmp_path / threads)) == 0
        for name in ("phases.csv", "ribbon.csv", "ribbon.svg"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "3" / name).read_bytes()

    def test_default_segment_computes_in_float32(self, infer_inputs, tmp_path, monkeypatch):
        # every array into and out of forward's primitives, and the argmax input
        seen = []

        def recording(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                out = fn(*args)
                seen.extend((name, a.dtype) for a in (*args, out) if isinstance(a, np.ndarray))
                return out

            monkeypatch.setattr(module, name, wrapper)

        for name in ("conv1x1", "dilated_conv1d", "relu", "softmax_rows"):
            recording(mstcnpp, name)
        recording(cli.accumulator, "argmax_decode")
        assert main(_segment_argv(infer_inputs, tmp_path / "seg")) == 0
        assert {name for name, _ in seen} == {"conv1x1", "dilated_conv1d", "relu",
                                              "softmax_rows", "argmax_decode"}
        assert {dtype for _, dtype in seen if dtype.kind == "f"} == {np.dtype(np.float32)}
        assert ("argmax_decode", np.dtype(np.float32)) in seen

    def test_segment_float64_equals_float64_oracle(self, infer_inputs, tmp_path):
        # --precision float64 is the exact float64 path: same bytes as the
        # writers fed by a float64 forward pass
        model_path, feat_path = infer_inputs
        out = tmp_path / "seg"
        assert main(_segment_argv(infer_inputs, out, "--precision", "float64")) == 0
        probs = mstcnpp.forward(mstcnpp.load_model(model_path, np.float64),
                                synthgen.load_features(feat_path, np.float64))[-1]
        raw = np.argmax(probs, axis=1)
        final = cli.accumulator.smooth(raw, cli.accumulator.AccumulatorConfig(threshold=5))
        expected = tmp_path / "expected"
        expected.mkdir()
        write_label_csv(expected / "phases.csv", final)
        cli.evalmetrics.export_ribbon(raw, final, expected / "ribbon.svg")
        for name in ("phases.csv", "ribbon.csv", "ribbon.svg"):
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name


class TestMalformedFeatureFiles:
    """Feature files are checked where they are loaded: any bad one exits 2."""

    @staticmethod
    def _dataset_with(workspace, tmp_path, split, make_bad):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        npy = data / split / "seq_000.npy"
        np.save(npy, make_bad(np.load(npy)))
        return data

    def test_train_on_1d_features_exits_2(self, workspace, tmp_path, capsys):
        data = self._dataset_with(workspace, tmp_path, "train", lambda x: x[:, 0])
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                   *TRAIN_FLAGS])
        assert rc == 2
        assert "seq_000.npy" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_train_on_3d_features_exits_2(self, workspace, tmp_path, split):
        data = self._dataset_with(workspace, tmp_path, split, lambda x: x[:, :, None])
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                   *TRAIN_FLAGS])
        assert rc == 2

    def test_eval_on_0d_features_exits_2(self, workspace, tmp_path):
        data = self._dataset_with(workspace, tmp_path, "test", lambda x: np.array(1.0))
        rc = main(["eval", "--model", str(workspace["model"]),
                   "--data", str(data / "test"), "--out", str(tmp_path / "e")])
        assert rc == 2

    def _segment(self, workspace, tmp_path, features):
        feat_file = tmp_path / "bad.npy"
        np.save(feat_file, features)
        return main(["segment", "--model", str(workspace["model"]),
                     "--ssl-features", str(feat_file), "--out", str(tmp_path / "seg")])

    def test_segment_on_nan_features_exits_2(self, workspace, tmp_path, capsys):
        features = np.load(next((workspace["data"] / "test").glob("seq_*.npy")))
        features[3, 1] = np.nan
        assert self._segment(workspace, tmp_path, features) == 2
        err = capsys.readouterr().err
        assert "bad.npy" in err and "non-finite" in err

    def test_segment_on_empty_features_exits_2(self, workspace, tmp_path, capsys):
        assert self._segment(workspace, tmp_path, np.zeros((0, 12), np.float32)) == 2
        assert "bad.npy" in capsys.readouterr().err

    def test_segment_on_zero_byte_file_exits_2(self, workspace, tmp_path, capsys):
        feat_file = tmp_path / "bad.npy"
        feat_file.write_bytes(b"")
        rc = main(["segment", "--model", str(workspace["model"]),
                   "--ssl-features", str(feat_file), "--out", str(tmp_path / "seg")])
        assert rc == 2
        assert "bad.npy" in capsys.readouterr().err


FUZZ_IN_DIM = 3


@pytest.fixture(scope="module")
def fuzz_model(tmp_path_factory):
    cfg = mstcnpp.StageConfig(in_dim=FUZZ_IN_DIM, channels=2, n_classes=4, stages=1,
                              layers_prediction=1, layers_refinement=1)
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    mstcnpp.save_model(mstcnpp.init(cfg, seed=0), path)
    return path


@st.composite
def feature_arrays(draw):
    """Arrays of rank 0-3, sizes from 0, four dtypes, maybe one NaN or inf."""
    dtype = draw(st.sampled_from([np.float32, np.float64, np.int64, np.bool_]))
    shape = draw(st.one_of(
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
        st.tuples(st.integers(0, 6), st.just(FUZZ_IN_DIM))))
    if dtype is np.bool_:
        elements = st.booleans()
    elif dtype is np.int64:
        elements = st.integers(-1000, 1000)
    else:
        elements = st.floats(-1e3, 1e3, width=32)
    arr = draw(hnp.arrays(dtype, shape, elements=elements))
    special = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if special is not None and arr.size and dtype in (np.float32, np.float64):
        arr.flat[draw(st.integers(0, arr.size - 1))] = special
    return arr


@settings(max_examples=100, deadline=None)
@given(features=feature_arrays())
def test_segment_fuzzed_feature_files(fuzz_model, features):
    valid = (features.ndim == 2 and features.shape[0] >= 1
             and features.shape[1] == FUZZ_IN_DIM and bool(np.all(np.isfinite(features))))
    with tempfile.TemporaryDirectory() as tmp:
        feat_file = Path(tmp) / "x.npy"
        np.save(feat_file, features)
        rc = main(["segment", "--model", str(fuzz_model), "--ssl-features", str(feat_file),
                   "--out", str(Path(tmp) / "seg"), "--threshold", "2"])
    assert rc == (0 if valid else 2)


def _segment_rc(model_bytes, features_file, tmp):
    model_file = Path(tmp) / "m.bin"
    model_file.write_bytes(model_bytes)
    return main(["segment", "--model", str(model_file), "--ssl-features", str(features_file),
                 "--out", str(Path(tmp) / "seg"), "--threshold", "2"])


@pytest.fixture(scope="module")
def fuzz_features(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzzfeat") / "x.npy"
    np.save(path, np.random.default_rng(0).normal(size=(9, FUZZ_IN_DIM)))
    return path


def test_segment_truncated_model_files(fuzz_model, fuzz_features, tmp_path):
    blob = fuzz_model.read_bytes()
    for size in range(len(blob)):
        assert _segment_rc(blob[:size], fuzz_features, tmp_path) == 2, size


@settings(max_examples=150, deadline=None)
@given(fields=st.tuples(*(st.one_of(st.just(v), st.integers(0, 6), st.integers(0, 2**32 - 1))
                          for v in (FUZZ_IN_DIM, 2, 4, 1, 1, 1, 0))),
       trailing=st.binary(max_size=16))
def test_segment_fuzzed_model_files(fuzz_model, fuzz_features, fields, trailing):
    # each header field kept or replaced at random, then random trailing bytes
    blob = fuzz_model.read_bytes()
    blob = blob[:8] + struct.pack("<7I", *fields) + blob[36:] + trailing
    with tempfile.TemporaryDirectory() as tmp:
        assert _segment_rc(blob, fuzz_features, tmp) in (0, 2)


NOTE_WORDS = ["nasal", "Sphenoid", "sellar", "closure", "flap", "drill", "irrigation", "-"]


def _lines_file(draw, lines: list[str], junk) -> bytes:
    """The lines, joined; now and then one replaced by a `junk` line or a
    run of raw bytes spliced in."""
    lines = list(lines)
    if lines and draw(st.integers(0, 2)) == 0:
        lines[draw(st.integers(0, len(lines) - 1))] = draw(junk)
    blob = "\n".join(lines).encode("utf-8", "surrogatepass")
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(blob)))
        blob = blob[:at] + draw(st.binary(min_size=1, max_size=8)) + blob[at:]
    return blob


PHASE_WORDS = ["nasal", "Sphenoid", "sellar", "flap"]  # one keyword of each phase, in order


@st.composite
def notes_files(draw):
    """Mostly well-formed notes that name phases in order, with odd lines mixed in."""
    times = sorted(draw(st.lists(st.integers(0, 900), max_size=6)))
    words = st.one_of(st.sampled_from(PHASE_WORDS), st.sampled_from(["irrigation", "-", ""]))
    notes = sorted(draw(st.lists(words, min_size=len(times), max_size=len(times))),
                   key=lambda w: PHASE_WORDS.index(w) if w in PHASE_WORDS else -1)
    lines = [json.dumps({"t": f"{t // 3600:02d}:{t // 60 % 60:02d}:{t % 60:02d}", "note": w})
             for t, w in zip(times, notes)]
    timestamp = st.one_of(
        st.builds("{:02d}:{:02d}:{:02d}".format, st.integers(0, 120), st.integers(0, 70),
                  st.integers(0, 70)),
        st.text(max_size=10), st.integers(), st.floats(), st.none())
    note = st.one_of(st.lists(st.sampled_from(NOTE_WORDS), max_size=3).map(" ".join),
                     st.text(max_size=12), st.integers())
    json_value = st.recursive(st.none() | st.booleans() | st.floats() | st.integers()
                              | st.text(max_size=6),
                              lambda inner: st.lists(inner, max_size=3)
                              | st.dictionaries(st.sampled_from(["t", "note", "x"]), inner,
                                                max_size=3), max_leaves=6)
    junk = st.one_of(st.fixed_dictionaries({"t": timestamp, "note": note}).map(json.dumps),
                     json_value.map(json.dumps), st.text(max_size=20))
    return _lines_file(draw, lines, junk)


@st.composite
def lexicon_files(draw):
    """Mostly `phase: keyword, ...` lines, with odd names, keywords and lines."""
    name = st.sampled_from(["nasal", "sphenoid", "sellar", "closure"])
    keyword = st.sampled_from(NOTE_WORDS + ["adenoma", "dura"])
    if draw(st.booleans()):  # odd names and keywords too
        name, keyword = name | st.text(max_size=8), keyword | st.text(max_size=6)
    keywords = st.lists(keyword, max_size=4).map(", ".join)
    line = st.tuples(name, keywords).map(": ".join)
    junk = st.one_of(st.text(max_size=16), st.sampled_from(["# comment", "", ":", "nasal:"]))
    return _lines_file(draw, draw(st.lists(line, max_size=5)), junk)


FUZZ_FPS = ["1", "0.5", "30", "1e-9", "1e308", "0", "-1", "inf", "nan"]
FOUR_PHASE_NOTES = "".join(f'{{"t": "00:0{i}:00", "note": "{w}"}}\n' for i, w in
                           enumerate(["nasal", "sphenoid", "sellar", "closure"]))


def _parse_notes_rc(tmp, notes: bytes, lexicon: bytes | None, fps: str, frames: int) -> int:
    notes_file, lexicon_file = Path(tmp) / "notes.jsonl", Path(tmp) / "lexicon.txt"
    notes_file.write_bytes(notes)
    argv = ["parse-notes", "--notes", str(notes_file), "--out", str(Path(tmp) / "o"),
            "--fps", fps, "--frames", str(frames)]
    if lexicon is not None:
        lexicon_file.write_bytes(lexicon)
        argv += ["--lexicon", str(lexicon_file)]
    return main(argv)


@settings(max_examples=150, deadline=None)
@given(notes=notes_files(), fps=st.sampled_from(FUZZ_FPS),
       frames=st.sampled_from([0, 1, 400, 2000]))
def test_parse_notes_fuzzed_notes_files(notes, fps, frames):
    with tempfile.TemporaryDirectory() as tmp:
        assert _parse_notes_rc(tmp, notes, None, fps, frames) in (0, 2)


@settings(max_examples=150, deadline=None)
@given(lexicon=lexicon_files(), frames=st.sampled_from([0, 400]))
def test_parse_notes_fuzzed_lexicon_files(lexicon, frames):
    with tempfile.TemporaryDirectory() as tmp:
        assert _parse_notes_rc(tmp, FOUR_PHASE_NOTES.encode(), lexicon, "1", frames) in (0, 2)


FUZZ_FRAMES = 6


@st.composite
def label_files(draw):
    """Per-frame or per-boundary rows, mostly of in-range phase ids, with odd
    cells, rows and headers mixed in."""
    phase = st.integers(-1, 3)
    if draw(st.booleans()):  # out-of-range ids too
        phase = phase | st.integers(-3, 5) | st.sampled_from([2**63, 2**70, -2**63 - 1])
    if draw(st.booleans()):
        frames = range(draw(st.integers(0, FUZZ_FRAMES + 2)))
    else:
        frames = sorted(draw(st.sets(st.integers(-1, FUZZ_FRAMES + 1), max_size=4)))
    rows = ["frame,phase_id"] + [f"{t},{draw(phase)}" for t in frames]
    cell = st.one_of(st.integers(-3, 8).map(str), st.text(max_size=5),
                     st.sampled_from([str(2**70), " 2", "1.0", "", "\u0663", '"', "1_0"]))
    junk = st.one_of(st.lists(cell, max_size=3).map(",".join), st.text(max_size=14))
    return _lines_file(draw, rows, junk)


@pytest.fixture(scope="module")
def fuzz_split(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzzsplit")
    np.save(path / "seq_000.npy", np.random.default_rng(1).normal(size=(FUZZ_FRAMES, FUZZ_IN_DIM)))
    return path


@settings(max_examples=150, deadline=None)
@given(labels=label_files(), post=st.sampled_from(["none", "accumulator"]))
def test_eval_fuzzed_label_files(fuzz_model, fuzz_split, labels, post):
    (fuzz_split / "seq_000.csv").write_bytes(labels)
    with tempfile.TemporaryDirectory() as tmp:
        rc = main(["eval", "--model", str(fuzz_model), "--data", str(fuzz_split),
                   "--out", tmp, "--post", post, "--threshold", "2"])
    assert rc in (0, 2)


class TestThreadsSetting:
    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
    def test_invalid_value_exits_2(self, workspace, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("PHASESEG_THREADS", value)
        rc = main(["eval", "--model", str(workspace["model"]),
                   "--data", str(workspace["data"] / "test"), "--out", str(tmp_path / "e")])
        assert rc == 2
        assert "PHASESEG_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("affinity", [True, False])
    def test_unset_means_the_usable_cores(self, workspace, tmp_path, monkeypatch, affinity):
        monkeypatch.delenv("PHASESEG_THREADS", raising=False)
        if affinity:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 2, 5})
        else:  # a platform without the affinity API
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        out = tmp_path / "e"
        rc = main(["eval", "--model", str(workspace["model"]),
                   "--data", str(workspace["data"] / "test"), "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "manifest.json").read_text())["environment"]["threads"] == 3

    def test_valid_value_accepted(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("PHASESEG_THREADS", "2")
        rc = main(["eval", "--model", str(workspace["model"]),
                   "--data", str(workspace["data"] / "test"), "--out", str(tmp_path / "e")])
        assert rc == 0


class TestParseNotes:
    def test_worked_example(self, tmp_path):
        notes = tmp_path / "notes.jsonl"
        notes.write_text('{"t": "00:00:10", "note": "start nasal stage"}\n'
                         '{"t": "00:20:00", "note": "sphenoid drilling begins"}\n',
                         encoding="utf-8")
        out = tmp_path / "parsed"
        rc = main(["parse-notes", "--notes", str(notes), "--out", str(out),
                   "--fps", "1.0", "--frames", "1500"])
        assert rc == 0
        rows = (out / "boundaries.csv").read_text().strip().splitlines()
        assert rows == ["frame,phase_id", "10,0", "1200,1"]
        labels = read_label_csv(out / "labels.csv")
        assert labels.size == 1500
        assert (labels[:10] == -1).all()
        assert (labels[10:1200] == 0).all()
        assert (labels[1200:] == 1).all()

    def test_malformed_timestamp_exits_2_with_line(self, tmp_path, capsys):
        notes = tmp_path / "notes.jsonl"
        notes.write_text('{"t": "00:00:10", "note": "nasal"}\n'
                         '{"t": "00:99:00", "note": "sphenoid"}\n', encoding="utf-8")
        rc = main(["parse-notes", "--notes", str(notes), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert ":2" in capsys.readouterr().err

    def test_no_phases_found_exits_2(self, tmp_path, capsys):
        notes = tmp_path / "notes.jsonl"
        notes.write_text('{"t": "00:00:10", "note": "irrigation"}\n', encoding="utf-8")
        rc = main(["parse-notes", "--notes", str(notes), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "no phases found" in capsys.readouterr().err

    @pytest.mark.parametrize("fps", ["inf", "nan", "0", "-1", "1e308", "fast"])
    def test_bad_fps_exits_2_before_writing(self, tmp_path, capsys, fps):
        # 1e308 is finite, but a note at 10 s has no frame index at that rate
        notes = tmp_path / "notes.jsonl"
        notes.write_text('{"t": "00:00:10", "note": "nasal"}\n', encoding="utf-8")
        cfg_file = tmp_path / "notes.cfg"
        cfg_file.write_text(f"fps = {fps}\n", encoding="utf-8")
        out = tmp_path / "o"
        rc = main(["parse-notes", "--notes", str(notes), "--out", str(out),
                   "--config", str(cfg_file), "--frames", "100"])
        assert rc == 2
        assert "fps" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_frames_exits_2_before_writing(self, tmp_path, capsys):
        # not read as 0 (boundaries only)
        notes = tmp_path / "notes.jsonl"
        notes.write_text('{"t": "00:00:10", "note": "nasal"}\n', encoding="utf-8")
        out = tmp_path / "o"
        rc = main(["parse-notes", "--notes", str(notes), "--out", str(out), "--frames", "-5"])
        assert rc == 2
        assert "frames" in capsys.readouterr().err
        assert not out.exists()

    def test_lexicon_override(self, tmp_path):
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("nasal: corridor-entry\n", encoding="utf-8")
        notes = tmp_path / "notes.jsonl"
        notes.write_text('{"t": "00:00:05", "note": "corridor-entry begins"}\n',
                         encoding="utf-8")
        out = tmp_path / "parsed"
        rc = main(["parse-notes", "--notes", str(notes), "--out", str(out),
                   "--lexicon", str(lexicon)])
        assert rc == 0


class TestProcess:
    def test_console_help_runs(self):
        proc = subprocess.run([sys.executable, "-m", "phaseseg.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gen-synth" in proc.stdout
