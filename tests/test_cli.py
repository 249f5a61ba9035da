"""Command-line surface: subcommands, exit codes, pipeline composability."""

import argparse
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from respden.checkpoint import (
    checkpoint_from_model, load_checkpoint, model_from_checkpoint, save_checkpoint,
)
from respden.cli import _add_config_flags, main
from respden.config import RunConfig
from respden.errors import UsageError
from respden.model import Model, seed_stream
from respden.report import ablation_report, render_ablation_table
from respden.train import evaluate_split, prepare_data
from respden.wavio import MAX_SAMPLE_RATE, write_wav

from crafted_checkpoints import MALFORMED

TINY = [
    "--dim", "32", "--heads", "4", "--layers", "1", "--mask-hidden", "4",
    "--train-per-class", "2", "--test-per-class", "1",
    "--train-subjects", "2", "--test-subjects", "1",
    "--batch", "4", "--seed", "3",
]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSynthCommand:
    def test_writes_dataset(self, tmp_path, capsys):
        code, out, _ = run(["synth", "--out-dir", str(tmp_path / "ds"), *TINY], capsys)
        assert code == 0
        assert (tmp_path / "ds" / "split.txt").exists()
        wavs = [f for f in os.listdir(tmp_path / "ds") if f.endswith(".wav")]
        assert len(wavs) == 12  # (2 train + 1 test) per class x 4 classes


class TestTrainEvalCommands:
    def test_train_then_eval_roundtrip(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        code, out, err = run(["train", "--epochs", "1", "--out-dir", out_dir, *TINY], capsys)
        assert code == 0, err
        assert os.path.exists(os.path.join(out_dir, "checkpoint.bin"))
        log_path = os.path.join(out_dir, "metrics.jsonl")
        lines = Path(log_path).read_text(encoding="utf-8").strip().split("\n")
        assert json.loads(lines[0])["type"] == "header"
        assert len(lines) == 2  # header + one epoch

        code, out, err = run(["eval", "--checkpoint", os.path.join(out_dir, "checkpoint.bin"),
                              "--split", "test"], capsys)
        assert code == 0, err
        assert "Sp/Se/Score" in out

    def test_zero_epoch_train_eval_equals_fresh_init(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run0")
        code, _, err = run(["train", "--epochs", "0", "--out-dir", out_dir, *TINY], capsys)
        assert code == 0, err
        ckpt = load_checkpoint(os.path.join(out_dir, "checkpoint.bin"))
        model = model_from_checkpoint(ckpt)
        cfg = model.cfg
        fresh = Model(cfg, rng=seed_stream(cfg.seed, "init"))
        for name, p in fresh.params.items():
            np.testing.assert_array_equal(model.params[name].data, p.data)
        data = prepare_data(cfg)
        a = evaluate_split(model, data, "test")
        b = evaluate_split(fresh, data, "test")
        np.testing.assert_array_equal(a.confusion, b.confusion)

    def test_train_on_disk_dataset(self, tmp_path, capsys):
        ds = str(tmp_path / "ds")
        code, _, _ = run(["synth", "--out-dir", ds, *TINY], capsys)
        assert code == 0
        out_dir = str(tmp_path / "run")
        code, _, err = run(["train", "--epochs", "1", "--dataset", ds,
                            "--out-dir", out_dir, *TINY], capsys)
        assert code == 0, err

    def test_eval_dataset_without_split_file_reads_its_own(self, tmp_path, capsys):
        # the training run's --split-file lists the first corpus only
        first, second = str(tmp_path / "first"), str(tmp_path / "second")
        assert run(["synth", "--out-dir", first, *TINY], capsys)[0] == 0
        assert run(["synth", "--out-dir", second, *TINY, "--test-per-class", "2"], capsys)[0] == 0
        split_file = str(tmp_path / "first-split.txt")
        shutil.move(os.path.join(first, "split.txt"), split_file)
        out_dir = str(tmp_path / "run")
        code, _, err = run(["train", "--epochs", "0", "--dataset", first, "--split-file", split_file,
                            "--out-dir", out_dir, *TINY], capsys)
        assert code == 0, err
        code, out, err = run(["eval", "--checkpoint", os.path.join(out_dir, "checkpoint.bin"),
                              "--dataset", second], capsys)
        assert code == 0, err
        confusion = out.split("Sp/Se/Score")[0]
        assert sum(int(v) for v in re.findall(r"\d+", confusion)) == 8  # 2 test clips per class


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        code, _, err = run(["train", "--beta", "1.5"], capsys)
        assert code == 2
        assert "beta" in err

    def test_nan_snr_bound_is_2(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, _, err = run(["train", "--epochs", "0", "--out-dir", str(out_dir), *TINY,
                            "--snr-lo", "nan"], capsys)
        assert code == 2
        assert err.startswith("error:") and "snr_lo is NaN" in err and "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "gradcheck"])
    def test_negative_seed_is_2(self, command, tmp_path, capsys):
        argv = {"train": ["train", "--epochs", "0", "--out-dir", str(tmp_path / "run"), *TINY],
                "eval": ["eval", "--checkpoint", str(tmp_path / "ckpt.bin")],
                "gradcheck": ["gradcheck"]}[command]
        if command == "eval":
            cfg = RunConfig(dim=32, heads=4, layers=1, mask_hidden=4)
            save_checkpoint(checkpoint_from_model(Model(cfg), epoch=0), argv[-1])
        code, out, err = run([*argv, "--seed", "-1"], capsys)
        assert code == 2
        assert err.startswith("error:") and "seed" in err

    @pytest.mark.parametrize("which", ["annotation", "split", "config"])
    def test_not_utf8_text_input(self, which, tmp_path, capsys):
        ds = tmp_path / "ds"
        code, _, _ = run(["synth", "--out-dir", str(ds), *TINY], capsys)
        assert code == 0
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("epochs = 1\n")
        bad = {"annotation": sorted(ds.glob("*.txt"))[0], "split": ds / "split.txt",
               "config": cfg_file}[which]
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        code, _, err = run(["train", "--config", str(cfg_file), "--dataset", str(ds),
                            "--out-dir", str(tmp_path / "run"), *TINY], capsys)
        assert code == (2 if which == "config" else 3)
        assert err.startswith("error:") and "UTF-8" in err

    @pytest.mark.parametrize("start,end", [("nan", "1.0"), ("0.0", "inf"), ("-1.0", "1.0"),
                                           ("-1.0", "7.5"), ("0.0", "1e305")])
    def test_bad_cycle_times_are_3(self, start, end, tmp_path, capsys):
        ds = tmp_path / "ds"
        code, _, _ = run(["synth", "--out-dir", str(ds), *TINY], capsys)
        assert code == 0
        ann = sorted(ds.glob("*.txt"))[0]
        ann.write_text(f"{start}\t{end}\t0\t0\n" + ann.read_text())
        code, _, err = run(["train", "--epochs", "1", "--dataset", str(ds),
                            "--out-dir", str(tmp_path / "run"), *TINY], capsys)
        assert code == 3
        assert err.startswith("error:") and f"{ann}:1:" in err and "Traceback" not in err

    def test_unknown_flag_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--warp-speed", "9"])
        assert exc.value.code == 2

    def test_retired_bias_loss_flag_is_2(self, capsys):
        # beta = 0 is the bias-loss ablation
        with pytest.raises(SystemExit) as exc:
            main(["train", "--no-bias-loss"])
        assert exc.value.code == 2

    def test_missing_checkpoint_is_3(self, capsys):
        code, _, err = run(["eval", "--checkpoint", "/no/such/file.bin"], capsys)
        assert code == 3

    def test_corrupt_checkpoint_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code, _, err = run(["eval", "--checkpoint", str(bad)], capsys)
        assert code == 3
        assert "magic" in err

    def test_non_finite_checkpoint_is_3(self, tmp_path, capsys):
        cfg = RunConfig(dim=32, heads=4, layers=1, mask_hidden=4)
        ckpt = checkpoint_from_model(Model(cfg), epoch=0)
        ckpt.params["pos"][0, 0] = np.nan
        path = tmp_path / "nan.bin"
        save_checkpoint(ckpt, str(path))
        code, _, err = run(["eval", "--checkpoint", str(path)], capsys)
        assert code == 3
        assert err.startswith("error:") and "pos" in err

    @pytest.mark.parametrize("fault, message", [("misshaped", "'pos' has shape (3,)"),
                                                ("missing", "missing parameter 'pos'")])
    def test_misshaped_or_missing_checkpoint_tensor_is_3(self, fault, message, tmp_path, capsys):
        cfg = RunConfig(dim=32, heads=4, layers=1, mask_hidden=4)
        ckpt = checkpoint_from_model(Model(cfg), epoch=0)
        if fault == "misshaped":
            ckpt.params["pos"] = np.zeros(3)
        else:
            del ckpt.params["pos"]
        path = tmp_path / f"{fault}.bin"
        save_checkpoint(ckpt, str(path))
        code, _, err = run(["eval", "--checkpoint", str(path)], capsys)
        assert code == 3
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_malformed_checkpoint_is_3(self, kind, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        raw, names = MALFORMED[kind]
        path.write_bytes(raw)
        code, _, err = run(["eval", "--checkpoint", str(path)], capsys)
        assert code == 3
        assert err.startswith("error:") and names in err

    def test_numeric_failure_in_eval_is_1(self, tmp_path, capsys):
        cfg = RunConfig(dim=32, heads=4, layers=1, mask_hidden=4,
                        train_per_class=1, test_per_class=1)
        ckpt = checkpoint_from_model(Model(cfg), epoch=0)
        ckpt.params["aff.w1"][...] = 1e306  # finite, but the mask net overflows on any clip
        path = tmp_path / "huge.bin"
        save_checkpoint(ckpt, str(path))
        with np.errstate(over="ignore"):
            code, _, err = run(["eval", "--checkpoint", str(path)], capsys)
        assert code == 1
        assert err.startswith("error:") and "mask_net" in err and "Traceback" not in err

    # overflows the parameters in the first Adam step, so the epoch's
    # evaluation, not the step, meets the non-finite values
    @pytest.mark.parametrize("flags", [["--lr", "1e300"]])
    def test_numeric_failure_in_epoch_evaluation_is_1(self, flags, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, err = run(["train", *flags, "--epochs", "1", "--train-per-class", "1",
                                "--test-per-class", "1", "--dim", "16", "--heads", "2",
                                "--layers", "1", "--out-dir", str(tmp_path / "run")], capsys)
        assert code == 1
        assert err.startswith("error:") and "epoch 0" in err and "Traceback" not in err
        # the log was written as the run went: its header survives the abort
        header, = Path(tmp_path, "run", "metrics.jsonl").read_text(encoding="utf-8").splitlines()
        assert json.loads(header)["config"]["lr"] == 1e300

    @pytest.mark.parametrize("flags", [["--lr", "inf"], ["--weight-decay", "inf"],
                                       ["--alpha", "inf"]])
    def test_non_finite_training_setting_is_2(self, flags, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, _, err = run(["train", *flags, "--epochs", "1", "--train-per-class", "1",
                            "--test-per-class", "1", "--dim", "16", "--heads", "2",
                            "--layers", "1", "--out-dir", str(out_dir)], capsys)
        assert code == 2
        assert err.startswith("error:") and flags[0][2:].replace("-", "_") in err
        assert "Traceback" not in err and not out_dir.exists()

    @pytest.mark.parametrize("flags", [["--snr-hi", "inf"], ["--snr-lo=-inf"],
                                       ["--snr-lo=-1e308", "--snr-hi=1e308"]])
    def test_unbounded_snr_range_is_2(self, flags, tmp_path, capsys):
        code, _, err = run(["synth", *flags, "--out-dir", str(tmp_path / "ds")], capsys)
        assert code == 2
        assert err.startswith("error:") and "snr range" in err

    def test_truncated_wav_in_dataset_is_3(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        code, _, _ = run(["synth", "--out-dir", str(ds), *TINY], capsys)
        assert code == 0
        wav = sorted(ds.glob("*.wav"))[0]
        wav.write_bytes(wav.read_bytes()[:-100])
        code, _, err = run(["train", "--epochs", "1", "--dataset", str(ds),
                            "--out-dir", str(tmp_path / "run"), *TINY], capsys)
        assert code == 3
        assert err.startswith("error:") and wav.name in err

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_float_wav_in_dataset_is_3(self, bad, tmp_path, capsys):
        from scipy.io import wavfile

        ds = tmp_path / "ds"
        code, _, _ = run(["synth", "--out-dir", str(ds), *TINY], capsys)
        assert code == 0
        wav = sorted(ds.glob("*_test.wav"))[0]
        rate, pcm = wavfile.read(str(wav))
        samples = (pcm / 32768.0).astype(np.float32)
        samples[1234] = bad
        wavfile.write(str(wav), rate, samples)
        code, _, err = run(["train", "--epochs", "1", "--dataset", str(ds),
                            "--out-dir", str(tmp_path / "run"), *TINY], capsys)
        assert code == 3
        assert err.startswith("error:") and wav.name in err and "non-finite" in err

    @pytest.mark.parametrize("magic,named", [(b"RIFX", "big-endian RIFX"), (b"RF64", "RF64")])
    def test_unsupported_wav_encoding_is_3(self, magic, named, tmp_path, capsys):
        ds = tmp_path / "ds"
        code, _, _ = run(["synth", "--out-dir", str(ds), *TINY], capsys)
        assert code == 0
        wav = sorted(ds.glob("*.wav"))[0]
        wav.write_bytes(magic + wav.read_bytes()[4:])
        code, _, err = run(["train", "--epochs", "1", "--dataset", str(ds),
                            "--out-dir", str(tmp_path / "run"), *TINY], capsys)
        assert code == 3
        assert err.startswith("error:") and wav.name in err and named in err

    @pytest.mark.parametrize("fault", ["one_sample_cycle", "rate_above_max", "flag_not_binary",
                                       "split_line_malformed", "no_annotation_files",
                                       "missing_from_split"])
    def test_malformed_dataset_is_3(self, fault, tmp_path, capsys):
        ds = tmp_path / "ds"
        code, _, _ = run(["synth", "--out-dir", str(ds), *TINY], capsys)
        assert code == 0
        wav = sorted(ds.glob("*.wav"))[0]
        ann, split = wav.with_suffix(".txt"), ds / "split.txt"
        named = [wav.name]
        if fault == "one_sample_cycle":  # 1 sample at 44.1 kHz resamples to none at 16 kHz
            write_wav(str(wav), np.zeros(44100), 44100)
            ann.write_text("0.5\t0.50002\t0\t0\n")
            named.append("cycle 0")
        elif fault == "rate_above_max":
            write_wav(str(wav), np.zeros(100), MAX_SAMPLE_RATE + 1)
        elif fault == "flag_not_binary":
            ann.write_text("0.0\t1.0\t2\t0\n")
            named = [f"{ann}:1:", "flags must be 0 or 1"]
        elif fault == "split_line_malformed":
            split.write_text(split.read_text() + "extra\tvalidation\n")
            named = ["split.txt:13:", "expected 'name<TAB>train|test'"]
        elif fault == "no_annotation_files":
            for path in ds.glob("*.txt"):
                if path != split:
                    path.unlink()
            named = ["no annotation files"]
        else:
            lines = split.read_text().splitlines(keepends=True)
            split.write_text("".join(line for line in lines if not line.startswith(wav.stem)))
            named = [f"recording {wav.stem} missing from split file"]
        code, _, err = run(["train", "--epochs", "1", "--dataset", str(ds),
                            "--out-dir", str(tmp_path / "run"), *TINY], capsys)
        assert code == 3
        assert err.startswith("error:") and all(text in err for text in named), err

    def test_empty_training_split_is_1(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        code, _, _ = run(["synth", "--out-dir", str(ds), *TINY], capsys)
        assert code == 0
        split = ds / "split.txt"
        split.write_text(split.read_text().replace("\ttrain\n", "\ttest\n"))
        code, _, err = run(["train", "--epochs", "1", "--dataset", str(ds),
                            "--out-dir", str(tmp_path / "run"), *TINY], capsys)
        assert code == 1
        assert err == "error: training split is empty\n"

    def test_empty_checkpoint_path_is_2(self, capsys):
        code, _, err = run(["eval", "--checkpoint", ""], capsys)
        assert code == 2
        assert err == "error: eval requires --checkpoint\n"

    def test_config_file_precedence(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("epochs = 9\nbatch = 2\n")
        out_dir = str(tmp_path / "run")
        code, _, err = run(["train", "--config", str(cfg_file), "--epochs", "1",
                            "--out-dir", out_dir, *TINY], capsys)
        assert code == 0, err
        log = Path(out_dir, "metrics.jsonl").read_text(encoding="utf-8")
        header = json.loads(log.split("\n", 1)[0])
        assert header["config"]["epochs"] == 1  # flag wins
        assert header["config"]["batch"] == 4   # TINY flag wins over file


def test_train_flags_are_the_config_fields():
    # a flag whose dest is not a RunConfig field would parse and do nothing
    parser = argparse.ArgumentParser()
    _add_config_flags(parser)
    dests = {action.dest for action in parser._actions} - {"help", "config"}
    assert dests == set(RunConfig.__dataclass_fields__)


class TestGradcheckCommand:
    def test_passes_with_exit_0(self, capsys):
        code, out, _ = run(["gradcheck", "--seed", "0", "--max-entries", "2"], capsys)
        assert code == 0
        assert "all checks passed" in out
        for group in ("aff", "lam", "wq", "phi"):
            assert group in out

    @pytest.mark.parametrize("entries", ["0", "-1"])
    def test_max_entries_below_one_is_usage_error(self, entries, capsys):
        code, out, err = run(["gradcheck", "--max-entries", entries], capsys)
        assert code == 2
        assert "--max-entries" in err
        assert "passed" not in out

    def test_corrupt_hook_fails_with_exit_1(self, capsys, corrupt_model_row):
        corrupt_model_row("block0.wq")
        code, out, _ = run(["gradcheck", "--seed", "0", "--max-entries", "2"], capsys)
        assert code == 1
        assert "FAIL" in out and "model.block0.wq" in out


class TestReportCommand:
    def _write_log(self, path, flags, sp, se, score):
        cfg = RunConfig(**flags).snapshot()
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "header", "config": cfg}) + "\n")
            fh.write(json.dumps({"type": "epoch", "epoch": 0, "train_loss": 1.0,
                                 "se": se, "sp": sp, "score": score}) + "\n")

    def test_single_run_table(self, tmp_path, capsys):
        log = tmp_path / "full.jsonl"
        self._write_log(log, {}, 0.8513, 0.4594, 0.65535)
        code, out, _ = run(["report", str(log)], capsys)
        assert code == 0
        assert "full" in out
        assert "85.13" in out and "45.94" in out and "65.53" in out

    def test_two_runs_distinguished_by_flag(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write_log(a, {}, 0.9, 0.5, 0.7)
        self._write_log(b, {"no_aff": True}, 0.8, 0.4, 0.6)
        code, out, _ = run(["report", str(a), str(b)], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert any(line.startswith("full") for line in lines)
        assert any(line.startswith("no_aff") for line in lines)

    def test_beta_zero_and_the_retired_flag_share_a_row(self, tmp_path, capsys):
        new, old, both = tmp_path / "new.jsonl", tmp_path / "old.jsonl", tmp_path / "both.jsonl"
        self._write_log(new, {"beta": 0.0}, 0.9, 0.5, 0.7)
        old.write_bytes(b'{"type": "header", "config": {"beta": 0.5, "no_bias_loss": true}}\n'
                        + self.EPOCH)
        self._write_log(both, {"beta": 0.0, "no_aff": True}, 0.8, 0.4, 0.6)
        code, out, _ = run(["report", str(new), str(old), str(both)], capsys)
        assert code == 0
        names = [line.split()[0] for line in out.splitlines()[2:]]
        assert names == ["no_bias_loss", "no_bias_loss", "no_aff+no_bias_loss"]

    def test_missing_log_is_3(self, capsys):
        code, _, _ = run(["report", "/no/such.jsonl"], capsys)
        assert code == 3

    HEADER = b'{"type": "header", "config": {}}\n'
    EPOCH = b'{"type": "epoch", "epoch": 0, "sp": 0.5, "se": 0.5, "score": 0.5}\n'
    MALFORMED_LOGS = {
        "record_not_object": HEADER + EPOCH + b"3\n",
        "config_not_object": b'{"type": "header", "config": [1]}\n' + EPOCH,
        "epoch_without_score": HEADER + EPOCH + b'{"type": "epoch", "epoch": 1, "sp": 0.5, "se": 0.5}\n',
        "metric_not_finite": HEADER + EPOCH.replace(b'"sp": 0.5', b'"sp": NaN'),
        # a JSON bool is a Python int
        "metric_is_boolean": HEADER + EPOCH.replace(b'"sp": 0.5, "se": 0.5, "score": 0.5',
                                                    b'"sp": false, "se": true, "score": true'),
        "not_utf8": HEADER + EPOCH + b"\xff\n",
        "nested_too_deep": HEADER + EPOCH + b"[" * 100_000 + b"\n",
        "flag_not_boolean": b'{"type": "header", "config": {"no_aff": "false"}}\n' + EPOCH,
        "retired_flag_not_boolean": b'{"type": "header", "config": {"no_bias_loss": 1}}\n' + EPOCH,
        "beta_not_number": b'{"type": "header", "config": {"beta": "0"}}\n' + EPOCH,
        "metric_above_one": HEADER + EPOCH.replace(b'"sp": 0.5', b'"sp": 5.0'),
        "metric_below_zero": HEADER + EPOCH.replace(b'"se": 0.5', b'"se": -0.5'),
        "no_epoch_record": HEADER,
    }

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        log = tmp_path / "spaced.jsonl"
        log.write_bytes(b"\n" + self.HEADER + b"  \n\n" + self.EPOCH + b"\t\n")
        code, out, err = run(["report", str(log)], capsys)
        assert code == 0, err
        assert out.splitlines()[2].split() == ["full", "50.00", "50.00", "50.00"]

    @pytest.mark.parametrize("render", [render_ablation_table, ablation_report],
                             ids=lambda f: f.__name__)
    def test_no_runs_is_a_usage_error(self, render):
        with pytest.raises(UsageError, match="no runs|at least one"):
            render([])

    @pytest.mark.parametrize("kind", sorted(MALFORMED_LOGS))
    def test_malformed_log_is_3(self, kind, tmp_path, capsys):
        log = tmp_path / "bad.jsonl"
        log.write_bytes(self.MALFORMED_LOGS[kind])
        code, out, err = run(["report", str(log)], capsys)
        assert code == 3
        assert err.startswith("error:") and "bad.jsonl" in err
