"""Configuration defaults, file grammar, precedence, validation."""

import pytest

from respden.config import RunConfig, check_value_types, parse_config, parse_config_file
from respden.errors import UsageError


class TestDefaults:
    def test_training_defaults(self):
        cfg = parse_config({})
        assert cfg.lr == 5e-5
        assert cfg.weight_decay == 0.1
        assert cfg.batch == 8
        assert cfg.epochs == 50
        assert cfg.beta == 0.5
        assert cfg.epsilon == 0.2
        assert cfg.alpha == 0.02
        assert cfg.dataset == "synth"

    def test_model_defaults(self):
        cfg = parse_config({})
        assert (cfg.dim, cfg.heads, cfg.layers, cfg.mask_hidden) == (96, 4, 4, 32)
        assert not (cfg.no_aff or cfg.no_ddl or cfg.no_bias_loss)


class TestValidation:
    def test_beta_out_of_range(self):
        with pytest.raises(UsageError, match="beta"):
            parse_config({"beta": 1.5})

    def test_epsilon_must_be_below_one(self):
        with pytest.raises(UsageError, match="epsilon"):
            parse_config({"epsilon": 1.0})

    def test_negative_alpha(self):
        with pytest.raises(UsageError, match="alpha"):
            parse_config({"alpha": -0.01})

    @pytest.mark.parametrize("key", ["lr", "weight_decay", "alpha"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_training_setting(self, key, value):
        with pytest.raises(UsageError, match=f"{key} must be finite"):
            parse_config({key: value})

    def test_dim_head_divisibility(self):
        with pytest.raises(UsageError, match="dim"):
            parse_config({"dim": 30, "heads": 4})

    def test_unknown_override_key(self):
        with pytest.raises(UsageError, match="unknown"):
            parse_config({"learning_rate": 1e-3})

    # each passes snr_lo <= snr_hi, but synthesis cannot draw from the range
    @pytest.mark.parametrize("lo, hi", [(5.0, float("inf")), (float("-inf"), 20.0),
                                        (float("-inf"), float("inf")), (-1e308, 1e308)])
    def test_snr_range_width_must_be_finite(self, lo, hi):
        with pytest.raises(UsageError, match="snr range"):
            parse_config({"snr_lo": lo, "snr_hi": hi})


class TestFileGrammar:
    def test_file_values_parsed_and_typed(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 10\nbeta = 0.25\nno_aff = true\ndataset = synth\n# comment\n")
        values = parse_config_file(str(path))
        assert values == {"epochs": 10, "beta": 0.25, "no_aff": True, "dataset": "synth"}

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 10\n")
        cfg = parse_config({"epochs": 2}, str(path))
        assert cfg.epochs == 2

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 10\n")
        assert parse_config({}, str(path)).epochs == 10

    def test_unknown_file_key_names_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nonsense = 1\n")
        with pytest.raises(UsageError, match="nonsense"):
            parse_config({}, str(path))

    def test_repeated_file_key_names_line_and_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lr = 0.001\n# a comment\nlr = 0.5\n")
        with pytest.raises(UsageError, match=r"run.cfg:3: config key 'lr' is set twice"):
            parse_config({}, str(path))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs 10\n")
        with pytest.raises(UsageError, match="key = value"):
            parse_config({}, str(path))

    def test_bad_boolean(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("no_aff = maybe\n")
        with pytest.raises(UsageError, match="no_aff"):
            parse_config({}, str(path))

    @pytest.mark.parametrize("key", ["mode", "checkpoint", "aff_residual", "shared_lambda",
                                     "bd_project_first"])
    def test_retired_key_rejected(self, key, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = false\n")
        with pytest.raises(UsageError, match=f"unknown config key '{key}'"):
            parse_config({}, str(path))

    def test_missing_file(self):
        with pytest.raises(UsageError, match="cannot read"):
            parse_config({}, "/nonexistent.cfg")


class TestSnapshot:
    def test_snapshot_roundtrips_through_runconfig(self):
        cfg = parse_config({"epochs": 3, "no_ddl": True})
        again = RunConfig(**cfg.snapshot())
        assert again == cfg


class TestValueTypes:
    @pytest.mark.parametrize("values", [{"lr": 1}, {"lr": 1e-3}, {"heads": 3},
                                        {"no_aff": False}, {"dataset": "synth"}])
    def test_matching_types_accepted(self, values):
        assert check_value_types(values) is values

    @pytest.mark.parametrize("key, value", [("heads", 2.0), ("heads", True), ("lr", True),
                                            ("no_aff", 1), ("no_aff", "yes"), ("dataset", 5)])
    def test_mismatched_type_names_the_key(self, key, value):
        with pytest.raises(UsageError, match=key):
            check_value_types({key: value})
