"""Configuration defaults, file grammar, precedence, validation."""

import dataclasses
import math
import re

import pytest

from respden.checkpoint import load_checkpoint, model_from_checkpoint
from respden.config import RunConfig, SynthConfig, parse_config, parse_config_file
from respden.errors import CheckpointError, UsageError

from crafted_checkpoints import container, header
from oracles import check_synth, free_checked_config


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
        assert not (cfg.no_aff or cfg.no_ddl)


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

    @pytest.mark.parametrize("text, value", [("true", True), ("Yes", True), ("1", True),
                                             ("false", False), ("NO", False), ("0", False)])
    def test_boolean_spellings(self, text, value, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"no_aff = {text}\n")
        assert parse_config_file(str(path)) == {"no_aff": value}

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
                                     "bd_project_first", "no_bias_loss"])
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
        cfg = RunConfig(**values)
        assert {key: getattr(cfg, key) for key in values} == values

    @pytest.mark.parametrize("key, value", [("heads", 2.0), ("heads", True), ("lr", True),
                                            ("no_aff", 1), ("no_aff", "yes"), ("dataset", 5)])
    def test_mismatched_type_names_the_key(self, key, value):
        with pytest.raises(UsageError, match=key):
            RunConfig(**{key: value})


INF, NAN = math.inf, math.nan
_TYPE_EDGES = {"int": [NAN, INF, -INF, True, 2.5, "3"],
               "float": [NAN, INF, -INF, True, 1, "0.1"],
               "bool": [True, 0, 1, "yes"],
               "str": ["x", 5, 1.0, False]}
#: values at and just beyond each numeric field's bounds
_RANGE_EDGES = {
    "seed": [0, -1], "dim": [1, 0, 8, 30], "heads": [1, 0, 3], "layers": [0, -1],
    "mask_hidden": [1, 0], "lr": [5e-324, 0.0, -1.0], "weight_decay": [0.0, -1e-12],
    "batch": [1, 0], "epochs": [0, -1], "beta": [0.0, 1.0, -1e-12, 1.0 + 1e-12],
    "epsilon": [0.0, 1.0 - 1e-12, 1.0, -1e-12], "alpha": [0.0, -1e-12],
    "train_per_class": [1, 0], "test_per_class": [0, -1], "train_subjects": [1, 0],
    "test_subjects": [1, 0], "snr_lo": [20.0, 20.5, -1e308], "snr_hi": [5.0, 4.5, 1e308],
}
#: one field at a time on top of the defaults, then a few joint cases
RUN_GRID = [{f.name: v} for f in dataclasses.fields(RunConfig) for v in _TYPE_EDGES[f.type]]
RUN_GRID += [{key: v} for key, values in _RANGE_EDGES.items() for v in values]
RUN_GRID += [{"snr_lo": 30.0, "snr_hi": 20.0}, {"snr_lo": -INF, "snr_hi": INF},
             {"snr_lo": -1e308, "snr_hi": 1e308}, {"dim": 30, "heads": 4},
             {"dim": 0, "heads": 0}, {"train_per_class": 0, "snr_lo": NAN}]
SYNTH_GRID = [{key: v} for key in ("train_per_class", "test_per_class", "train_subjects",
                                   "test_subjects") for v in (2, 1, 0, -1)]
SYNTH_GRID += [{"snr_db": db} for db in [(5.0, 5.0), (20.0, 5.0), (NAN, 5.0), (5.0, NAN),
                                         (-INF, 5.0), (5.0, INF), (-INF, INF), (INF, INF),
                                         (-1e308, 1e308), (-1e307, 1e307)]]
SYNTH_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SynthConfig)}


def _ids(values: dict) -> str:
    return ",".join(f"{key}={value!r}" for key, value in values.items())


def usage_message(build, values: dict) -> str | None:
    """The message of the `UsageError` that `build(values)` raises, or None."""
    try:
        build(values)
    except UsageError as exc:
        return str(exc)
    return None


def free_checked_synth(values: dict) -> None:
    fields = {**SYNTH_DEFAULTS, **values}
    snr_lo, snr_hi = fields.pop("snr_db")
    check_synth(**fields, snr_lo=snr_lo, snr_hi=snr_hi)


class TestSelfChecking:
    """A built config rejects exactly what the free checks rejected, with their message."""

    @pytest.mark.parametrize("values", RUN_GRID, ids=_ids)
    def test_run_config_rejects_what_the_free_checks_rejected(self, values):
        want = usage_message(free_checked_config, values)
        assert usage_message(lambda v: RunConfig(**v), values) == want

    @pytest.mark.parametrize("values", SYNTH_GRID, ids=_ids)
    def test_synth_config_rejects_what_check_synth_rejected(self, values):
        want = usage_message(free_checked_synth, values)
        assert usage_message(lambda v: SynthConfig(**v), values) == want

    @pytest.mark.parametrize("grid, oracle", [(RUN_GRID, free_checked_config),
                                              (SYNTH_GRID, free_checked_synth)],
                             ids=["run", "synth"])
    def test_grid_holds_accepted_and_rejected_values(self, grid, oracle):
        outcomes = [usage_message(oracle, values) is None for values in grid]
        assert any(outcomes) and not all(outcomes)

    @pytest.mark.parametrize("cls, key", [(RunConfig, "epochs"), (SynthConfig, "snr_db")])
    def test_fields_cannot_be_assigned(self, cls, key):
        cfg = cls()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, key, getattr(cfg, key))

    def test_synth_defaults_are_the_run_defaults(self):
        assert RunConfig().synth() == SynthConfig()

    def test_synth_maps_the_synth_fields(self):
        cfg = RunConfig(train_per_class=3, test_per_class=0, train_subjects=2, test_subjects=1,
                        snr_lo=-2.5, snr_hi=7)
        assert cfg.synth() == SynthConfig(3, 0, 2, 1, (-2.5, 7))


class TestSynthValueTypes:
    """`SynthConfig` takes its fields' types as `RunConfig` does: an int count, and
    `snr_db` as a 2-tuple of numbers, neither of them a bool."""

    @pytest.mark.parametrize("values", [
        {"train_per_class": 1.5}, {"train_per_class": True}, {"test_per_class": 0.0},
        {"train_subjects": 2.0}, {"test_subjects": "1"}, {"snr_db": ("1", "2")},
        {"snr_db": (5.0, 10.0, 20.0)}, {"snr_db": (5.0,)}, {"snr_db": (True, 20.0)},
        {"snr_db": [5.0, 20.0]}, {"snr_db": 5.0}], ids=_ids)
    def test_mismatched_type_names_the_field(self, values):
        (key,) = values
        with pytest.raises(UsageError, match=f"config key '{key}' must be of type"):
            SynthConfig(**{"train_per_class": 1, "test_per_class": 0, **values})

    @pytest.mark.parametrize("snr_db", [(5, 20), (-2.5, 7), (-1e307, 1e307)])
    def test_snr_bounds_may_be_ints_or_floats(self, snr_db):
        assert SynthConfig(snr_db=snr_db).snr_db == snr_db


#: configs that once failed only deep inside a run, each with the text of its error now
LATE_FAILURES = {"batch": ({"batch": 0}, "batch must be >= 1"),
                 "seed": ({"seed": -1}, "seed must be >= 0"),
                 "lr": ({"lr": -1.0}, "lr must be finite and > 0"),
                 "epsilon": ({"epsilon": 1.5}, "epsilon must be in [0, 1)"),
                 "dim_heads": ({"dim": 30, "heads": 4}, "dim=30 must be divisible")}


@pytest.mark.parametrize("case", sorted(LATE_FAILURES))
class TestRejectedWhenBuilt:
    def test_constructor(self, case):
        values, message = LATE_FAILURES[case]
        with pytest.raises(UsageError, match=re.escape(message)):
            RunConfig(**values)

    def test_replace(self, case):
        values, message = LATE_FAILURES[case]
        with pytest.raises(UsageError, match=re.escape(message)):
            dataclasses.replace(RunConfig(), **values)

    def test_config_file(self, case, tmp_path):
        values, message = LATE_FAILURES[case]
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        with pytest.raises(UsageError, match=re.escape(message)):
            parse_config({}, str(path))

    def test_checkpoint_header(self, case, tmp_path):
        values, message = LATE_FAILURES[case]
        path = tmp_path / "bad.bin"
        path.write_bytes(container(header({**RunConfig().snapshot(), **values})))
        with pytest.raises(CheckpointError, match="invalid config") as exc:
            model_from_checkpoint(load_checkpoint(str(path)))
        assert isinstance(exc.value.__cause__, UsageError) and message in str(exc.value)
