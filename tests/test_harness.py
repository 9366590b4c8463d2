"""Config validation, sweep orchestration, persistence and CLI tests."""

import dataclasses
import json
import subprocess
import sys
import typing

import numpy as np
import pytest

from risae.config import SystemConfig
from risae import harness
from risae.errors import ConfigInvalid, InvariantViolation, MissingCheckpoint
from risae.harness import (
    AttackSettings,
    EvalSettings,
    ExperimentConfig,
    ResultRow,
    TrainSettings,
    config_from_dict,
    derive_rng,
    desk_preset,
    export_results,
    format_rows,
    load_config,
    load_system,
    make_budget,
    paper_preset,
    parse_rows,
    rerun_from_manifest,
    run_sweep,
    save_config,
    scatterer_budget,
    snr_to_sigma2,
    sweep_to_directory,
    train_system,
)
from risae.attack import load_perturbation
from risae.cli import main as cli_main


def tiny_experiment(seed=101, **system_kwargs) -> ExperimentConfig:
    system = dict(n_t=2, n_r=2, a1_v=1, a1_h=2, a2_v=1, a2_h=2, m=4, block_len=3,
                  num_scatterers=3, hidden_width=8)
    system.update(system_kwargs)
    cfg = ExperimentConfig(
        system=SystemConfig(**system),
        train=TrainSettings(snr_db=15.0, epochs=2, learning_rate=1e-3,
                            batch_blocks=8, train_symbols=48),
        eval=EvalSettings(snr_sweep_db=[0.0, 8.0], test_blocks=30, chunk_blocks=16),
        attack=AttackSettings(psr_db=-7.0, n_p=2, n_s=1, channel_mode="ideal"),
        attacks=["secured", "jamming"],
        scatterers=[3],
        seed=seed,
    )
    cfg.validate()
    return cfg


# (section, field) of every declared config field; "" is the top level,
# whose fields include the sections themselves
SECTIONS = [("system", SystemConfig), ("train", TrainSettings), ("eval", EvalSettings),
            ("attack", AttackSettings), ("", ExperimentConfig)]
FIELDS = [(section, f.name) for section, cls in SECTIONS for f in dataclasses.fields(cls)]
# a JSON value of the wrong type for each field: a number for a string, else
# a string and a boolean (JSON booleans are not integers here)
WRONG_TYPES = [(section, name, wrong) for section, cls in SECTIONS
               for name, kind in typing.get_type_hints(cls).items()
               for wrong in ([7] if kind is str else ["wrong", True])]


class TestConfig:
    def test_presets_validate(self):
        desk = desk_preset()
        paper = paper_preset()
        assert desk.system.n_t == 4 and desk.system.m == 16
        assert paper.system.n_t == 16 and paper.system.m == 64
        assert paper.train.train_symbols == 100_000

    def test_round_trip_through_json(self, tmp_path):
        cfg = tiny_experiment()
        path = tmp_path / "config.json"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded.to_dict() == cfg.to_dict()

    def test_invalid_field_names_path(self):
        with pytest.raises(ConfigInvalid) as err:
            config_from_dict({"train": {"epochs": "many"}})
        assert err.value.field_path == "train.epochs"

    def test_invalid_nested_system_field(self):
        with pytest.raises(ConfigInvalid) as err:
            config_from_dict({"system": {"n_t": -1}})
        assert err.value.field_path == "system"

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigInvalid) as err:
            config_from_dict({"evaluation": {}})
        assert "evaluation" in err.value.field_path

    def test_non_increasing_sweep_rejected(self):
        with pytest.raises(ConfigInvalid) as err:
            config_from_dict({"eval": {"snr_sweep_db": [4.0, 0.0]}})
        assert err.value.field_path == "eval.snr_sweep_db"

    def test_present_but_invalid_is_never_defaulted(self):
        with pytest.raises(ConfigInvalid):
            config_from_dict({"attack": {"psr_db": "loud"}})

    @pytest.mark.parametrize("field, value", [("p_max", -1.0), ("p_max", 0.0),
                                              ("ridge", -1.0)])
    def test_bad_attack_search_settings_rejected(self, field, value):
        with pytest.raises(ConfigInvalid) as err:
            config_from_dict({"attack": {field: value, "channel_mode": "double"}})
        assert err.value.field_path == f"attack.{field}"

    def test_zero_ridge_and_unset_search_settings_accepted(self):
        cfg = config_from_dict({"attack": {"ridge": 0.0, "p_max": None}})
        assert cfg.attack.ridge == 0.0 and cfg.attack.p_max is None

    @pytest.mark.parametrize("preset", [desk_preset, paper_preset])
    def test_presets_round_trip_through_save_and_load(self, tmp_path, preset):
        cfg = preset()
        save_config(cfg, tmp_path / "config.json")
        assert load_config(tmp_path / "config.json") == cfg

    @pytest.mark.parametrize("section, name, wrong", WRONG_TYPES, ids=lambda v: str(v) or "top")
    def test_wrong_json_type_names_the_field(self, section, name, wrong):
        data = {section: {name: wrong}} if section else {name: wrong}
        with pytest.raises(ConfigInvalid) as err:
            config_from_dict(data)
        assert err.value.field_path == (f"{section}.{name}" if section else name)

    @pytest.mark.parametrize("section, name", FIELDS, ids=lambda v: v or "top")
    def test_absent_field_takes_its_default(self, section, name):
        data = paper_preset().to_dict()
        del (data[section] if section else data)[name]
        cfg = config_from_dict(data)
        owner = getattr(cfg, section) if section else cfg
        declared = next(f for f in dataclasses.fields(owner) if f.name == name)
        default = (declared.default if declared.default is not dataclasses.MISSING
                   else declared.default_factory())
        assert getattr(owner, name) == default

    def test_snr_to_sigma2(self):
        assert snr_to_sigma2(1.0, 0.0) == pytest.approx(1.0)
        assert snr_to_sigma2(1.0, 10.0) == pytest.approx(0.1)
        assert snr_to_sigma2(2.0, 3.0) == pytest.approx(2.0 * 10 ** -0.3)


class TestSeeding:
    def test_derive_rng_is_stable_and_tag_sensitive(self):
        a = derive_rng(7, "eval", "rmaep", 9, 4.0).standard_normal(4)
        b = derive_rng(7, "eval", "rmaep", 9, 4.0).standard_normal(4)
        c = derive_rng(7, "eval", "rmaep", 9, 8.0).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestResultRows:
    def test_row_validation(self):
        with pytest.raises(ValueError):
            ResultRow(0.0, "secured", 1.5, 10, 0.0, 9, "ideal")
        with pytest.raises(ValueError):
            ResultRow(0.0, "secured", 0.5, 0, 0.0, 9, "ideal")

    def test_format_parse_round_trip(self):
        rows = [ResultRow(-4.0, "secured", 1.0 / 3.0, 2400, 0.0123456789012345678, 9, "ideal"),
                ResultRow(8.0, "rmaep", 0.25, 2400, 0.017, 3, "double")]
        text = format_rows(rows)
        back = parse_rows(text)
        assert format_rows(back) == text
        assert back[0].ser == rows[0].ser
        assert back[0].ci_halfwidth == rows[0].ci_halfwidth


@pytest.fixture(scope="module")
def trained_tiny(tmp_path_factory):
    cfg = tiny_experiment()
    out = tmp_path_factory.mktemp("tiny_run")
    nets, ckpt = train_system(cfg, out)
    return cfg, nets, ckpt


class TestTrainAndSweep:
    def test_checkpoint_and_log_written(self, trained_tiny):
        cfg, nets, ckpt = trained_tiny
        assert ckpt.exists()
        log = ckpt.parent / "training_log.csv"
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,wall_seconds"
        assert len(lines) == cfg.train.epochs + 1

    def test_load_system_checks_dimensions(self, trained_tiny):
        cfg, _, ckpt = trained_tiny
        wrong = tiny_experiment(n_t=3)
        with pytest.raises(ConfigInvalid) as err:
            load_system(ckpt, wrong)
        assert err.value.field_path == "system.n_t"

    def test_missing_checkpoint(self, trained_tiny, tmp_path):
        cfg, _, _ = trained_tiny
        with pytest.raises(MissingCheckpoint):
            load_system(tmp_path / "nope.ckpt", cfg)

    def test_sweep_cardinality_and_sorting(self, trained_tiny):
        cfg, nets, _ = trained_tiny
        rows = run_sweep(cfg, nets)
        assert len(rows) == len(cfg.eval.snr_sweep_db) * len(cfg.attacks) * len(cfg.scatterers)
        keys = [row.sort_key() for row in rows]
        assert keys == sorted(keys)

    def test_five_by_four_grid_yields_twenty_rows(self, trained_tiny):
        cfg, nets, _ = trained_tiny
        wide = tiny_experiment()
        wide.eval.snr_sweep_db = [-4.0, 0.0, 4.0, 8.0, 12.0]
        wide.eval.test_blocks = 6
        wide.attacks = ["secured", "jamming", "rmaef", "rmaep"]
        wide.attack.n_p = 1
        wide.validate()
        rows = run_sweep(wide, nets)
        assert len(rows) == 20

    def test_reference_power_once_per_scatterer_count(self, trained_tiny, monkeypatch):
        cfg, nets, _ = trained_tiny
        wide = tiny_experiment()
        wide.scatterers = [2, 3]
        wide.eval.test_blocks = 6
        wide.validate()
        seen = []
        estimate = harness.estimate_received_power

        def counting(nets_, sys_cfg, num_blocks, rng):
            seen.append(sys_cfg.num_scatterers)
            return estimate(nets_, sys_cfg, num_blocks, rng)

        monkeypatch.setattr(harness, "estimate_received_power", counting)
        run_sweep(wide, nets)
        assert seen == [2, 3]
        # The estimate runs noiseless, so the budget a cell at any SNR would
        # compute for itself is the shared one.
        for sc in wide.scatterers:
            shared = scatterer_budget(wide, nets, sc, ["jamming"])
            for snr_db in wide.eval.snr_sweep_db:
                sys_cfg = wide.system.replace(num_scatterers=sc,
                                              sigma2=snr_to_sigma2(wide.system.power, snr_db))
                assert make_budget(wide, sys_cfg, nets, "ideal") == shared
        seen.clear()
        wide.attacks = ["secured"]
        run_sweep(wide, nets)
        assert seen == []

    @staticmethod
    def _pool_grid():
        grid = tiny_experiment()
        grid.scatterers = [2, 3]
        grid.eval.test_blocks = 6
        grid.attacks = ["secured", "jamming", "rmaef", "rmaep"]
        grid.attack.n_p = 1
        grid.validate()
        return grid

    def test_pooled_sweep_matches_serial_cells(self, trained_tiny, capsys):
        _, nets, _ = trained_tiny
        grid = self._pool_grid()
        serial = []
        for sc in grid.scatterers:
            budget = scatterer_budget(grid, nets, sc, grid.attacks)
            for snr_db in grid.eval.snr_sweep_db:
                for kind in grid.attacks:
                    serial.append(harness.run_cell(grid, nets, sc, snr_db, kind, budget))
        serial.sort(key=ResultRow.sort_key)
        capsys.readouterr()
        pooled = run_sweep(grid, nets, progress=True)
        assert format_rows(pooled) == format_rows(serial)
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == len(serial)
        assert all(line.startswith("[sweep] sc=") for line in printed)

    def test_pooled_sweep_on_one_cpu(self, trained_tiny, monkeypatch):
        _, nets, _ = trained_tiny
        grid = self._pool_grid()
        two = format_rows(run_sweep(grid, nets))
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0})
        assert format_rows(run_sweep(grid, nets)) == two

    def test_sweep_deterministic_under_seed(self, trained_tiny):
        cfg, nets, _ = trained_tiny
        rows1 = run_sweep(cfg, nets)
        rows2 = run_sweep(cfg, nets)
        assert format_rows(rows1) == format_rows(rows2)

    def test_budget_reference_modes(self, trained_tiny):
        cfg, nets, _ = trained_tiny
        sys_cfg = cfg.system.replace(sigma2=0.1)
        cfg.attack.budget_reference = "power"
        b_power = make_budget(cfg, sys_cfg, nets, "double")
        assert b_power.reference_power == sys_cfg.power
        cfg.attack.budget_reference = "symbol"
        b_sym = make_budget(cfg, sys_cfg, nets, "double")
        assert b_sym.reference_power == pytest.approx(sys_cfg.n_t * sys_cfg.power ** 2)
        cfg.attack.budget_reference = "auto"
        b_auto = make_budget(cfg, sys_cfg, nets, "double")
        assert b_auto.reference_power == b_sym.reference_power
        b_ideal = make_budget(cfg, sys_cfg, nets, "ideal")
        assert b_ideal.reference_power > 0
        cfg.attack.budget_reference = "auto"


class TestPersistence:
    def test_export_writes_csv_and_plot_script(self, trained_tiny, tmp_path):
        cfg, nets, _ = trained_tiny
        rows = run_sweep(cfg, nets)
        csv_path, plot_path = export_results(rows, tmp_path / "results.csv")
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "snr_db,attack,ser,trials,ci_halfwidth,scatterers,attack_channel"
        assert len(lines) == len(rows) + 1
        script = plot_path.read_text()
        assert "results.csv" in script and "matplotlib" in script

    def test_manifest_rerun_is_byte_identical(self, trained_tiny, tmp_path):
        cfg, nets, ckpt = trained_tiny
        first = tmp_path / "first"
        csv1 = sweep_to_directory(cfg, nets, ckpt, first)
        second = tmp_path / "second"
        csv2 = rerun_from_manifest(first / "manifest.json", second)
        assert csv1.read_bytes() == csv2.read_bytes()

    def test_manifest_detects_checkpoint_tampering(self, trained_tiny, tmp_path):
        cfg, nets, ckpt = trained_tiny
        out = tmp_path / "run"
        sweep_to_directory(cfg, nets, ckpt, out)
        with open(out / "weights.ckpt", "r+b") as fh:
            fh.seek(-8, 2)
            fh.write(b"\x00" * 8)
        with pytest.raises(ConfigInvalid):
            rerun_from_manifest(out / "manifest.json", tmp_path / "again")


    def test_export_round_trip_check_is_a_typed_error(self, monkeypatch, tmp_path):
        rows = [ResultRow(0.0, "secured", 0.25, 24, 0.01, 3, "ideal")]

        def altered(text):
            back = parse_rows(text)
            back[0].ser = 0.5
            return back

        monkeypatch.setattr(harness, "parse_rows", altered)
        with pytest.raises(InvariantViolation):
            export_results(rows, tmp_path / "results.csv")
        assert not (tmp_path / "results.csv").exists()


class TestCli:
    def test_exit_code_on_bad_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"epochs": 0}}))
        code = cli_main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("name, value", [("kernel_size", -1), ("bn_eps", -1.0),
                                             ("bn_eps", 0.0)])
    def test_exit_code_on_out_of_bound_system_field(self, tmp_path, capsys, name, value):
        data = tiny_experiment().to_dict()
        data["system"][name] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert cli_main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "system" in err and name in err

    def test_attack_exports_jamming(self, trained_tiny, tmp_path):
        cfg, _, ckpt = trained_tiny
        cfg_path = tmp_path / "config.json"
        save_config(cfg, cfg_path)
        out = tmp_path / "jam.csv"
        assert cli_main(["attack", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                         "--kind", "jamming", "--snr-db", "4", "--mode", "double",
                         "--out", str(out)]) == 0
        vector, meta = load_perturbation(out)
        assert meta["channel_mode"] == "double"
        assert vector.values.shape == (cfg.system.adversary_antennas,)
        assert vector.power == pytest.approx(meta["budget"], rel=1e-12)

    def test_exit_code_on_missing_checkpoint(self, tmp_path):
        code = cli_main(["eval", "--preset", "desk", "--checkpoint",
                         str(tmp_path / "none.ckpt"), "--snr-db", "0"])
        assert code == 3

    @pytest.mark.parametrize("command", ["eval", "attack"])
    @pytest.mark.parametrize("attack", [{"p_max": -1.0}, {"ridge": -1.0, "channel_mode": "double"}])
    def test_exit_code_on_bad_attack_settings(self, trained_tiny, tmp_path, capsys,
                                              command, attack):
        cfg, _, ckpt = trained_tiny
        data = cfg.to_dict()
        data["attack"].update(attack)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        argv = [command, "--config", str(bad), "--checkpoint", str(ckpt), "--snr-db", "4"]
        if command == "eval":
            argv += ["--attack", "rmaep"]
        else:
            argv += ["--kind", "rmaep", "--out", str(tmp_path / "p.csv")]
        assert cli_main(argv) == 2
        assert f"attack.{next(iter(attack))}" in capsys.readouterr().err

    def test_exit_code_on_truncated_checkpoint(self, trained_tiny, tmp_path, capsys):
        cfg, _, ckpt = trained_tiny
        cfg_path = tmp_path / "config.json"
        save_config(cfg, cfg_path)
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(ckpt.read_bytes()[:-8])
        assert cli_main(["eval", "--config", str(cfg_path), "--checkpoint", str(cut),
                         "--snr-db", "4"]) == 3
        assert "truncated" in capsys.readouterr().err

    def test_exit_code_on_config_error_in_sweep_worker(self, trained_tiny, tmp_path,
                                                       capsys, monkeypatch):
        cfg, _, ckpt = trained_tiny
        cfg_path = tmp_path / "config.json"
        save_config(cfg, cfg_path)
        parent = harness.os.getpid()

        def failing(*args):
            if harness.os.getpid() == parent:
                raise AssertionError("the cell ran in the parent process")
            raise ConfigInvalid("attack.n_p", "rejected inside a sweep worker")

        monkeypatch.setattr(harness, "run_cell", failing)
        assert cli_main(["sweep", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "sweep")]) == 2
        assert "attack.n_p: rejected inside a sweep worker" in capsys.readouterr().err

    def test_train_eval_attack_sweep_flow(self, tmp_path, capsys):
        cfg = tiny_experiment()
        cfg_path = tmp_path / "config.json"
        save_config(cfg, cfg_path)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        ckpt = out / "weights.ckpt"
        assert ckpt.exists()

        assert cli_main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                         "--attack", "secured", "--snr-db", "4", "--blocks", "10"]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed[-2] == "snr_db,attack,ser,trials,ci_halfwidth,scatterers,attack_channel"

        pert = tmp_path / "pert.csv"
        assert cli_main(["attack", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                         "--kind", "rmaef", "--snr-db", "4", "--out", str(pert)]) == 0
        assert pert.exists()

        sweep_dir = tmp_path / "sweep"
        assert cli_main(["sweep", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                         "--out", str(sweep_dir)]) == 0
        assert (sweep_dir / "results.csv").exists()
        assert (sweep_dir / "manifest.json").exists()
        assert (sweep_dir / "results_plot.py").exists()

    def test_module_invocation(self):
        result = subprocess.run([sys.executable, "-m", "risae.cli", "--help"],
                                capture_output=True, text=True)
        assert result.returncode == 0
        assert "sweep" in result.stdout
