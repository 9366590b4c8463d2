"""Config validation, sweep orchestration, persistence and CLI tests."""

import copy
import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import typing
import warnings

import numpy as np
import pytest

from risae.config import SystemConfig
from risae import autoencoder, cli, harness
from risae.autoencoder import build_autoencoder, estimate_received_power
from risae.errors import (ConfigInvalid, CorruptCheckpoint, Diverged, InvariantViolation,
                          MissingCheckpoint, NoProgress)
from risae.harness import (
    AttackSettings,
    EvalSettings,
    ExperimentConfig,
    ResultRow,
    TrainSettings,
    attack_vector,
    build_attack_source,
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
    snr_to_sigma2,
    sweep_to_directory,
    train_system,
)
from risae.attack import load_perturbation
from risae.cli import main as cli_main
from risae.neural import load_checkpoint


def tiny_experiment(seed=101, **system_kwargs) -> ExperimentConfig:
    system = dict(n_t=2, n_r=2, a1_v=1, a1_h=2, a2_v=1, a2_h=2, m=4, block_len=3,
                  num_scatterers=3, hidden_width=8)
    system.update(system_kwargs)
    cfg = ExperimentConfig(
        system=SystemConfig(**system),
        train=TrainSettings(snr_db=15.0, epochs=2, learning_rate=1e-3,
                            batch_blocks=8, train_symbols=48),
        eval=EvalSettings(snr_sweep_db=[0.0, 8.0], test_blocks=30),
        attack=AttackSettings(psr_db=-7.0, n_p=2, n_s=1, channel_mode="ideal"),
        attacks=["secured", "jamming"],
        scatterers=[3],
        seed=seed,
    )
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
# per section, a bounded field and a value outside its bound
OUT_OF_BOUND = {"system": ("n_t", 0), "train": ("epochs", 0), "eval": ("test_blocks", 0),
                "attack": ("n_p", 0)}
# per (section, field), a value the field refuses: one of its type outside its
# bound, or of the wrong type where it has no bound
REFUSED = {
    ("system", "n_t"): 0, ("system", "n_r"): 0, ("system", "a1_v"): 0, ("system", "a1_h"): 0,
    ("system", "a2_v"): 0, ("system", "a2_h"): 0, ("system", "m"): 1,
    ("system", "block_len"): 0, ("system", "power"): 0.0, ("system", "sigma2"): 0.0,
    ("system", "num_scatterers"): 0, ("system", "hidden_width"): 0,
    ("train", "snr_db"): 300.5, ("train", "epochs"): 0, ("train", "learning_rate"): 0.0,
    ("train", "batch_blocks"): 0, ("train", "train_symbols"): 0,
    ("eval", "snr_sweep_db"): (4.0, 0.0), ("eval", "test_blocks"): 0,
    ("attack", "psr_db"): -300.5, ("attack", "n_p"): 0, ("attack", "n_s"): 0,
    ("attack", "channel_mode"): "bogus",
    ("", "system"): 5, ("", "train"): {}, ("", "eval"): None, ("", "attack"): "attack",
    ("", "attacks"): ("secured", "secured"), ("", "scatterers"): (0,), ("", "seed"): -1,
}


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
        assert dataclasses.asdict(loaded) == dataclasses.asdict(cfg)

    def test_invalid_field_names_path(self):
        with pytest.raises(ConfigInvalid) as err:
            config_from_dict({"train": {"epochs": "many"}})
        assert err.value.field_path == "train.epochs"

    def test_invalid_nested_system_field(self):
        with pytest.raises(ConfigInvalid) as err:
            config_from_dict({"system": {"n_t": -1}})
        assert err.value.field_path == "system.n_t"

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigInvalid) as err:
            config_from_dict({"evaluation": {}})
        assert "evaluation" in err.value.field_path

    def test_non_increasing_sweep_rejected(self):
        with pytest.raises(ConfigInvalid) as err:
            config_from_dict({"eval": {"snr_sweep_db": [4.0, 0.0]}})
        assert err.value.field_path == "eval.snr_sweep_db"

    def test_sweep_entries_sharing_a_seed_tag_rejected(self):
        # a seed tag keeps an SNR to 0.001 dB, so 8.0 and 8.0004 dB would
        # draw every stream alike; 0.001 dB apart they do not
        tags = ("eval", "secured", "ideal", 9)
        assert np.array_equal(derive_rng(7, *tags, 8.0).standard_normal(4),
                              derive_rng(7, *tags, 8.0004).standard_normal(4))
        with pytest.raises(ConfigInvalid) as err:
            config_from_dict({"eval": {"snr_sweep_db": [8.0, 8.0004]}})
        assert err.value.field_path == "eval.snr_sweep_db"
        grid = config_from_dict({"eval": {"snr_sweep_db": [8.0, 8.001]}}).eval.snr_sweep_db
        assert not np.array_equal(derive_rng(7, *tags, grid[0]).standard_normal(4),
                                  derive_rng(7, *tags, grid[1]).standard_normal(4))

    @pytest.mark.parametrize("grid, shared", [
        ([-4.0004, -4.0], True),       # negative SNRs round alike too
        ([0.0, 0.0005], True),         # 0.5 rounds half to even, to 0
        ([0.0, 0.0015, 0.002], True),  # 1.5 and 2 both round to 2
        ([-0.001, 0.0, 0.001], False),
    ])
    def test_grid_rejected_exactly_when_two_entries_draw_alike(self, grid, shared):
        tags = ("eval", "secured", "ideal", 9)
        draws = [derive_rng(7, *tags, v).standard_normal(4) for v in grid]
        alike = any(np.array_equal(a, b) for i, a in enumerate(draws) for b in draws[i + 1:])
        assert alike == shared
        if shared:
            with pytest.raises(ConfigInvalid) as err:
                config_from_dict({"eval": {"snr_sweep_db": grid}})
            assert err.value.field_path == "eval.snr_sweep_db"
        else:
            cfg = config_from_dict({"eval": {"snr_sweep_db": grid}})
            assert cfg.eval.snr_sweep_db == tuple(grid)

    def test_present_but_invalid_is_never_defaulted(self):
        with pytest.raises(ConfigInvalid):
            config_from_dict({"attack": {"psr_db": "loud"}})

    @pytest.mark.parametrize("case", ["type", "unknown", "bound"])
    @pytest.mark.parametrize("section", sorted(OUT_OF_BOUND))
    def test_every_config_error_names_section_and_field(self, section, case):
        name, bad = OUT_OF_BOUND[section]
        entry = {"type": {name: "wrong"}, "unknown": {"bogus": 1}, "bound": {name: bad}}[case]
        where = f"{section}.{'bogus' if case == 'unknown' else name}"
        with pytest.raises(ConfigInvalid) as err:
            config_from_dict({section: entry})
        assert err.value.field_path == where
        assert str(err.value).startswith(f"{where}: ")

    def test_derived_system_error_names_section_and_field(self):
        # a SystemConfig is checked when it is built, however it is built,
        # and cannot be changed afterwards
        with pytest.raises(ConfigInvalid) as err:
            SystemConfig().replace(sigma2=math.inf)
        assert str(err.value).startswith("system.sigma2: must be finite")
        with pytest.raises(ConfigInvalid) as err:
            SystemConfig(n_t=0)
        assert str(err.value) == "system.n_t: must be >= 1, got 0"
        with pytest.raises(dataclasses.FrozenInstanceError):
            SystemConfig().sigma2 = 2.0

    @pytest.mark.parametrize("section, name", FIELDS, ids=lambda v: v or "top")
    def test_field_checked_however_built(self, section, name):
        # a bare constructor and replace() check every field, not only the
        # ones a config file sets, and so does an assignment into a mutable
        # section, which keeps the old value; every field has a refused case
        cls = dict(SECTIONS)[section]
        bad = REFUSED[section, name]
        where = f"{section}.{name}" if section else name
        attempts = [lambda: cls(**{name: bad}), lambda: dataclasses.replace(cls(), **{name: bad})]
        if cls is not SystemConfig:
            obj = cls()
            old = getattr(obj, name)
            attempts.append(lambda: setattr(obj, name, bad))
        for attempt in attempts:
            with pytest.raises(ConfigInvalid) as err:
                attempt()
            assert err.value.field_path == where
            assert str(err.value).startswith(f"{where}: ")
            assert str(err.value).endswith(f"got {bad!r}")
        if cls is not SystemConfig:
            assert getattr(obj, name) is old

    def test_assignment_stores_the_checked_value(self):
        # an int where a float is declared is stored as a float, and a
        # sequence as a tuple, which cannot be changed in place past the check
        train = TrainSettings()
        train.snr_db = 8
        assert type(train.snr_db) is float and train.snr_db == 8.0
        assert type(SystemConfig(power=2).power) is float
        cfg = ExperimentConfig()
        cfg.attacks = ["secured"]
        assert cfg.attacks == ("secured",)
        assert not hasattr(cfg.attacks, "append")
        assert not hasattr(EvalSettings().snr_sweep_db, "append")

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
        data = dataclasses.asdict(paper_preset())
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
        assert snr_to_sigma2(2.0, 3.0) == pytest.approx(4.0 * 10 ** -0.3)

    def test_snr_is_the_per_antenna_transmit_snr(self):
        # at power 2 a labelled 10 dB ran at a transmit SNR of 13 dB: sigma2
        # was P / snr, while PowerNorm gives each antenna a mean energy of P^2
        cfg = SystemConfig(n_t=3, n_r=2, a1_v=1, a1_h=2, a2_v=1, a2_h=2, m=4, block_len=5,
                           hidden_width=8, power=2.0)
        nets = build_autoencoder(cfg, derive_rng(1, "init"))
        blocks, _ = autoencoder.random_message_blocks(cfg, 64, np.random.default_rng(2))
        o = autoencoder.channels_to_complex(nets.encoder.forward(blocks, record=False)[0])
        energy = np.mean(np.abs(o) ** 2)  # per antenna and symbol
        for snr_db in (-4.0, 10.0):
            assert energy / snr_to_sigma2(cfg.power, snr_db) == pytest.approx(10 ** (snr_db / 10))


class TestSeeding:
    def test_derive_rng_is_stable_and_tag_sensitive(self):
        a = derive_rng(7, "eval", "rmaep", 9, 4.0).standard_normal(4)
        b = derive_rng(7, "eval", "rmaep", 9, 4.0).standard_normal(4)
        c = derive_rng(7, "eval", "rmaep", 9, 8.0).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seed_is_one_64_bit_word(self):
        # the master seed enters the seed sequence as one word, so a seed
        # outside [0, 2**64) would alias one inside it or fail there
        for seed in (0, 2 ** 64 - 1):
            assert config_from_dict({"seed": seed}).seed == seed
        for seed in (-1, 2 ** 64):
            with pytest.raises(ConfigInvalid) as err:
                config_from_dict({"seed": seed})
            assert err.value.field_path == "seed"


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


def rewrite_checkpoint(src, dst, edit):
    """Write to dst the checkpoint src as changed by edit.

    edit gets the (net, param, array) entries in file order and the meta; it
    may change the meta in place and returns the entries to write. The
    header and the array data are rewritten to match, other header keys kept
    as they are.
    """
    data = src.read_bytes()
    (header_len,) = struct.unpack("<I", data[12:16])
    header = json.loads(data[16:16 + header_len])
    arrays, offset = [], 16 + header_len
    for entry in header["arrays"]:
        size = 8 * int(np.prod(entry["shape"]))
        values = np.frombuffer(data[offset:offset + size], dtype="<f8")
        arrays.append((entry["net"], entry["param"], values.reshape(entry["shape"])))
        offset += size
    arrays = edit(arrays, header["meta"])
    header["arrays"] = [{"net": net, "param": param, "shape": list(value.shape)}
                        for net, param, value in arrays]
    text = json.dumps(header).encode("utf-8")
    dst.write_bytes(data[:12] + struct.pack("<I", len(text)) + text
                    + b"".join(np.asarray(value, dtype="<f8").tobytes() for *_, value in arrays))


def with_first_shape(src, dst, shape):
    """Write to dst the checkpoint src with the shape of its first array
    replaced in the header; the array data stays as it is."""
    data = src.read_bytes()
    (header_len,) = struct.unpack("<I", data[12:16])
    header = json.loads(data[16:16 + header_len])
    header["arrays"][0]["shape"] = shape
    text = json.dumps(header).encode("utf-8")
    dst.write_bytes(data[:12] + struct.pack("<I", len(text)) + text + data[16 + header_len:])


def fill_first_array(value):
    """A rewrite_checkpoint edit that sets every entry of the first array to value."""
    def edit(arrays, meta):
        (net, param, array), *rest = arrays
        return [(net, param, np.full_like(array, value))] + rest
    return edit


class TestTrainAndSweep:
    def test_checkpoint_and_log_written(self, trained_tiny):
        cfg, nets, ckpt = trained_tiny
        assert ckpt.exists()
        log = ckpt.parent / "training_log.csv"
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,wall_seconds"
        assert len(lines) == cfg.train.epochs + 1

    # power is read by the encoder's power normalization; the kernel size and
    # BatchNorm's eps and momentum are constants of risae.neural, which a
    # checkpoint's meta may still record
    @pytest.mark.parametrize("name, value", [("n_t", 3), ("power", 2.0), ("kernel_size", 5),
                                             ("bn_eps", 1e-3), ("bn_momentum", 0.5)])
    def test_load_system_checks_network_settings(self, trained_tiny, tmp_path, name, value):
        cfg, _, ckpt = trained_tiny
        fixed = {"kernel_size": 3, "bn_eps": 1e-5, "bn_momentum": 0.9}
        says = (f"risae fixes it at {fixed[name]}" if name in fixed
                else f"config says {getattr(cfg.system, name)}")

        def record(arrays, meta):
            meta["system"][name] = value
            return arrays

        rewrite_checkpoint(ckpt, tmp_path / "other.ckpt", record)
        with pytest.raises(ConfigInvalid) as err:
            load_system(tmp_path / "other.ckpt", cfg)
        assert str(err.value) == f"system.{name}: checkpoint was trained with {value}, {says}"

    def test_missing_checkpoint(self, trained_tiny, tmp_path):
        cfg, _, _ = trained_tiny
        with pytest.raises(MissingCheckpoint):
            load_system(tmp_path / "nope.ckpt", cfg)

    def test_sweep_cardinality_and_sorting(self, trained_tiny, monkeypatch):
        cfg, nets, _ = trained_tiny
        # 30 blocks evaluate in two chunks, the second one short; the forked
        # workers inherit the patched constant
        monkeypatch.setattr(autoencoder, "EVAL_CHUNK_BLOCKS", 16)
        rows = run_sweep(cfg, nets)
        assert len(rows) == len(cfg.eval.snr_sweep_db) * len(cfg.attacks) * len(cfg.scatterers)
        keys = [row.sort_key() for row in rows]
        assert keys == sorted(keys)
        assert all(row.trials == 30 * cfg.system.block_len for row in rows)

    def test_five_by_four_grid_yields_twenty_rows(self, attackable_tiny):
        cfg, nets, _ = attackable_tiny
        wide = copy.deepcopy(cfg)
        wide.eval.snr_sweep_db = [-4.0, 0.0, 4.0, 8.0, 12.0]
        wide.eval.test_blocks = 6
        wide.attacks = ["secured", "jamming", "rmaef", "rmaep"]
        rows = run_sweep(wide, nets)
        assert len(rows) == 20

    def test_reference_power_once_per_scatterer_count(self, trained_tiny, monkeypatch):
        cfg, nets, _ = trained_tiny
        wide = tiny_experiment()
        wide.scatterers = [2, 3]
        wide.eval.test_blocks = 6
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
            shared = make_budget(wide, wide.system.replace(num_scatterers=sc), nets, "ideal")
            for snr_db in wide.eval.snr_sweep_db:
                sys_cfg = wide.system.replace(num_scatterers=sc,
                                              sigma2=snr_to_sigma2(wide.system.power, snr_db))
                assert make_budget(wide, sys_cfg, nets, "ideal") == shared
        # a secured cell ignores its budget, but a sweep of only secured
        # cells still builds one per count
        seen.clear()
        wide.attacks = ["secured"]
        run_sweep(wide, nets)
        assert seen == [2, 3]

    @staticmethod
    def _pool_grid(cfg):
        grid = copy.deepcopy(cfg)
        grid.scatterers = [2, 3]
        grid.eval.test_blocks = 6
        grid.attacks = ["secured", "jamming", "rmaef", "rmaep"]
        return grid

    def test_pooled_sweep_matches_serial_cells(self, attackable_tiny, capsys):
        cfg, nets, _ = attackable_tiny
        grid = self._pool_grid(cfg)
        serial = []
        for sc in grid.scatterers:
            budget = make_budget(grid, grid.system.replace(num_scatterers=sc), nets,
                                 grid.attack.channel_mode)
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

    def test_pooled_sweep_on_one_cpu(self, attackable_tiny, monkeypatch):
        cfg, nets, _ = attackable_tiny
        grid = self._pool_grid(cfg)
        two = format_rows(run_sweep(grid, nets))
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0})
        assert format_rows(run_sweep(grid, nets)) == two

    def test_sweep_cell_warning_names_its_cell(self, monkeypatch):
        # an untrained system at -20 dB decodes no probe cleanly, so the rmaep
        # cell's vector is zero; a worker's stderr must say which cell warned
        cfg = tiny_experiment()
        nets = build_autoencoder(cfg.system, derive_rng(cfg.seed, "init"))
        monkeypatch.setattr(harness, "_sweep_state", (cfg, nets))
        budget = make_budget(cfg, cfg.system, nets, "ideal")
        expected = ["sc=3 snr=-20.0 dB rmaep (ideal attack channel): 2 probes, none refined "
                    "the vector (2 already broken, 0 skipped), so the vector is zero"]
        with pytest.warns(NoProgress) as caught:
            row, _ = harness._sweep_cell(3, -20.0, "rmaep", budget)
        assert [str(w.message) for w in caught] == expected
        with pytest.warns(NoProgress) as caught:  # the cell's row and warning are unchanged
            assert row == harness.run_cell(cfg, nets, 3, -20.0, "rmaep", budget)
        assert [str(w.message) for w in caught] == expected

    def test_sweep_deterministic_under_seed(self, trained_tiny):
        cfg, nets, _ = trained_tiny
        rows1 = run_sweep(cfg, nets)
        rows2 = run_sweep(cfg, nets)
        assert format_rows(rows1) == format_rows(rows2)

    def test_budget_reference_per_attack_channel(self, trained_tiny):
        # received symbol energy where the perturbation enters at the
        # receiver, transmit symbol energy n_t P^2 at the adversary's port
        cfg, nets, _ = trained_tiny
        sys_cfg = cfg.system.replace(sigma2=0.1)
        sc = sys_cfg.num_scatterers
        received = estimate_received_power(nets, sys_cfg, 256, derive_rng(cfg.seed, "refpower", sc))
        assert make_budget(cfg, sys_cfg, nets, "ideal").reference_power == received
        assert (make_budget(cfg, sys_cfg, nets, "double").reference_power
                == sys_cfg.n_t * sys_cfg.power ** 2)


class TestPersistence:
    def test_checkpoint_records_the_training_noise_level(self, trained_tiny):
        # training runs at the noise level of train.snr_db; the configured
        # sigma2, which every command overrides, is not what it used
        cfg, _, ckpt = trained_tiny
        _, meta = load_checkpoint(ckpt)
        trained = cfg.system.replace(sigma2=snr_to_sigma2(cfg.system.power, cfg.train.snr_db))
        assert meta["system"] == dataclasses.asdict(trained)
        assert meta["system"]["sigma2"] != cfg.system.sigma2

    def test_manifest_rerun_is_byte_identical(self, trained_tiny, tmp_path):
        cfg, nets, ckpt = trained_tiny
        first = tmp_path / "first"
        csv1 = sweep_to_directory(cfg, nets, ckpt, first, progress=False)
        second = tmp_path / "second"
        csv2 = rerun_from_manifest(first / "manifest.json", second, progress=False)
        assert csv1.read_bytes() == csv2.read_bytes()

    def test_manifest_detects_checkpoint_tampering(self, trained_tiny, tmp_path):
        cfg, nets, ckpt = trained_tiny
        out = tmp_path / "run"
        sweep_to_directory(cfg, nets, ckpt, out, progress=False)
        with open(out / "weights.ckpt", "r+b") as fh:
            fh.seek(-8, 2)
            fh.write(b"\x00" * 8)
        with pytest.raises(ConfigInvalid):
            rerun_from_manifest(out / "manifest.json", tmp_path / "again", progress=False)


    @pytest.mark.parametrize("text, where", [
        ('{"manifest_version": 1, "checkpoint": "weights.ckpt", "checkpoint_sha256": "0"}',
         "config"),
        ('{"manifest_version": 1, "config": {}, "checkpoint_sha256": "0"}', "checkpoint"),
        ('{"manifest_version": 1, "config": {}, "checkpoint": "weights.ckpt"}',
         "checkpoint_sha256"),
        ('{"manifest_version": 1, "config": [], "checkpoint": "w", "checkpoint_sha256": "0"}',
         "config"),
        ('{"config": {}}', "manifest_version"),
        ('{"manifest_version": true, "config": {}, "checkpoint": "w", "checkpoint_sha256": "0"}',
         "manifest_version"),
        ('{"manifest_version": 1.0, "config": {}, "checkpoint": "w", "checkpoint_sha256": "0"}',
         "manifest_version"),
        ("{not json", "<file>: not valid JSON"),
        ('{"manifest_version": 1' + "0" * 5000 + "}", "<file>: not valid JSON"),
        ("[1, 2]", "<file>: top level must be an object"),
        (b"\xff\xfe{\x00}\x00", "<file>: not valid UTF-8"),
    ], ids=["no-config", "no-checkpoint", "no-checksum", "config-not-object", "no-version",
            "version-true", "version-float", "not-json", "integer-past-digit-limit", "not-object",
            "not-utf8"])
    def test_malformed_manifest_exits_with_config_error(self, tmp_path, capsys, text, where):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        assert cli_main(["sweep", "--from-manifest", str(manifest),
                         "--out", str(tmp_path / "again")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {where}")

    @pytest.mark.parametrize("edit, match", [
        (lambda arrays, meta: [a for a in arrays if a[0] != "decoder"], "decoder"),
        (lambda arrays, meta: meta.update(system=5) or arrays, "system"),
        (lambda arrays, meta: [a for a in arrays if a[:2] != ("ris2", "layer6.weight")],
         "ris2/layer6.weight is missing"),
        (lambda arrays, meta: arrays[:1] + arrays, "appears twice"),
        # layer 2 of every network is a ReLU, and each has 7 layers
        (lambda arrays, meta: arrays + [("decoder", "layer2.bias", np.zeros(8))], "unknown"),
        (lambda arrays, meta: arrays + [("decoder", "layer9.bias", np.zeros(8))], "unknown"),
        (lambda arrays, meta: arrays + [("enc", "layer0.bias", np.zeros(8))],
         "enc/layer0.bias is unknown"),
        (lambda arrays, meta: [(net, param, value.reshape(2, 4) if param == "layer0.bias"
                                else value) for net, param, value in arrays], "expected shape"),
    ], ids=["missing-network", "system-not-object", "missing-array", "repeated-array",
            "unknown-param", "unknown-layer", "unknown-net", "shape-mismatch"])
    def test_checkpoint_the_system_cannot_use_is_corrupt(self, trained_tiny, tmp_path,
                                                         edit, match):
        cfg, _, ckpt = trained_tiny
        path = tmp_path / "edited.ckpt"
        rewrite_checkpoint(ckpt, path, edit)
        with pytest.raises(CorruptCheckpoint, match=match):
            load_system(path, cfg)

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

    @pytest.mark.parametrize("section, name, value", [
        ("attack", "psr_db", 4000.0), ("attack", "psr_db", -4000.0), ("train", "snr_db", -4000.0),
        ("eval", "snr_sweep_db", [-4000.0]), ("eval", "snr_sweep_db", [8.0, 8.0004])])
    def test_exit_code_on_out_of_bound_field(self, tmp_path, capsys, section, name, value):
        # psr_db 4000 overflowed the jamming budget, -4000 made rmaef's budget
        # 0; an SNR of -4000 dB overflowed snr_to_sigma2 in training and sweeps
        data = dataclasses.asdict(tiny_experiment())
        data[section][name] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert cli_main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert section in err and name in err

    @pytest.mark.parametrize("name", ["spread_tx", "spread_ris", "spread_sc", "spacing_tx",
                                      "spacing_ris_v", "spacing_ris_h", "spacing_sc",
                                      "kernel_size", "bn_eps", "bn_momentum",
                                      "kappa", "omega", "n_adv"])
    def test_exit_code_on_removed_geometry_key(self, tmp_path, capsys, name):
        # element spacing, angular spread, the Rician factor and the link
        # gain are constants of the channel model, and the adversary has n_t
        # antennas; the kernel size and BatchNorm's eps and momentum are
        # constants of risae.neural; a config file that still sets one is
        # refused, not ignored
        data = dataclasses.asdict(tiny_experiment())
        data["system"][name] = 0.5
        old = tmp_path / "old.json"
        old.write_text(json.dumps(data))
        assert cli_main(["train", "--config", str(old), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: system.{name}: unknown field" in capsys.readouterr().err

    def test_exit_code_on_preset_key(self, tmp_path, capsys):
        # the field selected nothing: {"preset": "paper"} trained the system
        # the file declared and recorded it as "paper"; --preset selects one
        data = dataclasses.asdict(tiny_experiment())
        data["preset"] = "paper"
        old = tmp_path / "old.json"
        old.write_text(json.dumps(data))
        assert cli_main(["train", "--config", str(old), "--out", str(tmp_path / "o")]) == 2
        assert "config error: preset: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10 ** 400],
                             ids=["nan", "inf", "huge-int"])
    @pytest.mark.parametrize("section, name, wrap", [
        ("attack", "psr_db", lambda v: v), ("eval", "snr_sweep_db", lambda v: [0.0, v]),
        ("train", "snr_db", lambda v: v)], ids=["psr_db", "snr_sweep_db", "snr_db"])
    def test_exit_code_on_non_finite_number(self, tmp_path, capsys, section, name, wrap,
                                            value):
        data = dataclasses.asdict(tiny_experiment())
        data[section][name] = wrap(value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))  # NaN, Infinity or 400 digits, which json reads back
        assert cli_main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {section}.{name}: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-inf", "nan", "-4000", "4000"])
    @pytest.mark.parametrize("command", ["eval", "attack"])
    def test_exit_code_on_snr_db_option_past_the_db_bound(self, trained_tiny, tmp_path,
                                                          capsys, command, value):
        # -inf dB gave sigma2 = inf, -4000 dB overflowed snr_to_sigma2 into a
        # traceback and 4000 dB gave sigma2 = 0
        cfg, _, ckpt = trained_tiny
        cfg_path = tmp_path / "config.json"
        save_config(cfg, cfg_path)
        argv = [command, "--config", str(cfg_path), "--checkpoint", str(ckpt),
                f"--snr-db={value}"]
        if command == "attack":
            argv += ["--kind", "rmaef", "--out", str(tmp_path / "attack")]
        with pytest.raises(SystemExit) as exit_:
            cli_main(argv)
        assert exit_.value.code == 2
        assert (f"argument --snr-db: must lie in [-300, 300] dB, got {value}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("name", ["attacks", "scatterers"])
    def test_exit_code_on_repeated_grid_entry(self, trained_tiny, tmp_path, capsys, name):
        # a repeated entry ran the same cells again and wrote their rows twice
        cfg, _, ckpt = trained_tiny
        data = dataclasses.asdict(cfg)
        data[name] = data[name][:1] * 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert cli_main(["sweep", "--config", str(bad), "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {name}: " in capsys.readouterr().err

    def test_attack_refuses_jamming(self, tmp_path, capsys):
        # the exported jamming draw was a vector no sweep cell evaluates: the
        # jamming cell draws a fresh vector per block
        with pytest.raises(SystemExit) as exit_:
            cli_main(["attack", "--checkpoint", str(tmp_path / "none.ckpt"), "--kind", "jamming",
                      "--snr-db", "4", "--out", str(tmp_path / "attack")])
        assert exit_.value.code == 2
        assert "argument --kind: invalid choice: 'jamming'" in capsys.readouterr().err
        assert not (tmp_path / "attack").exists()

    def test_attack_line_reports_the_counts(self, attackable_tiny, tmp_path, capsys):
        # the construction's counts were dropped on the way to the export
        cfg, _, ckpt = attackable_tiny
        cfg_path = tmp_path / "config.json"
        save_config(cfg, cfg_path)
        assert cli_main(["attack", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                         "--kind", "rmaep", "--snr-db", "4",
                         "--out", str(tmp_path / "attack")]) == 0
        nets = load_system(ckpt, cfg)
        sys_cfg = cfg.system.replace(sigma2=snr_to_sigma2(cfg.system.power, 4.0))
        r = attack_vector(cfg, sys_cfg, nets, "rmaep", 4.0,
                          make_budget(cfg, sys_cfg, nets, cfg.attack.channel_mode))
        assert r.flips_found >= 1
        assert (f"; {r.iterations} probes: {r.flips_found} refined the vector, "
                f"{r.already_broken} already broken, {r.skipped} skipped; "
                f"{r.grad_evals} decoder gradients; " in capsys.readouterr().out)

    def test_attack_warns_once_per_zero_vector(self, trained_tiny, tmp_path, capsys):
        # Python's default filter shows a warning once per text and line; a
        # warning that did not name its count printed one line for two zero
        # vectors
        cfg, _, ckpt = trained_tiny
        cfg = copy.deepcopy(cfg)
        cfg.scatterers = [2, 3]
        cfg_path = tmp_path / "config.json"
        save_config(cfg, cfg_path)
        out = tmp_path / "attack"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            assert cli_main(["attack", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                             "--kind", "rmaep", "--snr-db", "-20", "--out", str(out)]) == 0
        assert capsys.readouterr().out.count(" 0 refined the vector") == 2
        for sc in (2, 3):
            assert not load_perturbation(out / f"rmaep-sc{sc}.csv")[0].values.any()
        assert [w.category for w in caught] == [NoProgress, NoProgress]
        assert [str(w.message).split()[0] for w in caught] == ["sc=2", "sc=3"]

    @pytest.mark.parametrize("mode", ["ideal", "double"])
    @pytest.mark.parametrize("kind", ["rmaep", "rmaef"])
    def test_attack_exports_the_vector_the_sweep_cell_builds(self, attackable_tiny, tmp_path,
                                                             kind, mode):
        # replaying an exported perturbation stands for the sweep cell with
        # the same seed, scatterer count and SNR only if both build one
        # vector; attack built one, at system.num_scatterers (3), whatever
        # the config's scatterers
        cfg, _, ckpt = attackable_tiny
        cfg = copy.deepcopy(cfg)  # trained at system.num_scatterers 3
        cfg.scatterers = [2, 3]
        cfg.attack.channel_mode = mode
        cfg_path = tmp_path / "config.json"
        save_config(cfg, cfg_path)
        out = tmp_path / "attack"
        snr_db = cfg.eval.snr_sweep_db[-1]
        assert cli_main(["attack", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                         "--kind", kind, "--snr-db", str(snr_db), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [f"{kind}-sc2.csv", f"{kind}-sc3.csv"]
        nets = load_system(ckpt, cfg)
        for sc in cfg.scatterers:
            sys_cfg = cfg.system.replace(num_scatterers=sc,
                                         sigma2=snr_to_sigma2(cfg.system.power, snr_db))
            source = build_attack_source(cfg, sys_cfg, nets, kind, snr_db,
                                         make_budget(cfg, sys_cfg, nets, mode))
            vector, meta = load_perturbation(out / f"{kind}-sc{sc}.csv")
            assert meta["scatterers"] == sc
            assert source.p_adv.any()
            assert np.array_equal(vector.values, source.p_adv)

    @pytest.mark.parametrize("command, option", [("attack", "--mode=double"),
                                                 ("eval", "--blocks=10")])
    def test_settings_come_only_from_the_config(self, tmp_path, capsys, command, option):
        # attack.channel_mode and eval.test_blocks had a second source in
        # these options
        argv = [command, "--checkpoint", str(tmp_path / "none.ckpt"), "--snr-db", "4", option]
        if command == "attack":
            argv += ["--kind", "rmaef", "--out", str(tmp_path / "attack")]
        with pytest.raises(SystemExit) as exit_:
            cli_main(argv)
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("sources", [[], ["--checkpoint", "w.ckpt", "--from-manifest", "m"]],
                             ids=["neither", "both"])
    def test_sweep_takes_its_networks_from_one_source(self, tmp_path, capsys, sources):
        # without either the sweep trained first; given both, it ignored the
        # checkpoint
        with pytest.raises(SystemExit) as exit_:
            cli_main(["sweep", "--out", str(tmp_path / "o"), *sources])
        assert exit_.value.code == 2
        assert "--checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("option", [["--config", "c.json"], ["--preset", "paper"],
                                        ["--seed", "3"]], ids=["config", "preset", "seed"])
    def test_manifest_rerun_refuses_what_it_would_ignore(self, trained_tiny, tmp_path, capsys,
                                                         option):
        # the rerun takes its config and seed from the manifest; given one of
        # these, it exited 0 with the manifest's results
        cfg, nets, ckpt = trained_tiny
        sweep_to_directory(cfg, nets, ckpt, tmp_path / "first", progress=False)
        assert cli_main(["sweep", "--from-manifest", str(tmp_path / "first" / "manifest.json"),
                         *option, "--out", str(tmp_path / "o")]) == 2
        assert (f"argument {option[0]}: not allowed with argument --from-manifest"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.fixture
    def two_checkpoints(self, trained_tiny, tmp_path):
        """A config that sweeps one cheap cell, a training directory a/ holding
        the tiny checkpoint, and b/ holding another checkpoint of the same name
        with its manifest."""
        cfg, _, ckpt = trained_tiny
        cfg = copy.deepcopy(cfg)
        cfg.eval.snr_sweep_db, cfg.eval.test_blocks, cfg.attacks = [8.0], 10, ["secured"]
        cfg_path = tmp_path / "config.json"
        save_config(cfg, cfg_path)
        a, b = tmp_path / "a" / "weights.ckpt", tmp_path / "b" / "weights.ckpt"
        a.parent.mkdir()
        b.parent.mkdir()
        a.write_bytes(ckpt.read_bytes())
        rewrite_checkpoint(ckpt, b, lambda arrays, meta: [
            (net, param, value + 0.5 if (net, param) == ("decoder", "layer0.bias") else value)
            for net, param, value in arrays])
        harness.write_manifest(b.parent / "manifest.json", cfg, b, "results.csv")
        return cfg_path, a, b

    @pytest.mark.parametrize("source", ["checkpoint", "manifest"])
    def test_sweep_refuses_a_directory_holding_another_checkpoint(self, two_checkpoints, capsys,
                                                                   source):
        # the sweep replaced a training directory's weights.ckpt, which its
        # training log and config.json then no longer described
        cfg_path, a, b = two_checkpoints
        before = a.read_bytes()
        nets_from = (["--config", str(cfg_path), "--checkpoint", str(b)] if source == "checkpoint"
                     else ["--from-manifest", str(b.parent / "manifest.json")])
        assert cli_main(["sweep", *nets_from, "--out", str(a.parent)]) == 3
        assert a.read_bytes() == before
        assert not (a.parent / "results.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and str(a) in err and str(b) in err

    def test_sweep_into_a_directory_holding_the_same_checkpoint(self, two_checkpoints):
        cfg_path, _, b = two_checkpoints
        assert cli_main(["sweep", "--from-manifest", str(b.parent / "manifest.json"),
                         "--out", str(b.parent)]) == 0
        out = b.parent.parent / "c"
        for _ in range(2):
            assert cli_main(["sweep", "--config", str(cfg_path), "--checkpoint", str(b),
                             "--out", str(out)]) == 0
        assert (out / "weights.ckpt").read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command, rest", [
        ("train", ["--out", "o"]),
        ("eval", ["--checkpoint", "w.ckpt", "--snr-db", "4"]),
        ("attack", ["--checkpoint", "w.ckpt", "--kind", "rmaef", "--snr-db", "4",
                    "--out", "attack"]),
        ("sweep", ["--checkpoint", "w.ckpt", "--out", "o"])],
        ids=["train", "eval", "attack", "sweep"])
    def test_config_and_preset_exclude_each_other(self, tmp_path, capsys, monkeypatch,
                                                  command, rest):
        # the preset was ignored next to a config file
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            cli_main([command, "--config", "c.json", "--preset", "paper", *rest])
        assert exit_.value.code == 2
        assert "argument --preset: not allowed with argument --config" in capsys.readouterr().err

    def test_command_sets_the_heap_policy(self, trained_tiny, tmp_path, monkeypatch):
        # attack ran with glibc's default mmap and trim thresholds
        cfg, _, ckpt = trained_tiny
        cfg_path = tmp_path / "config.json"
        save_config(cfg, cfg_path)
        calls = []
        monkeypatch.setattr(cli, "set_heap_policy", lambda: calls.append("attack"))
        assert cli_main(["attack", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                         "--snr-db", "4", "--kind", "rmaef",
                         "--out", str(tmp_path / "attack")]) == 0
        assert calls == ["attack"]

    def test_sweep_worker_sets_the_heap_policy(self, trained_tiny, tmp_path, monkeypatch):
        # eval's cells run in forked sweep workers, and only a worker's
        # initializer sets the policy for them
        cfg, _, ckpt = trained_tiny
        cfg_path = tmp_path / "config.json"
        save_config(cfg, cfg_path)
        marks = tmp_path / "marks"
        marks.mkdir()
        monkeypatch.setattr(harness, "set_heap_policy",
                            lambda: (marks / str(os.getpid())).touch())
        assert cli_main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                         "--snr-db", "4"]) == 0
        pids = {int(mark.name) for mark in marks.iterdir()}
        assert pids and os.getpid() not in pids

    def test_eval_prints_the_sweep_row_of_every_count(self, attackable_tiny, tmp_path, capsys):
        # eval ran at system.num_scatterers whatever the config's scatterers,
        # and labelled the row with it
        cfg, nets, ckpt = attackable_tiny
        cfg = copy.deepcopy(cfg)  # trained at system.num_scatterers 3
        cfg.scatterers = [2, 3]
        cfg.attacks = ["secured", "rmaef"]
        cfg_path = tmp_path / "config.json"
        save_config(cfg, cfg_path)
        snr_db = cfg.eval.snr_sweep_db[-1]
        want = [row for row in run_sweep(cfg, nets)
                if row.snr_db == snr_db and row.attack == "rmaef"]
        assert [row.scatterers for row in want] == [2, 3]
        capsys.readouterr()
        assert cli_main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                         "--attack", "rmaef", "--snr-db", str(snr_db)]) == 0
        assert capsys.readouterr().out == format_rows(want)

    def test_exit_code_on_missing_checkpoint(self, tmp_path):
        code = cli_main(["eval", "--preset", "desk", "--checkpoint",
                         str(tmp_path / "none.ckpt"), "--snr-db", "0"])
        assert code == 3

    @pytest.mark.parametrize("command", ["train", "sweep", "attack", "eval"])
    def test_exit_code_on_any_os_error(self, trained_tiny, tmp_path, capsys, command):
        # a path through a regular file raised NotADirectoryError, which no
        # except clause listed: it escaped with a traceback and exit 1
        cfg, _, ckpt = trained_tiny
        cfg_path = tmp_path / "config.json"
        save_config(cfg, cfg_path)
        afile = tmp_path / "afile"
        afile.write_text("")
        nets_from = ["--config", str(cfg_path), "--checkpoint", str(ckpt)]
        argv = {"train": ["train", "--config", str(cfg_path), "--out", str(afile / "sub")],
                "sweep": ["sweep", *nets_from, "--out", str(afile / "sub")],
                "attack": ["attack", *nets_from, "--kind", "rmaef", "--snr-db", "4",
                           "--out", str(afile / "sub")],
                "eval": ["eval", "--config", str(afile / "c.json"), "--checkpoint", str(ckpt),
                         "--snr-db", "4"]}[command]
        before = sorted(tmp_path.rglob("*"))
        assert cli_main(argv) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert sorted(tmp_path.rglob("*")) == before and afile.read_text() == ""

    @pytest.mark.parametrize("command", ["eval", "attack"])
    # the search radius p_max is a constant of the search, not a setting
    @pytest.mark.parametrize("attack, message", [({"n_p": 0}, "must be >= 1"),
                                                 ({"channel_mode": "bogus"}, "must be one of"),
                                                 ({"p_max": 1.0}, "unknown field")],
                             ids=["n_p", "channel_mode", "p_max"])
    def test_exit_code_on_bad_attack_settings(self, trained_tiny, tmp_path, capsys,
                                              command, attack, message):
        cfg, _, ckpt = trained_tiny
        data = dataclasses.asdict(cfg)
        data["attack"].update(attack)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        argv = [command, "--config", str(bad), "--checkpoint", str(ckpt), "--snr-db", "4"]
        if command == "eval":
            argv += ["--attack", "rmaep"]
        else:
            argv += ["--kind", "rmaep", "--out", str(tmp_path / "attack")]
        assert cli_main(argv) == 2
        assert f"config error: attack.{next(iter(attack))}: {message}" in capsys.readouterr().err

    def test_exit_code_on_truncated_checkpoint(self, trained_tiny, tmp_path, capsys):
        cfg, _, ckpt = trained_tiny
        cfg_path = tmp_path / "config.json"
        save_config(cfg, cfg_path)
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(ckpt.read_bytes()[:-8])
        assert cli_main(["eval", "--config", str(cfg_path), "--checkpoint", str(cut),
                         "--snr-db", "4"]) == 3
        assert "truncated" in capsys.readouterr().err

    def test_exit_code_on_malformed_checkpoint_header(self, tmp_path, capsys):
        header = b"{}"
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"RISAECK1" + (1).to_bytes(4, "little")
                        + len(header).to_bytes(4, "little") + header)
        assert cli_main(["eval", "--preset", "desk", "--checkpoint", str(bad),
                         "--snr-db", "0"]) == 3
        assert "malformed checkpoint header" in capsys.readouterr().err

    def test_exit_code_on_checkpoint_header_past_digit_limit(self, tmp_path, capsys):
        # Python refuses to parse an integer literal of more than 4,300 digits
        header = b'{"arrays": [], "meta": {"n": 1' + b"0" * 5000 + b'}, "version": 1}'
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"RISAECK1" + struct.pack("<II", 1, len(header)) + header)
        assert cli_main(["eval", "--preset", "desk", "--checkpoint", str(bad),
                         "--snr-db", "0"]) == 3
        assert "unreadable checkpoint header" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda src, dst: with_first_shape(src, dst, [2 ** 61]), "truncated"),
        (lambda src, dst: with_first_shape(src, dst, [2 ** 34]), "truncated"),
        (lambda src, dst: rewrite_checkpoint(src, dst, fill_first_array(np.nan)), "non-finite"),
        (lambda src, dst: rewrite_checkpoint(src, dst, fill_first_array(-np.inf)), "non-finite"),
    ], ids=["shape-2**61", "shape-2**34", "nan-values", "inf-values"])
    def test_exit_code_on_oversized_or_non_finite_checkpoint(self, trained_tiny, tmp_path,
                                                              capsys, edit, message):
        # an array is refused before it is read when it is larger than the
        # rest of the file, and after it is read when it holds a non-finite value
        cfg, _, ckpt = trained_tiny
        cfg_path = tmp_path / "config.json"
        save_config(cfg, cfg_path)
        bad = tmp_path / "bad.ckpt"
        edit(ckpt, bad)
        assert cli_main(["eval", "--config", str(cfg_path), "--checkpoint", str(bad),
                         "--snr-db", "4"]) == 3
        assert message in capsys.readouterr().err

    def test_exit_code_on_config_file_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "config.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        assert cli_main(["sweep", "--config", str(bad), "--checkpoint", str(tmp_path / "w.ckpt"),
                         "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: <file>: not valid UTF-8")

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
        cfg.eval.test_blocks = 10
        cfg_path = tmp_path / "config.json"
        save_config(cfg, cfg_path)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        ckpt = out / "weights.ckpt"
        assert ckpt.exists()

        assert cli_main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                         "--attack", "secured", "--snr-db", "4"]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed[-2] == "snr_db,attack,ser,trials,ci_halfwidth,scatterers,attack_channel"

        pert = tmp_path / "attack"
        assert cli_main(["attack", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                         "--kind", "rmaef", "--snr-db", "4", "--out", str(pert)]) == 0
        assert [p.name for p in pert.iterdir()] == ["rmaef-sc3.csv"]

        sweep_dir = tmp_path / "sweep"
        assert cli_main(["sweep", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                         "--out", str(sweep_dir)]) == 0
        assert sorted(p.name for p in sweep_dir.iterdir()) == [
            "manifest.json", "results.csv", "weights.ckpt"]
        lines = (sweep_dir / "results.csv").read_text().strip().splitlines()
        assert lines[0] == "snr_db,attack,ser,trials,ci_halfwidth,scatterers,attack_channel"
        cells = len(cfg.scatterers) * len(cfg.eval.snr_sweep_db) * len(cfg.attacks)
        assert len(lines) == 1 + cells

    @pytest.mark.parametrize("seed", [-1, 2 ** 64], ids=["minus-one", "two-to-the-64"])
    def test_exit_code_on_seed_outside_64_bits(self, tmp_path, capsys, seed):
        # -1 drew the streams of 2**64 - 1, and training started
        code = cli_main(["train", "--seed", str(seed), "--out", str(tmp_path / "o")])
        assert code == 2
        assert (f"config error: seed: must lie in [0, 2**64), got {seed}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_exit_code_on_degenerate_training(self, tmp_path):
        # with one hidden channel, a block whose ReLU output is all zero
        # reaches PowerNorm with zero power; this ended in a traceback and exit 1
        cfg_path = tmp_path / "degenerate.json"
        cfg_path.write_text(json.dumps({
            "system": {"n_t": 1, "n_r": 1, "a1_v": 1, "a1_h": 1, "a2_v": 1, "a2_h": 1,
                       "m": 2, "block_len": 1, "hidden_width": 1},
            "train": {"epochs": 1, "train_symbols": 64}, "seed": 7}))
        result = subprocess.run([sys.executable, "-m", "risae.cli", "train", "--config",
                                 str(cfg_path), "--out", str(tmp_path / "o")],
                                capture_output=True, text=True)
        assert result.returncode == 4
        assert "Traceback" not in result.stderr
        assert result.stderr.splitlines() == [
            "run error: block power below 1e-30; cannot normalize"]

    def test_exit_code_on_diverged_training(self, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise Diverged("loss became non-finite at epoch 0")

        monkeypatch.setattr(harness, "train", diverge)
        cfg_path = tmp_path / "config.json"
        save_config(tiny_experiment(), cfg_path)
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == "run error: loss became non-finite at epoch 0\n"

    def test_module_invocation(self):
        result = subprocess.run([sys.executable, "-m", "risae.cli", "--help"],
                                capture_output=True, text=True)
        assert result.returncode == 0
        assert "sweep" in result.stdout
