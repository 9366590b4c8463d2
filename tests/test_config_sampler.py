"""Seeded sampler over tiny configs: every accepted config runs each command
or exits with a typed code.

Each sampled config trains for one epoch at ``system.num_scatterers`` and
then runs ``eval`` for every attack kind, ``attack`` for every constructed
kind and ``sweep`` at each of its one or two ``scatterers``, through
``cli.main`` in this process. A config whose training exits 4 (a degenerate
block or a diverged loss) has no checkpoint, so its other commands are
skipped. The sampler draws from numpy only, so the test needs nothing beyond
numpy and pytest.
"""

import json
import math
import warnings

import numpy as np
import pytest

from risae.attack import load_perturbation
from risae.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RUN
from risae.cli import main as cli_main
from risae.errors import NoProgress
from risae.harness import ATTACK_KINDS, parse_rows

SAMPLER_SEED = 4
CONFIGS = 10
# 45 and 60 dB put the budget past a few million, where an absolute budget
# tolerance refused vectors rescaled exactly onto it
PSR_DB = (-7.0, 0.0, 20.0, 45.0, 60.0)
SNR_DB = 8.0
EXIT_CODES = {EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_RUN}


def sample_config(rng: np.random.Generator) -> dict:
    """A tiny config: array dimensions 1-3, m 2-4, block_len 1-3, width 1-4,
    trained at 1-3 scatterers and run at one or two distinct counts in 1-3,
    one epoch and a few blocks and probes. The run counts are drawn last, so
    every other field is the draw it was before they were sampled."""
    def draw(low, high):
        return int(rng.integers(low, high + 1))

    system = {name: draw(1, 3) for name in ("n_t", "n_r", "a1_v", "a1_h", "a2_v", "a2_h")}
    system.update(m=draw(2, 4), block_len=draw(1, 3), hidden_width=draw(1, 4),
                  num_scatterers=draw(1, 3))
    data = {
        "system": system,
        "train": {"epochs": 1, "batch_blocks": 4, "train_symbols": 8 * system["block_len"]},
        "eval": {"snr_sweep_db": [SNR_DB], "test_blocks": 4},
        "attack": {"psr_db": float(rng.choice(PSR_DB)), "n_p": 2, "n_s": 2,
                   "channel_mode": str(rng.choice(["ideal", "double"]))},
        "seed": draw(0, 2 ** 32 - 1),
    }
    data["scatterers"] = [int(n) for n in rng.choice([1, 2, 3], draw(1, 2), replace=False)]
    return data


def run(argv: list[str]) -> int:
    code = cli_main(argv)
    assert code in EXIT_CODES, f"{argv[0]} exited {code}"
    return code


def run_ignoring_no_progress(argv: list[str]) -> int:
    """run, for a command whose cells run in forked sweep workers: a worker
    inherits the error filter of the tests, so a zero vector's NoProgress,
    which the worker warns again naming its cell, would end the command
    with the warning raised instead of a typed exit."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NoProgress)
        return run(argv)


@pytest.mark.parametrize("index", range(CONFIGS))
def test_sampled_config_runs_or_exits_with_a_typed_code(tmp_path, capsys, index):
    data = sample_config(np.random.default_rng([SAMPLER_SEED, index]))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    common = ["--config", str(cfg_path)]
    if run(["train", *common, "--out", str(tmp_path / "run")]) == EXIT_RUN:
        return
    ckpt = ["--checkpoint", str(tmp_path / "run" / "weights.ckpt")]
    capsys.readouterr()

    counts = sorted(data["scatterers"])
    for kind in ATTACK_KINDS:
        if run_ignoring_no_progress(["eval", *common, *ckpt, "--attack", kind,
                                     "--snr-db", str(SNR_DB)]) == EXIT_OK:
            rows = parse_rows(capsys.readouterr().out)
            assert [row.scatterers for row in rows] == counts
            assert all(math.isfinite(row.ser) and 0.0 <= row.ser <= 1.0 for row in rows)

    for kind in ("rmaef", "rmaep"):
        out = tmp_path / kind
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NoProgress)
            code = run(["attack", *common, *ckpt, "--kind", kind, "--snr-db", str(SNR_DB),
                        "--out", str(out)])
        if code == EXIT_OK:
            zero = 0
            for sc in counts:
                vector, meta = load_perturbation(out / f"{kind}-sc{sc}.csv")
                assert vector.power <= meta["budget"] * (1.0 + 1e-9)
                assert meta["channel_mode"] == data["attack"]["channel_mode"]
                assert meta["scatterers"] == sc
                zero += not vector.values.any()
            # NoProgress is warned exactly when an export's vector is zero
            assert sum(w.category is NoProgress for w in caught) == zero

    sweep = tmp_path / "sweep"
    if run_ignoring_no_progress(["sweep", *common, *ckpt, "--out", str(sweep)]) == EXIT_OK:
        rows = parse_rows((sweep / "results.csv").read_text())
        assert len(rows) == len(ATTACK_KINDS) * len(counts)
        assert all(math.isfinite(row.ser) for row in rows)
