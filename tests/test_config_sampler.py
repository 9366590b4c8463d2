"""Seeded sampler over tiny configs: every accepted config runs each command
or exits with a typed code.

Each sampled config trains for one epoch and then runs ``eval`` for every
attack kind, ``attack`` for every constructed kind and ``sweep``, through
``cli.main`` in this process. A config whose training exits 4 (a degenerate
block or a diverged loss) has no checkpoint, so its other commands are
skipped. The sampler draws from numpy only, so the test needs nothing beyond
numpy and pytest.
"""

import json
import math

import numpy as np
import pytest

from risae.attack import load_perturbation
from risae.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RUN
from risae.cli import main as cli_main
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
    1-3 scatterers, one epoch and a few blocks and probes."""
    def draw(low, high):
        return int(rng.integers(low, high + 1))

    system = {name: draw(1, 3) for name in ("n_t", "n_r", "a1_v", "a1_h", "a2_v", "a2_h")}
    system.update(m=draw(2, 4), block_len=draw(1, 3), hidden_width=draw(1, 4),
                  num_scatterers=draw(1, 3))
    return {
        "system": system,
        "train": {"epochs": 1, "batch_blocks": 4, "train_symbols": 8 * system["block_len"]},
        "eval": {"snr_sweep_db": [SNR_DB], "test_blocks": 4},
        "attack": {"psr_db": float(rng.choice(PSR_DB)), "n_p": 2, "n_s": 2,
                   "channel_mode": str(rng.choice(["ideal", "double"]))},
        "scatterers": [system["num_scatterers"]],
        "seed": draw(0, 2 ** 32 - 1),
    }


def run(argv: list[str]) -> int:
    code = cli_main(argv)
    assert code in EXIT_CODES, f"{argv[0]} exited {code}"
    return code


@pytest.mark.filterwarnings("ignore::risae.errors.NoProgress")
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

    for kind in ATTACK_KINDS:
        if run(["eval", *common, *ckpt, "--attack", kind, "--snr-db", str(SNR_DB)]) == EXIT_OK:
            (row,) = parse_rows(capsys.readouterr().out)
            assert math.isfinite(row.ser) and 0.0 <= row.ser <= 1.0

    for kind in ATTACK_KINDS[1:]:
        out = tmp_path / f"{kind}.csv"
        if run(["attack", *common, *ckpt, "--kind", kind, "--snr-db", str(SNR_DB),
                "--out", str(out)]) == EXIT_OK:
            vector, meta = load_perturbation(out)
            assert vector.power <= meta["budget"] * (1.0 + 1e-9)
            assert meta["channel_mode"] == data["attack"]["channel_mode"]

    sweep = tmp_path / "sweep"
    if run(["sweep", *common, *ckpt, "--out", str(sweep)]) == EXIT_OK:
        rows = parse_rows((sweep / "results.csv").read_text())
        assert len(rows) == len(ATTACK_KINDS)
        assert all(math.isfinite(row.ser) for row in rows)
