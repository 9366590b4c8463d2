"""Replays one 8 dB cell of every kind of the benchmark's desk-sweep check in tier-1.

``perfbench/run.py --workload desk-sweep`` loads the reference checkpoint
with the desk preset (master seed 7), sweeps it at 8 dB and accepts a cell
when it has the reference's trial count and its SER lies inside the Wilson
interval of the reference row in ``perfbench/reference/results.csv``. This
test loads the same checkpoint through ``load_system`` and runs the
``secured``, ``jamming``, ``rmaef`` and ``rmaep`` cells with ``run_cell``,
so a change to how a checkpoint becomes networks, or to how the attacks are
built, shows here and not only in a benchmark run. The reference files are
read, never written.
"""

from pathlib import Path

import pytest

from risae.autoencoder import wilson_interval
from risae.harness import desk_preset, load_system, make_budget, parse_rows, run_cell

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
SEED = 7
SNR_DB = 8.0


@pytest.fixture(scope="module")
def reference_system():
    cfg = desk_preset(SEED)
    return cfg, load_system(REFERENCE / "desk-seed7.ckpt", cfg)


@pytest.mark.parametrize("kind", ["secured", "jamming", "rmaef", "rmaep"])
def test_cell_matches_benchmark_reference(reference_system, kind):
    cfg, nets = reference_system
    rows = parse_rows((REFERENCE / "results.csv").read_text(encoding="utf-8"))
    want = next(r for r in rows if r.snr_db == SNR_DB and r.attack == kind)
    budget = make_budget(cfg, cfg.system, nets, cfg.attack.channel_mode)
    got = run_cell(cfg, nets, cfg.scatterers[0], SNR_DB, kind, budget)
    low, high = wilson_interval(round(want.ser * want.trials), want.trials)
    assert got.trials == want.trials == cfg.eval.test_blocks * cfg.system.block_len
    assert (got.scatterers, got.attack_channel) == (want.scatterers, want.attack_channel)
    assert low <= got.ser <= high, (got.ser, want.ser, (low, high))
