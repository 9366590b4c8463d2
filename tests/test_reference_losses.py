"""Replays the benchmark's desk-train loss check in tier-1.

``perfbench/run.py --workload desk-train`` (seed 7) builds the desk system,
runs one warm-up optimizer step, then compares the losses of the next steps
with ``perfbench/reference/losses.json``. This test makes the same 20 steps
in the same way, so a change to any layer of the training path that moves a
loss shows here and not only in a benchmark run. The reference file is read,
never written.
"""

import json
from pathlib import Path

import numpy as np

from risae.autoencoder import build_autoencoder, train
from risae.channel import ChannelModel
from risae.harness import desk_preset, derive_rng, snr_to_sigma2
from risae.neural import AdamState

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "losses.json"
SEED = 7
STEPS = 20
LOSS_RTOL = 1e-6  # the benchmark's tolerance, for BLAS summation order


def test_desk_train_losses_match_benchmark_reference():
    want = json.loads(REFERENCE.read_text(encoding="utf-8"))["desk-train"][:STEPS]
    assert len(want) == STEPS
    cfg = desk_preset(SEED)
    sys_cfg = cfg.system.replace(sigma2=snr_to_sigma2(cfg.system.power, cfg.train.snr_db))
    nets = build_autoencoder(sys_cfg, derive_rng(cfg.seed, "init"))
    model = ChannelModel(sys_cfg)
    adam = AdamState(lr=cfg.train.learning_rate)
    rng = derive_rng(cfg.seed, "train")
    batch = cfg.train.batch_blocks

    def step() -> float:
        result = train(nets, sys_cfg, batch * sys_cfg.block_len, 1, cfg.train.learning_rate,
                       rng, batch_blocks=batch, channel_model=model, adam=adam)
        return result.loss_history[0]

    step()  # warm-up, as in the benchmark; its loss is not checked
    got = [step() for _ in range(STEPS)]
    np.testing.assert_allclose(got, want, rtol=LOSS_RTOL, atol=0.0)
