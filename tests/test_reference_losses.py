"""Replays the benchmark's training loss checks in tier-1.

``perfbench/run.py --workload desk-train`` and ``--workload paper-train``
(seed 7) build the preset's system, run one warm-up optimizer step, then
compare the losses of the next steps with ``perfbench/reference/losses.json``.
These tests make the same steps in the same way, so a change to any layer of
the training path that moves a loss shows here and not only in a benchmark
run; the paper preset checks the GEMM-bound shapes the desk preset does not
reach. The reference file is read, never written.
"""

import json
from pathlib import Path

import numpy as np

from risae.autoencoder import build_autoencoder, train
from risae.channel import ChannelModel
from risae.harness import PRESETS, derive_rng, snr_to_sigma2
from risae.neural import AdamState

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "losses.json"
SEED = 7
LOSS_RTOL = 1e-6  # the benchmark's tolerance, for BLAS summation order


def replay_losses(workload: str, preset: str, steps: int) -> None:
    want = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload][:steps]
    assert len(want) == steps
    cfg = PRESETS[preset](SEED)
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
    got = [step() for _ in range(steps)]
    np.testing.assert_allclose(got, want, rtol=LOSS_RTOL, atol=0.0)


def test_desk_train_losses_match_benchmark_reference():
    replay_losses("desk-train", "desk", 20)


def test_paper_train_losses_match_benchmark_reference():
    replay_losses("paper-train", "paper", 5)
