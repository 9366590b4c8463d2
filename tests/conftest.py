"""Fixtures shared by the test modules."""

import pytest

from risae.attack import AttackSettings
from risae.config import SystemConfig
from risae.harness import EvalSettings, ExperimentConfig, TrainSettings, train_system


@pytest.fixture(scope="session")
def attackable_tiny(tmp_path_factory):
    """(config, networks, checkpoint) of a tiny two-class system trained at
    20 dB until most probes decode cleanly, so that rmaep reaches its search
    and flips on both attack channels; about 1.5 s. Its ``system.sigma2`` is
    that training noise level. A test that changes the config changes a deep
    copy."""
    cfg = ExperimentConfig(
        system=SystemConfig(n_t=2, n_r=2, a1_v=1, a1_h=2, a2_v=1, a2_h=2, m=2, block_len=3,
                            num_scatterers=3, hidden_width=8, sigma2=0.01),
        train=TrainSettings(snr_db=20.0, epochs=60, learning_rate=1e-2, batch_blocks=64,
                            train_symbols=768),
        eval=EvalSettings(snr_sweep_db=[0.0, 8.0], test_blocks=30),
        attack=AttackSettings(psr_db=-7.0, n_p=4, n_s=1, channel_mode="ideal"),
        attacks=["secured", "jamming"],
        scatterers=[3],
        seed=101,
    )
    nets, ckpt = train_system(cfg, tmp_path_factory.mktemp("attackable_tiny"))
    return cfg, nets, ckpt
