"""The paper's first SER ordering on the benchmark's reference checkpoint.

Jamming at the attack budget must raise the symbol error rate above the
secured link's, by more than the two cells' 95% half-widths together, at
8 dB on both attack channels and at 1, 9 and 64 scatterers. The checkpoint
is loaded through ``load_system``, as in ``tests/test_reference_sweep.py``,
so nothing is trained, and the cells run through ``run_sweep``, so the
numbers are the ones ``risae sweep`` writes. No reference data is written.
"""

from pathlib import Path

import pytest

from risae.harness import desk_preset, load_system, run_sweep

CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "desk-seed7.ckpt"
SEED = 7
SCATTERERS = (1, 9, 64)


@pytest.mark.parametrize("channel", ["ideal", "double"])
def test_jamming_ranks_above_secured(channel):
    cfg = desk_preset(SEED)
    cfg.attacks = ("secured", "jamming")
    cfg.eval.snr_sweep_db = (8.0,)
    cfg.scatterers = SCATTERERS
    cfg.attack.channel_mode = channel
    rows = {(row.scatterers, row.attack): row
            for row in run_sweep(cfg, load_system(CHECKPOINT, cfg))}
    for sc in SCATTERERS:
        secured, jamming = rows[sc, "secured"], rows[sc, "jamming"]
        margin = jamming.ser - secured.ser
        halfwidths = jamming.ci_halfwidth + secured.ci_halfwidth
        assert margin > halfwidths, (channel, sc, margin, halfwidths)
