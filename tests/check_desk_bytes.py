"""Byte check: the desk outputs of the working tree must equal those of a base commit.

Usage: ``python tests/check_desk_bytes.py BASE`` (from any directory inside
the repository; needs git, numpy and the commit BASE). The runner checks BASE
out with ``git worktree add --detach`` under a temporary directory and, in
that tree and in the working tree, each importing risae from its own
``src/``, runs:

- the desk sweep (``risae sweep --preset desk --seed 7``) on the tree's
  ``perfbench/reference/desk-seed7.ckpt``, keeping its ``results.csv``;
- ``risae attack --seed 7 --snr-db 8`` of rmaep and rmaef on the desk
  preset, with the ``ideal`` and with the ``double`` attack channel, and
  ``--seed 4`` of rmaep on ``double``, whose vector, unlike seed 7's, is not
  zero, so that the minimal-flip search and the ridge solve of the ``double``
  channel are covered; keeping every exported vector;
- the desk (20 steps) and paper (5 steps) training-loss replays of
  ``tests/test_reference_losses.py``, one ``repr`` per loss. A tree whose
  replay module has no ``train_losses`` runs the working tree's.

It names every output that differs, or exists in one tree only, and exits 1
on any difference or failed command; otherwise 0. The worktree is removed
however the run ends. Tier-1 accepts any SER inside a Wilson interval and
any loss within a relative 1e-6, so this check, not tier-1, is what holds a
change to the same bytes. The file name keeps pytest from collecting it.
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPLAY = Path("tests") / "test_reference_losses.py"
CKPT = ["--checkpoint", "perfbench/reference/desk-seed7.ckpt"]
DESK = ["--seed", "7", *CKPT]
DOUBLE_CONFIG = ("import sys; from risae.harness import PRESETS, save_config\n"
                 "cfg = PRESETS['desk'](); cfg.attack.channel_mode = 'double'\n"
                 "save_config(cfg, sys.argv[1])")
LOSSES = ("import runpy, sys; train_losses = runpy.run_path(sys.argv[1])['train_losses']\n"
          "print(*map(repr, train_losses('desk', 20) + train_losses('paper', 5)), sep='\\n')")


def desk_outputs(tree: Path, out: Path) -> dict[str, bytes]:
    """Every compared output of tree, keyed by a name common to both trees."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))

    def run(*args: str) -> bytes:
        return subprocess.run([sys.executable, *args], cwd=tree, env=env, check=True,
                              stdout=subprocess.PIPE).stdout

    run("-m", "risae.cli", "sweep", "--preset", "desk", *DESK, "--out", str(out / "sweep"))
    run("-c", DOUBLE_CONFIG, str(out / "double.json"))
    for mode, source in (("ideal", ["--preset", "desk"]),
                         ("double", ["--config", str(out / "double.json")])):
        for kind in ("rmaep", "rmaef"):
            run("-m", "risae.cli", "attack", *source, *DESK, "--snr-db", "8", "--kind", kind,
                "--out", str(out / mode))
    run("-m", "risae.cli", "attack", "--config", str(out / "double.json"), "--seed", "4", *CKPT,
        "--snr-db", "8", "--kind", "rmaep", "--out", str(out / "double-seed4"))
    replay = tree / REPLAY if "def train_losses" in (tree / REPLAY).read_text() else ROOT / REPLAY
    outputs = {"losses": run("-c", LOSSES, str(replay))}
    outputs["sweep/results.csv"] = (out / "sweep" / "results.csv").read_bytes()
    for mode in ("ideal", "double", "double-seed4"):
        outputs.update({f"{mode}/{path.name}": path.read_bytes()
                        for path in sorted((out / mode).glob("*.csv"))})
    return outputs


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python tests/check_desk_bytes.py BASE", file=sys.stderr)
        return 2
    base = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="risae-desk-bytes-") as tmp:
        tree = Path(tmp) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(tree), base],
                       cwd=ROOT, check=True)
        try:
            outputs = {}
            for name, path in (("base", tree), ("change", ROOT)):
                started = time.perf_counter()
                outputs[name] = desk_outputs(path, Path(tmp) / f"out-{name}")
                print(f"{name}: {len(outputs[name])} outputs "
                      f"({time.perf_counter() - started:.1f}s)", flush=True)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT,
                           check=True)
    keys = outputs["base"].keys() | outputs["change"].keys()
    differ = sorted(key for key in keys if outputs["base"].get(key) != outputs["change"].get(key))
    for key in differ:
        where = [name for name in outputs if key not in outputs[name]]
        print(f"DIFFERS: {key}" + (f" (missing in {where[0]})" if where else ""))
    print(f"{len(keys) - len(differ)} of {len(keys)} outputs identical to {base}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
