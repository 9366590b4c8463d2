"""Command-line entry points: train, attack, eval, sweep.

Exit codes: 0 on success, 2 on configuration errors (with the offending
field path), 3 on I/O errors: unreadable checkpoints, a sweep directory
holding another checkpoint and any other OS error, 4 when the numerics fail
at run time (a degenerate input or a diverged training loss).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# rmaef, rmaep: only perfbench/tests/test_tracing.py reads them here (ROADMAP item 8)
from .attack import export_perturbation, rmaef, rmaep  # noqa: F401
from .autoencoder import set_heap_policy
from .config import DECIBELS
from .errors import ConfigInvalid, CorruptCheckpoint, DegenerateInput, Diverged
from .harness import (ATTACK_KINDS, PRESETS, attack_vector, format_rows, load_config, load_system,
                      make_budget, rerun_from_manifest, run_sweep, save_config, snr_to_sigma2,
                      sweep_to_directory, train_system)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_RUN = 4


def _resolve_config(args):
    cfg = load_config(args.config) if args.config else PRESETS[args.preset or "desk"]()
    if args.seed is not None:
        cfg.seed = args.seed  # checked, like every config field, when assigned
    return cfg


def snr_db(text: str) -> float:
    """An --snr-db value: a number within the config's dB bound; argparse
    exits 2 on anything else."""
    value = float(text)
    if not DECIBELS[0](value):
        raise argparse.ArgumentTypeError(f"{DECIBELS[1]}, got {text}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", type=Path, help="JSON experiment config")
    source.add_argument("--preset", choices=sorted(PRESETS),
                        help="built-in configuration (default: desk, when no --config is given)")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    print(f"[train] seed={cfg.seed} epochs={cfg.train.epochs}")
    nets, ckpt = train_system(cfg, args.out)
    save_config(cfg, args.out / "config.json")
    print(f"[train] checkpoint written to {ckpt}")
    return EXIT_OK


def cmd_attack(args) -> int:
    cfg = _resolve_config(args)
    set_heap_policy()
    nets = load_system(args.checkpoint, cfg)
    mode = cfg.attack.channel_mode
    args.out.mkdir(parents=True, exist_ok=True)
    for sc in cfg.scatterers:  # the system, budget and stream of the sweep's cell
        sys_cfg = cfg.system.replace(num_scatterers=sc,
                                     sigma2=snr_to_sigma2(cfg.system.power, args.snr_db))
        budget = make_budget(cfg, sys_cfg, nets, mode)
        result = attack_vector(cfg, sys_cfg, nets, args.kind, args.snr_db, budget)
        path = args.out / f"{args.kind}-sc{sc}.csv"
        export_perturbation(path, result.perturbation, mode, cfg.attack.psr_db, sc)
        print(f"[attack] {args.kind} ({mode}) at {args.snr_db:+.1f} dB, {sc} scatterers; "
              f"{result.iterations} probes: {result.flips_found} refined the vector, "
              f"{result.already_broken} already broken, {result.skipped} skipped; "
              f"{result.grad_evals} decoder gradients; "
              f"power {result.perturbation.power:.4e} <= budget {budget.linear:.4e}; wrote {path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    cfg.eval.snr_sweep_db = [args.snr_db]
    cfg.attacks = [args.attack]
    nets = load_system(args.checkpoint, cfg)
    print(format_rows(run_sweep(cfg, nets)), end="")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.from_manifest:
        for name in ("config", "preset", "seed"):
            if getattr(args, name) is not None:  # the manifest holds the config and seed
                print(f"risae sweep: error: argument --{name}: not allowed with argument "
                      "--from-manifest", file=sys.stderr)
                return EXIT_CONFIG
        csv_path = rerun_from_manifest(args.from_manifest, args.out, progress=args.progress)
        print(f"[sweep] reproduced {csv_path}")
        return EXIT_OK
    cfg = _resolve_config(args)
    nets = load_system(args.checkpoint, cfg)
    csv_path = sweep_to_directory(cfg, nets, args.checkpoint, args.out, progress=args.progress)
    print(f"[sweep] wrote {csv_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risae",
        description="Double-RIS MIMO autoencoder link simulator with "
                    "universal-perturbation attacks and SER sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train the autoencoder and save a checkpoint")
    _add_common(p_train)
    p_train.add_argument("--out", type=Path, required=True, help="output directory")
    p_train.set_defaults(func=cmd_train)

    p_attack = sub.add_parser("attack", help="construct a perturbation and export it")
    _add_common(p_attack)
    p_attack.add_argument("--checkpoint", type=Path, required=True)
    p_attack.add_argument("--kind", choices=["rmaef", "rmaep"], required=True)
    p_attack.add_argument("--snr-db", type=snr_db, required=True)
    p_attack.add_argument("--out", type=Path, required=True,
                          help="output directory: one <kind>-sc<N>.csv per scatterer count")
    p_attack.set_defaults(func=cmd_attack)

    p_eval = sub.add_parser("eval", help="evaluate one (SNR, benchmark) cell per scatterer count")
    _add_common(p_eval)
    p_eval.add_argument("--checkpoint", type=Path, required=True)
    p_eval.add_argument("--attack", choices=ATTACK_KINDS, default="secured")
    p_eval.add_argument("--snr-db", type=snr_db, required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="run the full SNR x benchmark grid")
    _add_common(p_sweep)
    p_sweep.add_argument("--out", type=Path, required=True, help="output directory")
    nets_from = p_sweep.add_mutually_exclusive_group(required=True)
    nets_from.add_argument("--checkpoint", type=Path,
                           help="trained weights, as `risae train` writes them")
    nets_from.add_argument("--from-manifest", type=Path,
                           help="reproduce a previous sweep from its manifest")
    p_sweep.add_argument("--progress", action="store_true", help="print per-cell progress")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorruptCheckpoint, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DegenerateInput, Diverged) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
