"""Command-line front end.

Driver mode:
    bench throughput|bo|cem --config cfg.json [--n-env N] [--seed S] [--out DIR]
    bench <mode> --from-manifest runs/<id>/manifest.json

Worker mode (normally launched by the driver, not by hand):
    bench --worker --fd <N>   (N: an inherited socket connected to the driver)

Flags override config fields. Exit status is 0 only when the run completed
every configured trial/iteration/step.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import run_study, run_throughput, run_training
from .config import config_from_dict, config_to_dict, parse_config
from .errors import RolloutError


def _worker_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench --worker", add_help=False)
    parser.add_argument("--worker", action="store_true")
    parser.add_argument("--fd", type=int, required=True, metavar="N")
    args = parser.parse_args(argv)
    from .worker import run_socket_worker

    return run_socket_worker(args.fd)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bench", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("throughput", "bo", "cem"):
        p = sub.add_parser(mode)
        p.add_argument("--config", type=Path, help="JSON run configuration")
        p.add_argument("--from-manifest", type=Path, help="re-run the config echoed in a manifest")
        p.add_argument("--n-env", type=int, default=None, help="override n_env")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument("--out", type=Path, default=None, help="override output_dir")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--worker" in argv:
        return _worker_main(argv)
    args = _build_parser().parse_args(argv)

    try:
        if args.from_manifest is not None:
            manifest = json.loads(args.from_manifest.read_text())
            cfg = config_from_dict(manifest["config"])
        elif args.config is not None:
            cfg = parse_config(args.config.read_text())
        else:
            print("error: provide --config or --from-manifest", file=sys.stderr)
            return 2

        overrides: dict = {"mode": args.mode}
        if args.n_env is not None:
            overrides["n_env"] = args.n_env
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out is not None:
            overrides["output_dir"] = str(args.out)
        cfg = config_from_dict({**config_to_dict(cfg), **overrides})

        out_dir = Path(cfg.output_dir)
        if cfg.mode == "throughput":
            rows = run_throughput(cfg, out_dir)
            for row in rows:
                print(f"n_env={row['n_env']} env_steps_per_s={row['env_steps_per_s']:.1f} "
                      f"mean_barrier_latency_s={row['mean_barrier_latency_s']:.6f}")
        elif cfg.mode == "bo":
            best, curve = run_study(cfg, out_dir)
            print(f"best J={best.value:.6g} params={best.params} trials={len(curve)}")
        else:
            _, curve = run_training(cfg, out_dir)
            if curve:
                print(f"iterations={len(curve)} final mean_return={curve[-1].mean_return:.4f} "
                      f"mse_x={curve[-1].mse_x:.5f} mse_y={curve[-1].mse_y:.5f}")
        print(f"outputs in {out_dir}")
        return 0
    except (RolloutError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
