"""Command line interface.

Six subcommands cover the workflow: simulate a phantom dataset, filter it
(svd, irls or unfolded), train an unfolded network, infer with a saved model,
evaluate a blood estimate against ground truth, and render images. Every
subcommand accepts --config pointing at a JSON run configuration; explicit
flags override the file. Exit codes identify the failing stage: 2 config,
3 input, 4 simulate, 5 filter, 6 train, 7 evaluate, 8 render. Stdout holds
only the command's result line; --verbose shows the package's progress log
on stderr.
"""

import argparse
import logging
import sys

from . import config as config_mod
from . import pipeline

_FLAG_KEYS = ("input", "output", "seed", "method", "model", "truth",
              "ensemble")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="microflow",
        description="Clutter filtering and evaluation for ultrafast "
                    "microvascular ultrasound.")
    sub = parser.add_subparsers(dest="command", required=True)

    descriptions = {
        "simulate": "synthesize a phantom dataset with ground truth",
        "filter": "estimate the blood signal with svd, irls or unfolded",
        "train": "fit an unfolded network and save the model",
        "infer": "apply a saved model to a dataset",
        "evaluate": "score a blood estimate against ground truth",
        "render": "convert a CSV image to PGM or CSV",
    }
    parsers = {}
    for name, help_text in descriptions.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--input", help="input dataset or image")
        p.add_argument("--output", help="output directory or file")
        p.add_argument("--seed", type=int, help="simulation seed")
        p.add_argument("--method", choices=config_mod.FIELDS["method"].kind,
                       help="filtering method")
        p.add_argument("--model", help="model file (.u2m)")
        p.add_argument("--truth", help="directory with the truth bundle")
        p.add_argument("--ensemble", type=int,
                       help="frames in the evaluation ensemble")
        p.add_argument("--verbose", action="store_true",
                       help="log progress to stderr")
        parsers[name] = p
    parsers["render"].add_argument("--mode", choices=["pgm", "csv"],
                                   default="pgm", help="output format")
    return parser


def _merge_config(args):
    """Load the config file (if any) and let explicit flags override it."""
    cfg = {}
    if args.config:
        with pipeline.stage("config"):
            cfg = config_mod.load_config(args.config)
    for key in _FLAG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    log = logging.getLogger("microflow")
    level, handler = log.level, logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    if args.verbose:
        log.addHandler(handler)
        log.setLevel(logging.INFO)
    try:
        cfg = _merge_config(args)
        if args.command == "simulate":
            report = pipeline.run_simulate(cfg)
            print(f"simulated {report['dataset']['nt']} frames on a "
                  f"{report['dataset']['nz']}x{report['dataset']['nx']} "
                  f"grid into {cfg['output']}")
        elif args.command == "filter":
            pipeline.run_pipeline(cfg)
            print(f"filtered with {cfg['method']}; artifacts in {cfg['output']}")
        elif args.command == "train":
            _, history = pipeline.run_train(cfg)
            best = history.val_loss[history.best_epoch]
            print(f"trained to validation loss {best:.6g} "
                  f"(epoch {history.best_epoch}); model at {cfg['output']}")
        elif args.command == "infer":
            pipeline.run_infer(cfg)
            print(f"inferred blood estimate; artifacts in {cfg['output']}")
        elif args.command == "evaluate":
            report = pipeline.run_evaluate(cfg)
            m = report["metrics"]
            print("metrics: "
                  + ", ".join(f"{k}={m[k]:.4g}" if isinstance(m[k], float)
                              else f"{k}={m[k]}"
                              for k in ("cnr_db", "snr_db", "psl_db",
                                        "r_squared")))
        elif args.command == "render":
            out = pipeline.run_render(cfg, args.mode)
            print(f"rendered {cfg['input']} to {out}")
    except pipeline.PipelineError as exc:
        print(f"microflow {args.command}: {exc}", file=sys.stderr)
        return pipeline.STAGE_EXIT_CODES.get(exc.stage, 1)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    return 0


if __name__ == "__main__":
    sys.exit(main())
