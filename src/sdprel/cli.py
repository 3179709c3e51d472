"""Command-line interface.

Exit codes: 0 success, 2 input/format error, 3 numeric failure during
training (non-finite loss).
"""

from __future__ import annotations

import argparse
import json
import sys

from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import load_corpus
from .depgraph import load_dependencies
from .errors import ConfigError, InputError, NumericError, reading_text
from .features import load_pos_table
from .pipeline import (
    REPORT_HEADER,
    TrainConfig,
    cross_validate,
    evaluate,
    instances_from_json,
    instances_to_json,
    load_table,
    predict_all,
    preprocess,
    train,
)

SWEEP_PARAMS = {"epochs": "epochs", "mlp_hidden": "mlp_hidden", "window": "position_window"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdprel",
        description="Protein-protein interaction extraction over shortest dependency paths",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="corpus + dependency edges -> instances file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--deps", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--no-pos", action="store_true")
    p.add_argument("--no-position", action="store_true")
    p.add_argument("--pos-table", default=None)
    p.add_argument("--require-deps", action="store_true",
                   help="error out when a sentence has no dependency edges")

    p = sub.add_parser("train", help="train a model on an instances file")
    p.add_argument("--instances", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--losses", default=None, help="optional CSV of per-epoch loss")
    p.add_argument("--tune-embeddings", action="store_true",
                   help="update word vectors during training (default: frozen)")

    p = sub.add_parser("evaluate", help="score an instances file with a checkpoint")
    p.add_argument("--ck", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("--report", choices=("csv", "json"), default="csv")

    p = sub.add_parser("cv", help="k-fold cross validation from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--deps", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--report", required=True)
    p.add_argument("--pos-table", default=None)

    p = sub.add_parser("predict", help="per-instance predictions from a checkpoint")
    p.add_argument("--ck", required=True)
    p.add_argument("--instances", required=True)

    p = sub.add_parser("sweep", help="re-run CV over one hyperparameter")
    p.add_argument("--param", choices=SWEEP_PARAMS, required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--corpus", required=True)
    p.add_argument("--deps", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--pos-table", default=None)

    return parser


def _cmd_preprocess(args) -> int:
    config = TrainConfig(
        position_window=args.window,
        use_pos=not args.no_pos,
        use_position=not args.no_position,
    )
    pos_table = load_pos_table(args.pos_table) if args.pos_table else None
    sentences = load_corpus(args.corpus)
    deps = load_dependencies(args.deps)
    result = preprocess(
        sentences, deps, config, pos_table=pos_table, require_deps=args.require_deps
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(instances_to_json(result, config))
    for key, value in result.stats().items():
        print(f"{key}: {value}")
    return 0


def _cmd_train(args) -> int:
    config = TrainConfig.from_file(args.config)
    if args.tune_embeddings:
        config = config.replace(tune_embeddings=True)
    result = _read_instances(args.instances, config, "config")
    tr = train(config, result.instances, pos_table=result.pos_table)
    save_checkpoint(tr.checkpoint, args.out)
    if args.losses:
        with open(args.losses, "w", encoding="utf-8") as fh:
            fh.write("epoch,loss\n")
            for epoch, loss in enumerate(tr.epoch_losses, start=1):
                fh.write(f"{epoch},{loss:.6f}\n")
    print(f"checkpoint: {args.out}")
    print(f"final epoch loss: {tr.epoch_losses[-1]:.6f}")
    return 0


def _cmd_evaluate(args) -> int:
    ck = load_checkpoint(args.ck)
    result = _read_instances(args.instances, ck.config, "checkpoint", ck.pos_table)
    metrics = evaluate(ck, result.instances, excluded=result.excluded)
    if args.report == "csv":
        print(REPORT_HEADER)
        print(metrics.csv_row("all"))
    else:
        print(json.dumps(metrics.to_dict(), sort_keys=True))
    return 0


def _cmd_cv(args) -> int:
    config = TrainConfig.from_file(args.config)
    if args.k is not None:
        config = config.replace(k_folds=args.k)
    if args.seed is not None:
        config = config.replace(seed=args.seed)
    config.validate()
    pos_table = load_pos_table(args.pos_table) if args.pos_table else None
    sentences = load_corpus(args.corpus)
    deps = load_dependencies(args.deps)
    result = preprocess(sentences, deps, config, pos_table=pos_table)
    report = cross_validate(config, result, pos_table=pos_table)
    with open(args.report, "w", encoding="utf-8", newline="") as fh:
        fh.write(report.to_csv())
    for key, value in result.stats().items():
        print(f"{key}: {value}")
    print(f"report: {args.report}")
    return 0


def _cmd_predict(args) -> int:
    ck = load_checkpoint(args.ck)
    result = _read_instances(args.instances, ck.config, "checkpoint", ck.pos_table)
    scores = predict_all(ck, result.instances)
    print("instance_id,predicted_label,prob_positive")
    for inst, (label, prob) in zip(result.instances, scores):
        print(f"{inst.instance_id},{label},{prob:.6f}")
    return 0


def _cmd_sweep(args) -> int:
    base = TrainConfig.from_file(args.config)
    try:
        values = [int(v) for v in args.values.split(",")]  # an empty item is no integer
    except ValueError:
        raise InputError(f"--values must be comma-separated integers: {args.values!r}")
    pos_table = load_pos_table(args.pos_table) if args.pos_table else None
    sentences = load_corpus(args.corpus)
    deps = load_dependencies(args.deps)
    table = load_table(base, base.seed)  # no sweep parameter changes the seed or the vectors
    rows = ["param,value,precision,recall,f1"]
    by_window = {}  # only position_window changes what preprocess makes
    for value in values:
        config = base.replace(**{SWEEP_PARAMS[args.param]: value}).validate()
        if config.position_window not in by_window:
            by_window[config.position_window] = preprocess(
                sentences, deps, config, pos_table=pos_table)
        report = cross_validate(config, by_window[config.position_window], embeddings=table,
                                pos_table=pos_table)
        m = report.micro
        rows.append(
            f"{args.param},{value},{m.precision:.2f},{m.recall:.2f},{m.f1:.2f}"
        )
    with open(args.report, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"report: {args.report}")
    return 0


def _read_instances(path, config: TrainConfig, source: str, pos_table=None):
    """Parse an instances file; `source` (config or checkpoint) must use its
    features, and its PoS table where one is given."""
    with open(path, encoding="utf-8") as fh, reading_text(path):
        result = instances_from_json(fh.read())
    for key in ("position_window", "use_pos", "use_position"):
        made, wanted = getattr(result, key), getattr(config, key)
        if made != wanted:
            raise ConfigError(
                f"{path} was made with {key}={made}, but the {source} has {key}={wanted}"
            )
    if pos_table is not None and result.pos_table != pos_table:
        differ = sorted(tag for tag in result.pos_table.keys() | pos_table.keys()
                        if result.pos_table.get(tag) != pos_table.get(tag))
        raise ConfigError(
            f"{path} was made with another PoS table than the {source}'s; "
            f"they differ on {len(differ)} tag(s), first {differ[:3]}"
        )
    return result


_COMMANDS = {
    "preprocess": _cmd_preprocess,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "cv": _cmd_cv,
    "predict": _cmd_predict,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
