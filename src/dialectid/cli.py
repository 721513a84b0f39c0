"""Command line front end.

Exit codes: 0 on success, 1 on data errors (bad files, bad labels, bad
config contents), 2 on usage errors (argparse handles those).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import replace
from typing import Sequence

from . import classifier, corpus, evaluation, harness, normalizer
from .corpus import LabelVocab, Level
from .errors import DialectIdError, LengthMismatch, MalformedRow
from .harness import ExperimentConfig


def _norm_config_from_flags(args: argparse.Namespace) -> normalizer.NormConfig:
    return normalizer.NormConfig(
        segment=args.segment,
        insert_spacing=not args.no_spacing,
        max_repeat=args.max_repeat,
    )


def _load_lexicon_flags(args: argparse.Namespace) -> normalizer.SegmentLexicon:
    """The --lexicon file's lexicon, or the default one, with the
    --presegmented file's overrides."""
    lexicon = normalizer.load_lexicon(args.lexicon) if args.lexicon else normalizer.DEFAULT_LEXICON
    if args.presegmented:
        lexicon = replace(lexicon, overrides=normalizer.load_presegmented(args.presegmented))
    return lexicon


def _cmd_normalize(args: argparse.Namespace) -> int:
    config = _norm_config_from_flags(args)
    lexicon = _load_lexicon_flags(args)
    rows = corpus.read_rows(args.infile)
    text_col = 1 if rows and len(rows[0][1]) >= 2 else 0
    has_header = bool(rows) and corpus.has_header(rows[0][1])
    for lineno, cells in rows[1 if has_header else 0 :]:
        if len(cells) <= text_col:
            raise MalformedRow(
                f"{args.infile}:{lineno}: expected at least {text_col + 1} columns, "
                f"got {len(cells)}"
            )
        cells[text_col] = normalizer.normalize(cells[text_col], config, lexicon)
    with open(args.outfile, "w", encoding="utf-8", newline="") as fh:
        for _, cells in rows:
            fh.write("\t".join(cells) + "\n")
    return 0


def _default_vocab(vocab_path: str | None, level: Level) -> LabelVocab:
    if vocab_path:
        return LabelVocab.from_file(vocab_path)
    if level is Level.PROVINCE:
        raise DialectIdError("province-level runs need --vocab")
    return LabelVocab.countries_only()


def _cmd_stats(args: argparse.Namespace) -> int:
    level = Level(args.level)
    vocab = LabelVocab.from_file(args.vocab) if args.vocab else None
    records = corpus.load_corpus(args.infile, vocab=vocab)
    stats = corpus.corpus_stats(records, level, vocab)
    for label, count in stats.counts.items():
        print(f"{label}\t{count}")
    print(f"total\t{stats.total}")
    return 0


def _experiment_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if args.experiment and not args.config:
        raise DialectIdError(f"--experiment {args.experiment!r} needs --config")
    exp = ExperimentConfig(name="default")
    if args.config:
        experiments = harness.parse_benchmark_file(args.config).experiments
        exp = experiments[0]
        if args.experiment:
            exp = next((e for e in experiments if e.name == args.experiment), None)
            if exp is None:
                raise DialectIdError(f"no experiment named {args.experiment!r} in {args.config}")
    return exp if args.seed is None else harness.with_seed(exp, args.seed)


def _cmd_train(args: argparse.Namespace) -> int:
    level = Level(args.level)
    vocab = _default_vocab(args.vocab, level)
    config = _experiment_from_args(args)
    records = corpus.load_corpus(args.infile, vocab=vocab)
    lexicon = _load_lexicon_flags(args)
    y = vocab.classes(records, level)
    texts = harness.prepare_texts(records, config, lexicon)
    model = harness.fit_pipeline(texts, y, vocab.labels(level), config, lexicon)
    classifier.save_model(model, args.out_model, args.out_idf)
    print(f"trained {model.num_classes} classes on {len(records)} records")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    level = Level(args.level)
    vocab = _default_vocab(args.vocab, level)
    gold_records = corpus.load_corpus(args.gold, vocab=vocab)
    pairs = corpus.read_submission(args.pred)
    by_id = dict(pairs)
    labels = vocab.labels(level)
    gold = [labels[c] for c in vocab.classes(gold_records, level)]
    pred = []
    for record in gold_records:
        if record.id not in by_id:
            raise LengthMismatch(f"no prediction for id {record.id!r}")
        pred.append(by_id[record.id])
    if len(pairs) != len(gold_records):
        raise LengthMismatch(
            f"{len(pairs)} predictions for {len(gold_records)} gold records"
        )
    rep = evaluation.report(gold, pred, labels)
    sys.stdout.write(evaluation.render_report(rep))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    model = classifier.load_model(args.model, args.idf)
    config = _experiment_from_args(args)
    if config.features.dim != model.idf.dim:
        if args.config:
            raise DialectIdError(
                f"config dim {config.features.dim} does not match idf table dim {model.idf.dim}"
            )
        config = replace(config, features=replace(config.features, dim=model.idf.dim))
    lexicon = _load_lexicon_flags(args)
    # A model trained outside the harness carries no fingerprint.
    fingerprint = harness.fingerprint(config, lexicon)
    if model.feature_fingerprint and model.feature_fingerprint != fingerprint:
        raise DialectIdError(
            f"model was trained with fingerprint {model.feature_fingerprint}, but experiment "
            f"{config.name!r} has {fingerprint} (its text preparation or features differ)"
        )
    records = corpus.load_corpus(args.infile)
    texts = harness.prepare_texts(records, config, lexicon)
    predictions = harness.predict_texts(texts, config, model)
    corpus.write_submission([r.id for r in records], predictions, args.outfile)
    print(f"wrote {len(predictions)} predictions to {args.outfile}")
    return 0


def _cmd_benchmark(args: argparse.Namespace) -> int:
    spec = harness.parse_benchmark_file(args.config_file)
    if args.seed is not None:
        spec = harness.override_seed(spec, args.seed)
    vocab = _default_vocab(spec.vocab_path, spec.level)
    train = corpus.load_corpus(spec.train_path, vocab=vocab)
    dev = corpus.load_corpus(spec.dev_path, vocab=vocab)
    test = corpus.load_corpus(spec.test_path, vocab=vocab)
    splits = harness.Splits(spec.level, vocab, train, dev, test, _load_lexicon_flags(args))

    grid = harness.run_grid(splits, list(spec.experiments), spec.selection)
    sys.stdout.write(harness.render_grid(grid))

    os.makedirs(args.out_dir, exist_ok=True)
    harness.write_grid_tsv(grid, os.path.join(args.out_dir, "grid.tsv"))
    submission_path = os.path.join(args.out_dir, "submission.csv")
    result = harness.finalize(splits, grid.selected, submission_path)
    classifier.save_model(
        result.model, os.path.join(args.out_dir, "model.bin"), os.path.join(args.out_dir, "idf.bin")
    )
    if result.report is not None:
        evaluation.write_report(result.report, os.path.join(args.out_dir, "report.txt"))
        print(
            f"test macro_f1={result.report.macro_f1:.6f} "
            f"accuracy={result.report.accuracy:.6f}"
        )
    print(f"submission: {submission_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialectid",
        description="Arabic dialect identification pipeline",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override the training RNG seed of train and benchmark")
    parser.add_argument("--config", default=None,
                        help="benchmark config holding the experiment of train and predict")
    sub = parser.add_subparsers(dest="command", required=True)
    lexicon_flags = argparse.ArgumentParser(add_help=False)
    lexicon_flags.add_argument("--lexicon", default=None, help="clitic lexicon file")
    lexicon_flags.add_argument("--presegmented", default=None,
                               help="token TSV overriding the lexicon")
    label_flags = argparse.ArgumentParser(add_help=False)
    label_flags.add_argument("--level", choices=[l.value for l in Level], required=True)
    label_flags.add_argument("--vocab", default=None, help="province<TAB>country TSV")

    p = sub.add_parser("normalize", parents=[lexicon_flags],
                       help="clean the text column of a TSV file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--segment", action="store_true", help="enable clitic segmentation")
    p.add_argument("--no-spacing", action="store_true", help="disable boundary spacing")
    p.add_argument("--max-repeat", type=int, default=2)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("stats", parents=[label_flags], help="per-label record counts of a split")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("train", parents=[label_flags, lexicon_flags],
                       help="fit a model and write model and idf files")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--experiment", default=None,
                   help="experiment name inside --config (default: first)")
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-idf", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", parents=[label_flags],
                       help="score a submission against gold labels")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("predict", parents=[lexicon_flags],
                       help="label a test split with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--idf", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--experiment", default=None)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("benchmark", parents=[lexicon_flags],
                       help="run the grid and finalize the best row")
    p.add_argument("config_file", help="benchmark config file")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_benchmark)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # What the process holds before its first command, mostly the
    # modules of numpy and this package, lives until exit.  Frozen, it is
    # left out of every later collection, the ones at exit included.
    if gc.get_freeze_count() == 0:
        gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if args.config is not None and args.command not in ("train", "predict"):
            raise DialectIdError(f"--config is read by train and predict, not {args.command}")
        if args.seed is not None and args.command not in ("train", "benchmark"):
            raise DialectIdError(f"--seed is read by train and benchmark, not {args.command}")
        return args.func(args)
    except DialectIdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename else exc
        print(f"error: missing input file: {name}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
