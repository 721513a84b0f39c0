"""Command line front end.

Exit codes: 0 on success, 1 on data errors (bad files, bad labels, bad
config contents), 2 on usage errors (argparse handles those).

predict and benchmark run their independent tasks side by side, in
contiguous groups of tasks: one group per CPU the process may run on
(os.sched_getaffinity), but at most one per task, and one group where
the platform has no sched_getaffinity or no fork.  The parent forks a
worker for each group but its own, runs its own group and joins the
values in task order.

- predict's tasks label contiguous shards of its records, one per CPU,
  but never more shards than the records make featurizer blocks (one
  per features._CHUNK_TEXTS records, rounded up); the parent labels the
  first.  A record's label depends on that record alone, so the
  submission has the same bytes for any shard count.
- benchmark's tasks are the grid rows, one per experiment, each fitted
  on one BLAS thread (see classifier), so every fit has the same bytes
  in any process.  The parent prepares every train and dev text first,
  so the workers share them.  With one experiment there is nothing to
  select: the parent runs finalize while a worker runs the grid row;
  with several, the parent runs the first group of rows and then
  finalize.

A failure is the error the serial order would raise first: the tasks'
errors in task order, and finalize's last.  A worker's error that main
reports is raised as it is; any other failure of a worker, its death
included, is a data error that names the task.  No worker outlives
the command.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import os
import pickle
import signal
import sys
from dataclasses import replace
from typing import BinaryIO, Callable, Iterator, Sequence, TypeVar

from . import classifier, corpus, evaluation, features, harness, normalizer
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

    def label(shard: Sequence[corpus.TweetRecord]) -> list[str]:
        return harness.predict_texts(harness.prepare_texts(shard, config, lexicon), config, model)

    bounds = _shard_bounds(len(records))
    shards = [(f"labelling records {lo + 1}-{hi}", functools.partial(label, records[lo:hi]))
              for lo, hi in zip(bounds, bounds[1:])]
    predictions = [p for labels in _run_tasks(shards) for p in labels]
    corpus.write_submission([r.id for r in records], predictions, args.outfile)
    print(f"wrote {len(predictions)} predictions to {args.outfile}")
    return 0


T = TypeVar("T")
Task = tuple[str, Callable[[], T]]  # the task's name in errors, and the task
Outcome = tuple[object, object]  # (value, None), or (None, the error)


def _cpus() -> int:
    """The CPUs the process may run on, or 1 where the platform has no
    sched_getaffinity or no fork."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _cut(count: int, groups: int) -> list[int]:
    """The cut points of count items into groups contiguous groups."""
    return [count * i // groups for i in range(groups + 1)]


def _shard_bounds(count: int) -> list[int]:
    """The cut points of predict's count records into shards (see the
    module docstring)."""
    return _cut(count, max(1, min(_cpus(), -(-count // features._CHUNK_TEXTS))))


def _run_tasks(tasks: Sequence[Task[T]], parent_last: bool = False) -> list[T]:
    """The values of the tasks, in task order.

    The tasks are cut into contiguous groups, one per CPU (_cpus) but at
    most one per task.  This process runs the first group, or the last
    when parent_last, and a forked worker runs each other one.  The
    first task in task order that fails raises its error once every
    task before it has succeeded; a worker's error that main would not
    report, or a worker's death, becomes a DialectIdError naming the
    task.  Every worker is killed and reaped before this returns or
    raises."""
    bounds = _cut(len(tasks), max(1, min(_cpus(), len(tasks))))
    groups = list(zip(bounds, bounds[1:]))
    here = groups[-1 if parent_last else 0]
    workers: list[tuple[int, BinaryIO]] = []  # pid, read end of its pipe
    try:
        outcomes: dict[int, Iterator[Outcome]] = {}  # by the group's first task
        for lo, hi in groups:
            if (lo, hi) != here:
                workers.append(_fork_worker(tasks[lo:hi]))
                outcomes[lo] = _received(workers[-1][1])
        # Run to its end before any worker is read, beside the workers.
        outcomes[here[0]] = iter(list(_outcomes(tasks[here[0] : here[1]])))
        values: list[T] = []
        for lo, hi in groups:
            for (name, _), (value, error) in zip(tasks[lo:hi], outcomes[lo]):
                if isinstance(error, str):
                    raise DialectIdError(f"{name}: {error}")
                if error is not None:
                    raise error
                values.append(value)
        return values
    finally:
        for pid, pipe in workers:
            pipe.close()
            # An exited worker stays a zombie until reaped, so the kill
            # finds it, unless SIGCHLD is ignored and the kernel reaped it.
            with contextlib.suppress(ChildProcessError, ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _outcomes(tasks: Sequence[Task[T]]) -> Iterator[Outcome]:
    """The outcome of each task in turn, up to the first that fails."""
    for _, task in tasks:
        try:
            value = task()
        except Exception as exc:
            yield None, exc
            return
        yield value, None


def _received(pipe: BinaryIO) -> Iterator[Outcome]:
    """The outcomes a worker sends, then a failure if it ends early."""
    while True:
        try:
            yield pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            yield None, "the worker ended without sending its result"
            return


def _fork_worker(tasks: Sequence[Task[T]]) -> tuple[int, BinaryIO]:
    """Fork a process that runs the tasks in order and pickles each
    outcome into a pipe as it comes, the error as the exception itself
    where main reports its type and as its message otherwise, and that
    leaves through os._exit, so no exit handler runs and no stdio buffer
    is written twice.  Returns its pid and the pipe's read end.

    The fork copies one thread.  The only other thread the package
    runs under is the pool of numpy's OpenBLAS, which its own
    pthread_atfork handler stops before every fork and starts again on
    the next threaded BLAS call; both commands fork before their first
    BLAS call, so the pool is stopped at each fork and no lock can be
    held by a thread the worker lacks."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            reported = (DialectIdError, OSError, ValueError)  # the types main reports
            with open(write_fd, "wb") as pipe:
                for value, error in _outcomes(tasks):
                    if error is not None and not isinstance(error, reported):
                        error = f"{type(error).__name__}: {error}"
                    pipe.write(pickle.dumps((value, error)))
                    pipe.flush()
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _cmd_benchmark(args: argparse.Namespace) -> int:
    spec = harness.parse_benchmark_file(args.config_file)
    if args.seed is not None:
        spec = harness.override_seed(spec, args.seed)
    vocab = _default_vocab(spec.vocab_path, spec.level)
    train = corpus.load_corpus(spec.train_path, vocab=vocab)
    dev = corpus.load_corpus(spec.dev_path, vocab=vocab)
    test = corpus.load_corpus(spec.test_path, vocab=vocab)
    splits = harness.Splits(spec.level, vocab, train, dev, test, _load_lexicon_flags(args))
    experiments = spec.experiments
    # Prepared here, before any fork, each text is prepared once and
    # every fit, in this process or a worker, reads it from splits.
    for config in experiments:
        splits.texts("train", config)
        splits.texts("dev", config)

    os.makedirs(args.out_dir, exist_ok=True)
    submission_path = os.path.join(args.out_dir, "submission.csv")
    tasks: list[Task[object]] = [
        (f"experiment {c.name!r}", functools.partial(harness.grid_row, splits, c))
        for c in experiments
    ]
    # Forked under the pin, no worker sets the BLAS thread count, which
    # would restart the thread pool the fork stopped.
    with classifier.one_blas_thread():
        if len(experiments) == 1:
            # Nothing to select: finalize runs here beside the grid row.
            tasks.append((f"finalizing experiment {experiments[0].name!r}", functools.partial(
                harness.finalize, splits, experiments[0], submission_path)))
            *rows, result = _run_tasks(tasks, parent_last=True)
            grid = harness.select_row(rows, spec.selection)
        else:
            grid = harness.select_row(_run_tasks(tasks), spec.selection)
            result = harness.finalize(splits, grid.selected, submission_path)
    sys.stdout.write(harness.render_grid(grid))
    harness.write_grid_tsv(grid, os.path.join(args.out_dir, "grid.tsv"))
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
