"""Experiment runner: train / corrupt / verify / sweep.

Every run writes a ``config.txt`` echo of its fully resolved settings next
to its outputs, in the same line-oriented ``key = value`` format the
``--config`` option reads back (flags override file values); values are
``shlex`` words, which the echo quotes where needed; a comment starts at a
``#`` that begins a line or an unquoted word.  Exit codes: 0 success,
1 validation problem, 2 I/O problem, 3 verification failure.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
import warnings
from pathlib import Path

from ._checks import check_seed
from .corruption import CorruptionSpec, corrupt_dataset
from .data import (Dataset, IdxFormatError, _check_blob_size, _check_classes, _check_dim, _check_fraction,
                   _check_spread, load_dataset, load_idx, save_dataset, split, synth_blobs)
from .losses import BaseLoss
from .selection import ThresholdMode
from .training import TrainConfig, _check_batch_size, _check_epochs, train, write_metrics_csv
from .verification import SUITES, run_suites

SWEEP_FACTORS = (0.5, 0.75, 1.0, 1.25, 1.5)
_DEFAULTS = TrainConfig()  # the run flags' defaults are the reference setup


class CliError(Exception):
    """Validation problem; rendered on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        self.options = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.options[action.dest] = action
        return action

    def error(self, message):
        raise CliError(message)


def _checked(check, kind=float):
    """A ``kind`` flag type whose range is the one ``check`` enforces; its ValueError names the flag.

    A range that spans two flags is checked once both are parsed, by
    ``_paired``.
    """
    def parse(text):
        value = kind(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid float value" names the kind
    return parse


def _paired(check, flags, *values):
    """Run ``check`` over two flags' values and return its result; its ValueError becomes a CliError
    naming both flags."""
    try:
        return check(*values)
    except ValueError as exc:
        raise CliError(f"arguments {' and '.join(flags)}: {exc}") from None


def _hidden(text):
    """Comma-separated layer sizes as ints, the empty string for no hidden layer; their range is
    ``TrainConfig``'s."""
    try:
        return tuple(int(part) for part in text.split(",")) if text else ()
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad hidden sizes {text!r}") from exc


def _add_data_flags(sub):
    sub.add_argument("--dataset", nargs="+", metavar="PATH",
                     help="IDX image/label file pair, or one .npds file")
    sub.add_argument("--synthetic", choices=["blobs"], help="generate data instead of loading")
    sub.add_argument("--train-size", type=int, default=5000)
    sub.add_argument("--classes", type=_checked(_check_classes, int), default=4)
    sub.add_argument("--separation", type=_checked(lambda v: _check_spread(v, 0.0)), default=4.0)
    sub.add_argument("--noise-std", type=_checked(lambda v: _check_spread(1.0, v)), default=1.0)
    sub.add_argument("--blob-dim", type=_checked(_check_dim, int), default=2,
                     help="feature dimensions; class signal lives in the first two")
    sub.add_argument("--noise", choices=["symmetric", "pair"], help="label corruption kind")
    sub.add_argument("--noise-rate", type=_checked(lambda v: CorruptionSpec("pair", v, 0, 2)), default=0.0)


def _add_test_flags(sub):
    sub.add_argument("--test-dataset", nargs="+", metavar="PATH",
                     help="IDX pair or .npds file for evaluation; default splits --dataset")
    sub.add_argument("--test-fraction", type=_checked(_check_fraction), default=0.2,
                     help="held-out fraction when no --test-dataset is given")
    sub.add_argument("--test-size", type=int, default=1000)


def _add_train_flags(sub):
    sub.add_argument("--loss", type=_checked(BaseLoss.parse, str), default=str(_DEFAULTS.base_loss),
                     help="hinge | soft-hinge | weighted:<beta>")
    sub.add_argument("--threshold", default=_DEFAULTS.threshold.kind,
                     choices=[*ThresholdMode.KINDS, "none"], help="none trains on every sample")
    sub.add_argument("--epochs", type=_checked(_check_epochs, int), default=_DEFAULTS.epochs)
    sub.add_argument("--batch-size", type=_checked(_check_batch_size, int), default=_DEFAULTS.batch_size)
    sub.add_argument("--burn-in", type=int, default=_DEFAULTS.burn_in_epochs)
    sub.add_argument("--lr", type=_checked(lambda v: TrainConfig(lr=v)), default=_DEFAULTS.lr)
    sub.add_argument("--hidden", type=_checked(lambda v: TrainConfig(hidden=v), _hidden),
                     default=_DEFAULTS.hidden)


def build_parser():
    parser = _Parser(prog="npcl", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    for name, help_text in (
        ("train", "run the selection training loop and write metrics"),
        ("corrupt", "write a corrupted dataset"),
        ("sweep", "train across a grid of noise-rate priors"),
    ):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", help="key = value file; flags override it")
        sub.add_argument("--seed", type=_checked(check_seed, int), default=_DEFAULTS.seed)
        sub.add_argument("--out", default="out", help="output directory")
        _add_data_flags(sub)
        if name != "corrupt":  # a corrupt run builds no test set
            _add_test_flags(sub)
            _add_train_flags(sub)
        if name == "train":  # sweep sets each cell's prior
            sub.add_argument("--epsilon-prior", type=_checked(ThresholdMode.npcl_fixed),
                             default=_DEFAULTS.threshold.epsilon)
        subparsers[name] = sub

    verify = subs.add_parser("verify", help="run the property suites")
    verify.add_argument("suite", nargs="?", choices=["all", *SUITES], default="all")
    verify.add_argument("--seed", type=_checked(check_seed, int), default=0)
    subparsers["verify"] = verify
    return parser, subparsers


def _words(value):
    """``value``'s shell words up to a comment, which starts at a ``#`` that begins a word."""
    lex = shlex.shlex(value, posix=True)
    lex.whitespace_split, lex.commenters = True, ""
    words = []  # between words the lexer stands just past the whitespace that ended the last one
    while (value[lex.instream.tell():].lstrip(lex.whitespace)[:1] != "#"
           and (word := lex.get_token()) is not None):
        words.append(word)
    return words


def parse_config_file(path):
    """``key = value`` lines as ``{key: (line number, [word, ...])}``; a key's last line wins."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        try:
            values[key.strip().replace("-", "_")] = lineno, _words(value)
        except ValueError as exc:  # an unclosed quote
            raise CliError(f"{path}:{lineno}: {exc}") from None
    return values


def _config_argv(sub, path):
    """The config file as flag tokens, to go ahead of the user's flags so those override it."""
    tokens = []
    for key, (lineno, words) in parse_config_file(path).items():
        action, name = sub.options.get(key), key.replace("_", "-")
        if action is None or key in ("help", "config"):
            raise CliError(f"{path}:{lineno}: unknown config key {name!r}")
        tokens += [action.option_strings[-1], *words]  # argparse rejects a word count the flag does not take
    try:
        sub.parse_args(tokens)
    except CliError as exc:
        raise CliError(f"{path}: {exc}") from exc
    return tokens


def _out_dir(args):
    """Make ``--out`` and echo ``args`` into its ``config.txt``; called once the run's data is built."""
    lines = []
    for key, value in sorted(vars(args).items()):
        if key in ("command", "config") or value is None:
            continue
        if isinstance(value, tuple):  # --hidden sizes
            value = ",".join(str(v) for v in value)
        # --dataset and --test-dataset take a list of paths, one shell word each
        value = shlex.join(value) if isinstance(value, list) else shlex.quote(str(value))
        lines.append(f"{key.replace('_', '-')} = {value}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def _blobs(args, size, size_flag, stream):
    _paired(_check_blob_size, [size_flag, "--classes"], size, args.classes)
    return synth_blobs(size, args.classes, args.separation, args.noise_std,
                       seed=[args.seed, stream], dim=args.blob_dim)


def _read(paths, flag):
    """The dataset at an IDX image/label pair or at one NPDS file."""
    if len(paths) == 1:
        return load_dataset(paths[0])
    if len(paths) == 2:
        return load_idx(*paths)
    raise CliError(f"{flag} takes an IDX image/label pair or one .npds file, got {len(paths)} paths")


def _source(args):
    """The training data before any split or corruption."""
    if args.synthetic and args.dataset:
        raise CliError("choose either --dataset or --synthetic, not both")
    if not (args.synthetic or args.dataset):
        raise CliError("need --dataset or --synthetic")
    if args.synthetic:
        return _blobs(args, args.train_size, "--train-size", 100)
    return _read(args.dataset, "--dataset")


def _match_classes(train_set, test_set, args):
    """The test set under the train set's class count K, which its labels must fit.

    IDX files carry no class count, so K is one past the largest label, and
    a held-out split that lacks the top label would come out with a smaller K.
    The feature counts must match too.
    """
    test_files, train_files = " ".join(args.test_dataset), " ".join(args.dataset)
    if test_set.dim != train_set.dim:
        raise CliError(f"test set {test_files} has {test_set.dim} features per sample, "
                       f"but train set {train_files} has {train_set.dim}")
    k = train_set.num_classes
    if test_set.num_classes > k:
        raise CliError(f"test set {test_files} has labels up to {test_set.num_classes - 1}, "
                       f"but train set {train_files} has {k} classes")
    return Dataset(test_set.features, test_set.labels, k, test_set.clean_labels)


def _noise_spec(args, dataset):
    """The ``--noise`` corruption of ``dataset``, which must not hold clean labels already."""
    if dataset.clean_labels is not None:
        advice = ("it is already corrupted and can be trained on as it is" if args.command == "corrupt"
                  else "drop --noise to train on its labels")
        raise CliError(f"--noise would replace the clean labels stored in {' '.join(args.dataset)}; {advice}")
    return CorruptionSpec(args.noise, args.noise_rate, args.seed, dataset.num_classes)


def _load_datasets(args):
    if args.synthetic and args.test_dataset:
        raise CliError("--synthetic builds its own test set and would ignore --test-dataset; "
                       "drop one of them")
    train_set = _source(args)
    if args.noise_rate and not args.noise:
        if train_set.clean_labels is None:
            raise CliError(f"--noise-rate {args.noise_rate} needs --noise to corrupt the labels at that rate; "
                           "add --noise, or drop --noise-rate to train on the labels as they are")
        if args.command == "train":  # a sweep scales its priors from the stored noise's rate
            raise CliError(f"--noise-rate {args.noise_rate} corrupts nothing: {' '.join(args.dataset)} already "
                           "holds its noise; drop --noise-rate to train on its labels as they are")
    if args.synthetic:
        test_set = _blobs(args, args.test_size, "--test-size", 200)
    elif args.test_dataset:
        test_set = _match_classes(train_set, _read(args.test_dataset, "--test-dataset"), args)
    else:
        try:
            train_set, test_set = split(train_set, args.test_fraction, seed=[args.seed, 300])
        except ValueError as exc:
            raise CliError(f"argument --test-fraction: {exc}") from None

    if args.noise:
        train_set = corrupt_dataset(train_set, _noise_spec(args, train_set))
    return train_set, test_set


def _train_config(args):
    _paired(_check_epochs, ["--epochs", "--burn-in"], args.epochs, args.burn_in)
    if args.threshold == "none" and args.epsilon_prior:
        raise CliError(f"--threshold none ignores --epsilon-prior, got {args.epsilon_prior}; "
                       "leave it at 0 or choose an npcl threshold")
    threshold = None if args.threshold == "none" else _paired(
        ThresholdMode, ["--threshold", "--epsilon-prior"], args.threshold, args.epsilon_prior)
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        burn_in_epochs=args.burn_in,
        threshold=threshold,
        base_loss=BaseLoss.parse(args.loss),
        lr=args.lr,
        seed=args.seed,
        hidden=args.hidden,
    )


def _train_run(args, config, train_set, test_set):
    """``npcl train``'s run, and each sweep cell's: ``_out_dir``, training, ``metrics.csv``; the metrics."""
    out = _out_dir(args)
    metrics, _ = train(config, train_set, test_set)
    write_metrics_csv(out / "metrics.csv", metrics)
    return metrics


def _cmd_train(args):
    config = _train_config(args)
    metrics = _train_run(args, config, *_load_datasets(args))
    print(f"wrote {Path(args.out) / 'metrics.csv'} ({len(metrics)} epochs, "
          f"final test accuracy {metrics[-1].test_acc:.4f})")
    return 0


def _cmd_corrupt(args):
    if not args.noise:
        raise CliError("corrupt needs --noise")
    dataset = _source(args)
    corrupted = corrupt_dataset(dataset, _noise_spec(args, dataset))
    out = _out_dir(args)
    save_dataset(out / "corrupted.npds", corrupted)
    flipped = int(corrupted.flip_flags.sum())  # every flip changes the label
    print(f"wrote {out / 'corrupted.npds'} ({flipped} of {len(dataset)} labels flipped)")
    return 0


def _sweep_cells(args):
    """The ``train`` flags of each in-range prior cell, with the number of factors skipped.

    A factor whose prior equals an earlier cell's, as at a subnormal ``--noise-rate``, is skipped
    too: its cell would train into the same directory.
    """
    cells, skipped, first = [], 0, {}  # first: each cell's prior -> the factor that gave it
    for factor in SWEEP_FACTORS:
        prior = factor * args.noise_rate
        if not 0.0 <= prior < 1.0:
            print(f"skipping factor {factor}: prior {prior:.3f} outside [0, 1)", file=sys.stderr)
            skipped += 1
            continue
        if prior in first:
            print(f"skipping factor {factor}: prior {prior:.4g} equals factor {first[prior]}'s", file=sys.stderr)
            skipped += 1
            continue
        first[prior] = factor
        out = str(Path(args.out) / f"prior_{prior:.4g}")
        # a cell echoes the rate it applied, so its rerun as a train run applies the same
        cells.append(argparse.Namespace(**{**vars(args), "epsilon_prior": prior, "out": out,
                                           "noise_rate": args.noise_rate if args.noise else 0.0}))
    return cells, skipped


_sweep = None  # the running sweep's (cells, configs, train set, test set), which its forked workers inherit


def _sweep_cell(index):
    """Sweep cell ``index`` as a ``train`` run in a forked worker; its final test accuracy and warnings."""
    cells, configs, *datasets = _sweep
    with warnings.catch_warnings(record=True) as caught:
        metrics = _train_run(cells[index], configs[index], *datasets)
    return metrics[-1].test_acc, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _cmd_sweep(args):
    global _sweep
    if not args.threshold.startswith("npcl"):
        raise CliError(f"sweep varies the prior, which --threshold {args.threshold} ignores; "
                       "choose an npcl threshold")
    if args.noise_rate == 0.0:
        raise CliError("sweep needs a true --noise-rate to scale priors from")
    datasets = _load_datasets(args)
    cells, skipped = _sweep_cells(args)
    configs = [_train_config(cell) for cell in cells]

    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    sys.stdout.flush()  # a forked worker flushes what it inherits when it exits
    sys.stderr.flush()
    pool = ProcessPoolExecutor(min(len(cells), len(os.sched_getaffinity(0))),
                               mp_context=multiprocessing.get_context("fork"))
    _sweep = cells, configs, *datasets
    try:
        futures = [pool.submit(_sweep_cell, index) for index in range(len(cells))]
        seen = {}  # repeats of one warning show once per sweep, as from one process
        for cell, future in zip(cells, futures):
            test_acc, caught = future.result()
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno, registry=seen)
            print(f"prior {cell.epsilon_prior:.4g}: final test accuracy {test_acc:.4f}")
    except BrokenExecutor:  # a dead worker fails every pending future, so no one cell is to blame
        pool.shutdown()  # returns once every future is settled
        lost = [f"{cell.epsilon_prior:.4g}" for cell, future in zip(cells, futures) if future.exception()]
        raise CliError(f"a sweep worker died; cells left unfinished: prior {', '.join(lost)}") from None
    finally:
        _sweep = None
        pool.shutdown(cancel_futures=True)
    return 1 if skipped else 0


def _cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed)
    width = max(len(f"{r.suite}: {r.name}") for r in results)
    all_ok = all(r.ok for r in results)
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status}  {f'{r.suite}: {r.name}':<{width}}  {r.detail}")
    print("all checks passed" if all_ok else "SOME CHECKS FAILED")
    return 0 if all_ok else 3


def run(argv):
    """Dispatch a command line; returns the process exit code."""
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            tokens = _config_argv(subparsers[args.command], args.config)
            args = parser.parse_args([args.command, *tokens, *argv[1:]])
        handler = {
            "train": _cmd_train,
            "corrupt": _cmd_corrupt,
            "sweep": _cmd_sweep,
            "verify": _cmd_verify,
        }[args.command]
        return handler(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IdxFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
