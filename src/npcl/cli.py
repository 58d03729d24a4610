"""Experiment runner: train / corrupt / verify / sweep.

Every run writes a ``config.txt`` echo of its fully resolved settings next
to its outputs, in the same line-oriented ``key = value`` format the
``--config`` option reads back (flags override file values).  Exit codes:
0 success, 1 validation problem, 2 I/O problem, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .corruption import CorruptionSpec, corrupt_dataset, write_sidecar
from .data import Dataset, IdxFormatError, load_idx, save_dataset, split, synth_blobs
from .losses import BaseLoss
from .net import AdamConfig, save_params
from .selection import ThresholdMode
from .training import TrainConfig, train, write_metrics_csv
from .verification import SUITES, run_suites

SWEEP_FACTORS = (0.5, 0.75, 1.0, 1.25, 1.5)


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


def _rate(text):
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"rate {value} outside [0, 1]")
    return value


def _prior(text):
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"prior {value} outside [0, 1)")
    return value


def _hidden(text):
    try:
        sizes = tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad hidden sizes {text!r}") from exc
    if any(size < 1 for size in sizes):
        raise argparse.ArgumentTypeError(f"hidden sizes must be >= 1, got {text!r}")
    return sizes


def _add_data_flags(sub):
    sub.add_argument("--dataset", nargs=2, metavar=("IMAGES", "LABELS"),
                     help="IDX image/label file pair")
    sub.add_argument("--test-dataset", nargs=2, metavar=("IMAGES", "LABELS"),
                     help="IDX pair for evaluation; default splits --dataset")
    sub.add_argument("--test-fraction", type=_rate, default=0.2,
                     help="held-out fraction when no --test-dataset is given")
    sub.add_argument("--synthetic", choices=["blobs"], help="generate data instead of loading")
    sub.add_argument("--train-size", type=int, default=5000)
    sub.add_argument("--test-size", type=int, default=1000)
    sub.add_argument("--classes", type=int, default=4)
    sub.add_argument("--separation", type=float, default=4.0)
    sub.add_argument("--noise-std", type=float, default=1.0)
    sub.add_argument("--blob-dim", type=int, default=2,
                     help="feature dimensions; class signal lives in the first two")
    sub.add_argument("--noise", choices=["symmetric", "pair"], help="label corruption kind")
    sub.add_argument("--noise-rate", type=_rate, default=0.0)


def _add_train_flags(sub):
    sub.add_argument("--loss", default="hinge",
                     help="hinge | soft-hinge | weighted:<beta>")
    sub.add_argument("--threshold", default="npcl-adaptive",
                     choices=list(ThresholdMode.KINDS))
    sub.add_argument("--epsilon-prior", type=_prior, default=0.0)
    sub.add_argument("--epochs", type=int, default=200)
    sub.add_argument("--batch-size", type=int, default=128)
    sub.add_argument("--burn-in", type=int, default=5)
    sub.add_argument("--lr", type=float, default=1e-3)
    sub.add_argument("--hidden", type=_hidden, default=(64, 64))
    sub.add_argument("--no-selection", action="store_true",
                     help="train on every sample (baseline path)")
    sub.add_argument("--no-shuffle", action="store_true")
    sub.add_argument("--checkpoint", help="write final parameters to this file")


def build_parser():
    parser = _Parser(prog="npcl", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    for name, help_text in (
        ("train", "run the selection training loop and write metrics"),
        ("corrupt", "write a corrupted dataset plus sidecar"),
        ("sweep", "train across a grid of noise-rate priors"),
    ):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", help="key = value file; flags override it")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--out", default="out", help="output directory")
        _add_data_flags(sub)
        if name != "corrupt":
            _add_train_flags(sub)
        subparsers[name] = sub

    verify = subs.add_parser("verify", help="run the property suites")
    verify.add_argument("suite", nargs="?", choices=["all", *SUITES], default="all")
    verify.add_argument("--seed", type=int, default=0)
    subparsers["verify"] = verify
    return parser, subparsers


def parse_config_file(path):
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_argv(sub, path):
    """The config file as flag tokens, to go ahead of the user's flags so those override it."""
    tokens = []
    for key, raw in parse_config_file(path).items():
        action = sub.options.get(key)
        if action is None or key in ("help", "config"):
            raise CliError(f"unknown config key {key.replace('_', '-')!r}")
        flag = action.option_strings[-1]
        if action.nargs == 0:
            tokens += [flag] if raw.lower() in ("1", "true", "yes") else []
        else:
            tokens += [flag, *(raw.split() if action.nargs == 2 else [raw])]
    try:
        sub.parse_args(tokens)
    except CliError as exc:
        raise CliError(f"{path}: {exc}") from exc
    return tokens


def _echo_config(args, path):
    skip = {"command", "config"}
    lines = []
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if value is None:
            continue
        if isinstance(value, list):  # nargs=2 path pairs
            value = " ".join(value)
        elif isinstance(value, tuple):  # --hidden sizes
            value = ",".join(str(v) for v in value)
        lines.append(f"{key.replace('_', '-')} = {value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_source(args):
    if args.synthetic and args.dataset:
        raise CliError("choose either --dataset or --synthetic, not both")
    if not (args.synthetic or args.dataset):
        raise CliError("need --dataset or --synthetic")


def _blobs(args, size, stream):
    return synth_blobs(size, args.classes, args.separation, args.noise_std,
                       seed=[args.seed, stream], dim=args.blob_dim)


def _match_classes(train_set, test_set, args):
    """The test set under the train set's class count K, which its labels must fit.

    IDX files carry no class count, so K is one past the largest label, and
    a held-out split that lacks the top label would come out with a smaller K.
    """
    k = train_set.num_classes
    if test_set.num_classes > k:
        raise CliError(
            f"test set {' '.join(args.test_dataset)} has labels up to {test_set.num_classes - 1}, "
            f"but train set {' '.join(args.dataset)} has {k} classes"
        )
    return Dataset(test_set.features, test_set.labels, k)


def _load_datasets(args):
    _check_source(args)
    if args.synthetic:
        train_set = _blobs(args, args.train_size, 100)
        test_set = _blobs(args, args.test_size, 200)
    else:
        train_set = load_idx(*args.dataset)
        if args.test_dataset:
            test_set = _match_classes(train_set, load_idx(*args.test_dataset), args)
        else:
            train_set, test_set = split(train_set, args.test_fraction, seed=[args.seed, 300])

    if args.noise:
        spec = CorruptionSpec(args.noise, args.noise_rate, args.seed, train_set.num_classes)
        train_set = corrupt_dataset(train_set, spec)
    return train_set, test_set


def _train_config(args, prior=None):
    mode_kind = args.threshold
    epsilon = args.epsilon_prior if prior is None else prior
    mode = ThresholdMode(mode_kind, epsilon if mode_kind.startswith("npcl") else 0.0)
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        burn_in_epochs=args.burn_in,
        threshold=mode,
        base_loss=BaseLoss.parse(args.loss),
        optimizer=AdamConfig(lr=args.lr),
        seed=args.seed,
        shuffle=not args.no_shuffle,
        hidden=args.hidden,
        selection=not args.no_selection,
    )


def _cmd_train(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_set, test_set = _load_datasets(args)
    config = _train_config(args)
    _echo_config(args, out / "config.txt")
    metrics, params = train(config, train_set, test_set)
    write_metrics_csv(out / "metrics.csv", metrics)
    if args.checkpoint:
        save_params(args.checkpoint, params)
    last = metrics[-1]
    print(f"wrote {out / 'metrics.csv'} ({len(metrics)} epochs, "
          f"final test accuracy {last.test_acc:.4f})")
    return 0


def _cmd_corrupt(args):
    if not args.noise:
        raise CliError("corrupt needs --noise")
    _check_source(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = _blobs(args, args.train_size, 100) if args.synthetic else load_idx(*args.dataset)
    spec = CorruptionSpec(args.noise, args.noise_rate, args.seed, dataset.num_classes)
    corrupted = corrupt_dataset(dataset, spec)
    flags = corrupted.flip_flags  # every flip changes the label
    _echo_config(args, out / "config.txt")
    save_dataset(out / "corrupted.npds", corrupted)
    write_sidecar(out / "corrupted.json", spec, flags)
    print(f"wrote {out / 'corrupted.npds'} ({int(flags.sum())} of {len(dataset)} labels flipped)")
    return 0


def _cmd_sweep(args):
    if args.noise_rate == 0.0:
        raise CliError("sweep needs a true --noise-rate to scale priors from")
    out = Path(args.out)
    train_set, test_set = _load_datasets(args)
    failures = 0
    for factor in SWEEP_FACTORS:
        prior = factor * args.noise_rate
        if not 0.0 <= prior < 1.0:
            print(f"skipping factor {factor}: prior {prior:.3f} outside [0, 1)", file=sys.stderr)
            failures += 1
            continue
        cell = out / f"prior_{prior:.4g}"
        cell.mkdir(parents=True, exist_ok=True)
        config = _train_config(args, prior=prior)
        _echo_config(args, cell / "config.txt")
        metrics, _ = train(config, train_set, test_set)
        write_metrics_csv(cell / "metrics.csv", metrics)
        print(f"prior {prior:.4g}: final test accuracy {metrics[-1].test_acc:.4f}")
    return 1 if failures else 0


def _cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed)
    width = max(len(f"{r.suite}: {r.name}") for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        all_ok &= r.ok
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
