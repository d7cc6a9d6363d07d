"""Command-line pipeline: prepare | train | evaluate | gradcheck | sweep.

Every command is a pure function of its input files, configuration, and
seed. One table (OPTIONS) defines every option: its flag, its key in the
flat key=value config file (--config), its parser and default, and the
commands that take or require it. Flags win over the file, and a file key
the command does not take is checked, not applied. The seed has no entropy
default: runs are reproducible or they do not start.

Exit codes: 0 success, 1 validation or numeric failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from typing import NamedTuple

from . import corpus, evaluation, models, tensorcore, training

METRICS_HEADER = "epoch,model,factors,seed,train_loss,hr10,ndcg10,wall_seconds"


class CliError(Exception):
    """Invalid configuration or flag combination."""


def _text(text, flag):
    return str(text) or None  # an empty path is an unset one


def _int(text, flag):
    try:
        return tensorcore.decimal_int(str(text), 128)  # seeds may pass 64 bits
    except ValueError:
        raise CliError(f"bad {flag} value {text!r}") from None


def _count(text, flag):
    value = _int(text, flag)
    if value < 0:
        raise CliError(f"{flag} must be non-negative")
    return value


def _positive(text, flag):
    value = _int(text, flag)
    if value < 1:
        raise CliError(f"{flag} must be positive")
    return value


def _rate(text, flag):
    text = str(text)
    # float() would also take digit-group underscores, whitespace and non-ASCII digits
    if not text.isascii() or any(ch == "_" or ch.isspace() for ch in text):
        raise CliError(f"bad {flag} value {text!r}")
    try:
        value = float(text)
    except ValueError:
        raise CliError(f"bad {flag} value {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise CliError(f"{flag} must be positive and finite")
    return value


def _bool(text, flag):
    lowered = str(text).lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise CliError(f"bad {flag} value {text!r}")


def _kind(text, flag):
    if text not in models.KINDS:
        raise CliError(f"unknown model kind {text!r}; expected one of {', '.join(models.KINDS)}")
    return text


def _list(parse):
    """A parser for comma-separated values, each read by `parse`."""
    return lambda text, flag: tuple(parse(part, flag) for part in str(text).split(","))


_widths = _list(_positive)


class Option(NamedTuple):
    key: str
    parse: object      # (text, flag) -> value; raises CliError naming the flag
    default: object
    takes: tuple       # the commands with this flag
    requires: tuple = ()
    grid: tuple = None  # list options: sweep takes a list (this one when unset), the rest one value

    @property
    def flag(self):
        return "--" + self.key.replace("_", "-")


# command -> its line in `crossrec --help`
COMMANDS = {
    "prepare": "parse + split + test negatives",
    "train": "train one model on a prepared run",
    "evaluate": "HR@10 and NDCG@10 of a trained checkpoint",
    "sweep": "train every (model, factors) cell of a grid",
    "gradcheck": "finite-difference check of one model's gradients",
}
_MODEL_RUNS = ("train", "evaluate", "sweep")
_TRAINING_RUNS = ("train", "sweep")

# --dataset-kind -> (required, optional) file keys, in corpus.parse_<kind>'s argument order
_DATASET_FILES = {
    "movielens": (("ratings", "users", "items"), ()),
    "generic": (("interactions", "user_attrs", "item_attrs"), ("category_map",)),
}
_FILE_KEYS = [key for required, optional in _DATASET_FILES.values() for key in required + optional]

OPTIONS = (
    Option("seed", _count, None, tuple(COMMANDS), ("prepare", "train", "sweep", "gradcheck")),
    Option("out", _text, None, ("prepare", *_MODEL_RUNS), ("prepare", *_MODEL_RUNS)),
    Option("dataset_kind", _text, "generic", ("prepare",)),
    *(Option(key, _text, None, ("prepare",)) for key in _FILE_KEYS),
    Option("model", _list(_kind), "gmf", (*_MODEL_RUNS, "gradcheck"), grid=("gmf",)),
    Option("factors", _list(_positive), 8, _MODEL_RUNS, grid=models.SWEEP_FACTORS),
    Option("layers", _widths, models.DEFAULT_LAYERS, _TRAINING_RUNS),
    Option("lr", _rate, training.DEFAULT_LR, _TRAINING_RUNS),
    Option("epochs", _count, training.DEFAULT_EPOCHS, _TRAINING_RUNS),
    Option("batch_size", _positive, training.DEFAULT_BATCH_SIZE, _TRAINING_RUNS),
    Option("neg_ratio", _positive, training.DEFAULT_NEGATIVE_RATIO, _TRAINING_RUNS),
    Option("include_attr_cross", _bool, False, _TRAINING_RUNS),
    Option("ranks_out", _text, None, ("evaluate",)),
)
_BY_KEY = {opt.key: opt for opt in OPTIONS}


def _set(config, key, text):
    opt = _BY_KEY[key]
    setattr(config, key, opt.parse(text, opt.flag))


def load_run_config(config_path=None, overrides=None):
    """Table defaults, then the key=value file, then `overrides` (flag text) on top."""
    config = argparse.Namespace(**{opt.key: opt.default for opt in OPTIONS})
    if config_path:
        with open(config_path, "rb") as fh:  # decoded per line: a decode error names its line
            for lineno, line in enumerate(fh, start=1):
                try:
                    line = line.decode("utf-8").strip()
                    if not line or line.startswith("#"):
                        continue
                    key, has_value, value = line.partition("=")
                    key = key.strip().replace("-", "_")
                    if not has_value:
                        raise CliError("expected key=value")
                    if key not in _BY_KEY:
                        raise CliError(f"unknown key {key!r}")
                    _set(config, key, value.strip())
                except (CliError, UnicodeDecodeError) as exc:
                    raise CliError(f"{config_path}:{lineno}: {exc}") from None
    for key, text in (overrides or {}).items():
        if text is not None:
            _set(config, key, text)
    return config


def _float_repr(x):
    """Shortest round-trip decimal form, so reruns diff and checksum cleanly."""
    return repr(float(x))


def ckpt_path(out_dir, model, factors):
    return os.path.join(out_dir, f"checkpoint_{model}_f{factors}.ckpt")


def metrics_path(out_dir, model, factors):
    return os.path.join(out_dir, f"metrics_{model}_f{factors}.csv")


def _model_config(config, split, catalog):
    return models.ModelConfig(
        kind=config.model,
        num_users=split.train.num_users,
        num_items=split.train.num_items,
        factors=config.factors,
        mlp_layers=config.layers,
        user_vocab_size=catalog.user_vocab_size,
        item_vocab_size=catalog.item_vocab_size,
        include_attr_cross=config.include_attr_cross,
    )


def _refuse_directories(*paths):
    """IsADirectoryError for the first of `paths` that is a directory: files renamed
    over only when a run ends are checked before it starts."""
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def cmd_prepare(config, log=print):
    """Parse the raw dataset, split it, and write the prepared artifacts."""
    kind = config.dataset_kind
    if kind not in _DATASET_FILES:
        raise CliError(f"unknown --dataset-kind {kind!r}")
    required, optional = _DATASET_FILES[kind]
    for key in _FILE_KEYS:
        given = getattr(config, key)
        if key in required and not given:
            raise CliError(f"{_BY_KEY[key].flag} is required for --dataset-kind {kind}")
        if given and key not in required + optional:
            raise CliError(f"{_BY_KEY[key].flag} is not read for --dataset-kind {kind}")
    _refuse_directories(*(os.path.join(config.out, name) for name in corpus.PREPARED_FILES))
    # looked up at call time, as perfbench/tracer.py times the parsers by replacing them
    data, catalog = getattr(corpus, f"parse_{kind}")(*(getattr(config, key) for key in required + optional))

    split = corpus.leave_one_out_split(data, config.seed)
    corpus.save_prepared(config.out, split, catalog)

    sparsity = 1.0 - len(data) / (data.num_users * data.num_items)
    log(f"users\t{data.num_users}")
    log(f"items\t{data.num_items}")
    log(f"interactions\t{len(data)}")
    log(f"sparsity\t{_float_repr(sparsity)}")
    return 0


def train_and_save(config, log=print):
    """Train one model on the prepared split; return the TrainResult. Its metrics CSV is written beside
    its path and renamed over it after the checkpoint, so only a run that succeeds replaces either."""
    split, catalog = corpus.load_prepared(config.out)
    model_config = _model_config(config, split, catalog)
    csv_file = metrics_path(config.out, config.model, config.factors)
    checkpoint = ckpt_path(config.out, config.model, config.factors)
    header = {"model": config.model, "factors": config.factors, "layers": ",".join(map(str, config.layers)),
              "include_attr_cross": int(config.include_attr_cross),
              "prepared": corpus.prepared_fingerprint(config.out), "seed": config.seed}

    _refuse_directories(csv_file, checkpoint)
    with tensorcore.replacing(csv_file) as [tmp], open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(METRICS_HEADER + "\n")

        def on_epoch(stats, report, _store):
            fh.write(f"{stats.epoch},{config.model},{config.factors},{config.seed},"
                     f"{_float_repr(stats.mean_loss)},{_float_repr(report.hr_at_10)},"
                     f"{_float_repr(report.ndcg_at_10)},{_float_repr(stats.wall_seconds)}\n")
            log(
                f"epoch {stats.epoch}/{config.epochs} loss={stats.mean_loss:.4f} "
                f"hr10={report.hr_at_10:.4f} ndcg10={report.ndcg_at_10:.4f} "
                f"({stats.wall_seconds:.1f}s)"
            )

        result = training.train(
            model_config, split, catalog,
            seed=config.seed, lr=config.lr, epochs=config.epochs,
            batch_size=config.batch_size, negative_ratio=config.neg_ratio,
            on_epoch=on_epoch,
        )
        tensorcore.save_checkpoint(checkpoint, result.store, header)
    if result.eval_reports:
        best = result.best_epoch()
        final = result.eval_reports[-1]
        best_report = result.eval_reports[best - 1]
        log(f"best epoch {best}: hr10={_float_repr(best_report.hr_at_10)} "
            f"ndcg10={_float_repr(best_report.ndcg_at_10)}")
        log(f"final epoch {len(result.eval_reports)}: hr10={_float_repr(final.hr_at_10)} "
            f"ndcg10={_float_repr(final.ndcg_at_10)}")
    return result


def cmd_train(config, log=print):
    """Train one model on the prepared split; write metrics CSV and checkpoint."""
    train_and_save(config, log)
    return 0


# the header entries evaluate reads: with the run they give the model, and `prepared` names the run
_HEADER_OPTIONS = {"model": _kind, "factors": _positive, "layers": _widths, "include_attr_cross": _bool,
                   "prepared": _text}


def _header_options(path, header):
    """The entries evaluate reads from a checkpoint header, each by its option's parser."""
    options = argparse.Namespace()
    for key, parse in _HEADER_OPTIONS.items():
        if key not in header:
            raise CliError(f"checkpoint {path} header has no {key!r} entry")
        try:
            setattr(options, key, parse(header[key], key))
        except CliError:
            raise CliError(f"checkpoint {path} header entry {key!r} is malformed: "
                           f"{header[key]!r}") from None
    return options


def cmd_evaluate(config, log=print):
    """Evaluate a written checkpoint on the prepared split."""
    if config.ranks_out:
        _refuse_directories(config.ranks_out)
    split, catalog = corpus.load_prepared(config.out)
    path = ckpt_path(config.out, config.model, config.factors)
    store, header = tensorcore.load_checkpoint(path)
    options = _header_options(path, header)
    model_config = _model_config(options, split, catalog)
    expected = dict(models.parameter_shapes(model_config))
    found = {name: store.shape(name) for name in store.names()}
    for name in sorted(set(expected) | set(found)):
        if found.get(name) != expected.get(name):
            raise CliError(
                f"checkpoint {path} does not match the prepared dataset: parameter {name!r} has shape "
                f"{found.get(name, 'absent')}, but its {model_config.kind} header on this run needs "
                f"{expected.get(name, 'absent')}"
            )
    prepared = corpus.prepared_fingerprint(config.out)
    if options.prepared != prepared:
        raise CliError(f"checkpoint {path} was trained on prepared run {options.prepared}, but "
                       f"{config.out} holds prepared run {prepared}; train it again on this run")
    if (options.model, options.factors) != (config.model, config.factors):
        raise CliError(f"checkpoint {path} holds a {options.model} model at {options.factors} factors, "
                       f"not the {config.model} at {config.factors} that --model and --factors name")
    report = evaluation.evaluate(model_config, store, split, catalog)
    if config.ranks_out:
        evaluation.save_ranks(report, config.ranks_out)
    log(f"hr10\t{_float_repr(report.hr_at_10)}")
    log(f"ndcg10\t{_float_repr(report.ndcg_at_10)}")
    return 0


def cmd_gradcheck(config, log=print):
    """Verify analytic gradients for one model kind; exit 1 beyond tolerance."""
    report = training.gradcheck(config.model, config.seed)
    for name in sorted(report.per_param):
        log(
            f"{name}\tmax_rel_err={report.per_param[name]:.3e}"
            f"\tkink_skips={report.kink_skips[name]}"
        )
    if report.ok:
        log(f"gradcheck {config.model}: PASS (max {report.max_relative_error:.3e} "
            f"< {training.GRADCHECK_TOLERANCE})")
        return 0
    log(f"gradcheck {config.model}: FAIL at parameter {report.worst()!r} "
        f"({report.per_param[report.worst()]:.3e} >= {training.GRADCHECK_TOLERANCE})")
    return 1


def cmd_sweep(config, log=print):
    """Train each (model, factors) cell on one shared prepared split.

    config.model and config.factors are the grid's lists. Emits a combined
    table (rows = factor counts, columns = models in the requested order)
    using each cell's best-epoch metrics; cell failures are reported and the
    sweep continues. The table replaces sweep.csv only once it is complete.
    """
    model_list, factors_list = config.model, config.factors
    table = os.path.join(config.out, "sweep.csv")
    _refuse_directories(table)
    best = {}  # (model, factors) -> EvalReport of the cell's best epoch
    failures = []
    for model in model_list:
        for factors in factors_list:
            cell_config = argparse.Namespace(**{**vars(config), "model": model, "factors": factors})
            try:
                result = train_and_save(cell_config, log=lambda _msg: None)
                if result.eval_reports:
                    best[(model, factors)] = result.eval_reports[result.best_epoch() - 1]
            except Exception as exc:  # keep sweeping the remaining cells
                failures.append((model, factors, exc))
                log(f"cell {model}/f{factors} failed: {exc}")

    columns = ["factors"]
    for model in model_list:
        columns += [f"{model}_hr10", f"{model}_ndcg10"]
    with tensorcore.replacing(table) as [tmp], open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        log("\t".join(columns))
        for factors in factors_list:
            row, shown = [str(factors)], [str(factors)]
            for model in model_list:
                report = best.get((model, factors))
                row += [_float_repr(report.hr_at_10), _float_repr(report.ndcg_at_10)] if report else ["", ""]
                shown += [f"{report.hr_at_10:.4f}\t{report.ndcg_at_10:.4f}" if report else "-\t-"]
            fh.write(",".join(row) + "\n")
            log("\t".join(shown))
    return 1 if failures else 0


# -- argument plumbing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems are validation failures (exit 1, not argparse's 2)
        self.print_usage(sys.stderr)
        raise CliError(message)


def build_parser():
    parser = _Parser(prog="crossrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="flat key=value config file; flags override it")
        for opt in OPTIONS:
            if command in opt.takes:
                # flags keep their text; load_run_config reads it with the table's parser
                extra = {"action": "store_true", "default": None} if opt.parse is _bool else {}
                p.add_argument(opt.flag, dest=opt.key, **extra)
    return parser


def parse_command_line(argv):
    """(command, config) for `argv`; options the command does not take keep their defaults."""
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    config = load_run_config(args.pop("config"), args)
    for opt in OPTIONS:
        value = getattr(config, opt.key)
        if command not in opt.takes:  # a shared file's key for other commands: checked, not applied
            value = opt.default
        elif command in opt.requires and value is None:
            raise CliError(f"{opt.flag} is required")
        elif opt.grid is not None:
            if value is opt.default:  # set by neither the file nor a flag
                value = opt.grid if command == "sweep" else value
            elif command != "sweep":
                if len(value) != 1:
                    raise CliError(f"{opt.flag} takes one value; only sweep takes a list")
                value = value[0]
            elif len(set(value)) != len(value):  # one cell trained twice, its columns repeated
                repeated = next(v for v in value if value.count(v) > 1)
                raise CliError(f"{opt.flag} lists {repeated!r} more than once")
        setattr(config, opt.key, value)
    return command, config


def _run(argv):
    command, config = parse_command_line(argv)
    # looked up at call time, as perfbench/tracer.py times commands by replacing cli.cmd_*
    return globals()[f"cmd_{command}"](config)


def main(argv=None):
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
    except (OSError,) as exc:
        print(f"crossrec: i/o error: {exc}", file=sys.stderr)
        code = 2
    except (CliError, corpus.CorpusError, training.TrainingError,
            evaluation.EvaluationError, tensorcore.NumericsError,
            tensorcore.ShapeError, ValueError, MemoryError) as exc:
        print(f"crossrec: error: {exc}", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
