"""Command-line pipeline: prepare | train | evaluate | gradcheck | sweep.

Every command is a pure function of its input files, configuration, and
seed. One table (OPTIONS) defines every option: its flag, its key in the
flat key=value config file (--config), its parser and default, and the
commands that take or require it. Flags given on the command line win over
the file. The seed has no entropy default: runs are reproducible or they
do not start.

Exit codes: 0 success, 1 validation or numeric failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
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
    text = str(text)
    if not tensorcore._is_count(text.removeprefix("-")):
        raise CliError(f"bad {flag} value {text!r}")
    return int(text)


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
    try:
        value = float(text)
    except ValueError:
        raise CliError(f"bad {flag} value {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise CliError(f"{flag} must be positive and finite")
    return value


def _bool(text, flag):
    lowered = str(text).strip().lower()
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

OPTIONS = (
    Option("seed", _count, None, tuple(COMMANDS), ("prepare", "train", "sweep", "gradcheck")),
    Option("out", _text, None, tuple(COMMANDS), ("prepare", "train", "evaluate", "sweep")),
    Option("dataset_kind", _text, "generic", ("prepare",)),
    *(Option(key, _text, None, ("prepare",)) for key in (
        "ratings", "users", "items", "interactions", "user_attrs", "item_attrs", "category_map")),
    Option("model", _list(_kind), "gmf", (*_MODEL_RUNS, "gradcheck"), grid=("gmf",)),
    Option("factors", _list(_positive), 8, _MODEL_RUNS, grid=models.SWEEP_FACTORS),
    Option("layers", _widths, models.DEFAULT_LAYERS, _MODEL_RUNS),
    Option("lr", _rate, training.DEFAULT_LR, _MODEL_RUNS),
    Option("epochs", _count, training.DEFAULT_EPOCHS, _MODEL_RUNS),
    Option("batch_size", _positive, training.DEFAULT_BATCH_SIZE, _MODEL_RUNS),
    Option("neg_ratio", _positive, training.DEFAULT_NEGATIVE_RATIO, _MODEL_RUNS),
    Option("include_attr_cross", _bool, False, _MODEL_RUNS),
    Option("checkpoint_every", _count, 0, ("train",)),
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


def _checkpoint_header(config, model_config):
    return {
        "model": model_config.kind,
        "factors": model_config.factors,
        "layers": ",".join(str(w) for w in model_config.mlp_layers),
        "num_users": model_config.num_users,
        "num_items": model_config.num_items,
        "user_vocab": model_config.user_vocab_size,
        "item_vocab": model_config.item_vocab_size,
        "include_attr_cross": int(model_config.include_attr_cross),
        "seed": config.seed,
    }


def cmd_prepare(config, log=print):
    """Parse the raw dataset, split it, and write the prepared artifacts."""
    if config.dataset_kind == "movielens":
        for flag, value in (("--ratings", config.ratings), ("--users", config.users),
                            ("--items", config.items)):
            if not value:
                raise CliError(f"{flag} is required for --dataset-kind movielens")
        parsed = corpus.parse_movielens(config.ratings, config.users, config.items)
    elif config.dataset_kind == "generic":
        for flag, value in (("--interactions", config.interactions),
                            ("--user-attrs", config.user_attrs),
                            ("--item-attrs", config.item_attrs)):
            if not value:
                raise CliError(f"{flag} is required for --dataset-kind generic")
        parsed = corpus.parse_generic(
            config.interactions, config.user_attrs, config.item_attrs, config.category_map
        )
    else:
        raise CliError(f"unknown --dataset-kind {config.dataset_kind!r}")

    split = corpus.leave_one_out_split(parsed.interactions, config.seed)
    corpus.save_prepared(config.out, split, parsed.catalog)

    data = parsed.interactions
    sparsity = 1.0 - len(data) / (data.num_users * data.num_items)
    log(f"users\t{data.num_users}")
    log(f"items\t{data.num_items}")
    log(f"interactions\t{len(data)}")
    log(f"sparsity\t{_float_repr(sparsity)}")
    return 0


def _write_metrics_row(fh, epoch, config, stats, report):
    fh.write(
        f"{epoch},{config.model},{config.factors},{config.seed},"
        f"{_float_repr(stats.mean_loss)},{_float_repr(report.hr_at_10)},"
        f"{_float_repr(report.ndcg_at_10)},{_float_repr(stats.wall_seconds)}\n"
    )


def train_and_save(config, log=print):
    """Train one model on the prepared split, write metrics CSV and checkpoint; return the TrainResult."""
    split, catalog = corpus.load_prepared(config.out)
    model_config = _model_config(config, split, catalog)
    csv_file = metrics_path(config.out, config.model, config.factors)
    header = _checkpoint_header(config, model_config)

    with open(csv_file, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(METRICS_HEADER + "\n")

        def on_epoch(stats, report, store):
            _write_metrics_row(fh, stats.epoch, config, stats, report)
            fh.flush()
            log(
                f"epoch {stats.epoch}/{config.epochs} loss={stats.mean_loss:.4f} "
                f"hr10={report.hr_at_10:.4f} ndcg10={report.ndcg_at_10:.4f} "
                f"({stats.wall_seconds:.1f}s)"
            )
            if config.checkpoint_every and stats.epoch % config.checkpoint_every == 0:
                snapshot = ckpt_path(config.out, config.model, config.factors)
                tensorcore.save_checkpoint(f"{snapshot}.epoch{stats.epoch}", store, header)

        result = training.train(
            model_config, split, catalog,
            seed=config.seed, lr=config.lr, epochs=config.epochs,
            batch_size=config.batch_size, negative_ratio=config.neg_ratio,
            on_epoch=on_epoch,
        )

    tensorcore.save_checkpoint(ckpt_path(config.out, config.model, config.factors), result.store, header)
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


def _checkpoint_model_config(path, header):
    """The ModelConfig a checkpoint header describes (the inverse of _checkpoint_header)."""
    def entry(key, parse=int):
        if key not in header:
            raise CliError(f"checkpoint {path} header has no {key!r} entry")
        try:
            return parse(header[key])
        except (ValueError, CliError):
            raise CliError(f"checkpoint {path} header entry {key!r} is malformed: "
                           f"{header[key]!r}") from None

    return models.ModelConfig(
        kind=entry("model", str),
        num_users=entry("num_users"),
        num_items=entry("num_items"),
        factors=entry("factors"),
        mlp_layers=entry("layers", lambda text: _widths(text, "layers")),
        user_vocab_size=entry("user_vocab"),
        item_vocab_size=entry("item_vocab"),
        include_attr_cross=bool(entry("include_attr_cross")),
    )


def cmd_evaluate(config, log=print):
    """Evaluate a written checkpoint on the prepared split."""
    split, catalog = corpus.load_prepared(config.out)
    path = ckpt_path(config.out, config.model, config.factors)
    store, header = tensorcore.load_checkpoint(path)
    model_config = _checkpoint_model_config(path, header)
    counts = {"num_users": split.train.num_users, "num_items": split.train.num_items}
    if model_config.uses_attributes:
        counts.update(user_vocab_size=catalog.user_vocab_size, item_vocab_size=catalog.item_vocab_size)
    if any(getattr(model_config, key) != count for key, count in counts.items()):
        raise CliError(f"checkpoint {path} does not match the prepared dataset")
    expected = {name: shape for name, shape, _init in models.parameter_shapes(model_config)}
    found = {name: store.shape(name) for name in store.names()}
    for name in sorted(set(expected) | set(found)):
        if found.get(name) != expected.get(name):
            raise CliError(
                f"checkpoint {path} parameter {name!r} has shape {found.get(name, 'absent')}, "
                f"but its {model_config.kind} header needs {expected.get(name, 'absent')}"
            )
    report = evaluation.evaluate(model_config, store, split, catalog,
                                 keep_ranks=config.ranks_out is not None)
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
            f"< {report.tolerance})")
        return 0
    log(f"gradcheck {config.model}: FAIL at parameter {report.worst()!r} "
        f"({report.per_param[report.worst()]:.3e} >= {report.tolerance})")
    return 1


def cmd_sweep(config, log=print):
    """Train each (model, factors) cell on one shared prepared split.

    config.model and config.factors are the grid's lists. Emits a combined
    table (rows = factor counts, columns = models in the requested order)
    using each cell's best-epoch metrics; cell failures are reported and the
    sweep continues.
    """
    model_list, factors_list = config.model, config.factors
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
    with open(os.path.join(config.out, "sweep.csv"), "w", encoding="utf-8", newline="\n") as fh:
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
    """(command, config) for `argv`; config holds one value per option the command takes."""
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    config = load_run_config(args.pop("config"), args)
    for opt in OPTIONS:
        value = getattr(config, opt.key)
        if command in opt.requires and value is None:
            raise CliError(f"{opt.flag} is required")
        if opt.grid is None or command not in opt.takes:
            continue
        if value is opt.default:  # set by neither the file nor a flag
            value = opt.grid if command == "sweep" else value
        elif command != "sweep":
            if len(value) != 1:
                raise CliError(f"{opt.flag} takes one value; only sweep takes a list")
            value = value[0]
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
            tensorcore.ShapeError, ValueError) as exc:
        print(f"crossrec: error: {exc}", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
