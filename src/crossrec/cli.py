"""Command-line pipeline: prepare | train | evaluate | gradcheck | sweep.

Every command is a pure function of its input files, configuration, and
seed. Options can come from a flat key=value config file (--config); flags
given on the command line win. The seed has no entropy default: runs are
reproducible or they do not start.

Exit codes: 0 success, 1 validation or numeric failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from . import corpus, evaluation, models, tensorcore, training

METRICS_HEADER = "epoch,model,factors,seed,train_loss,hr10,ndcg10,wall_seconds"


class CliError(Exception):
    """Invalid configuration or flag combination."""


@dataclass
class RunConfig:
    dataset_kind: str = "generic"
    ratings: str = None
    users: str = None
    items: str = None
    interactions: str = None
    user_attrs: str = None
    item_attrs: str = None
    category_map: str = None
    model: str = "gmf"
    factors: int = 8
    layers: tuple = models.DEFAULT_LAYERS
    lr: float = training.DEFAULT_LR
    epochs: int = training.DEFAULT_EPOCHS
    batch_size: int = training.DEFAULT_BATCH_SIZE
    neg_ratio: int = training.DEFAULT_NEGATIVE_RATIO
    seed: int = None
    out: str = None
    checkpoint_every: int = 0
    include_attr_cross: bool = False

    def require_seed(self):
        if self.seed is None:
            raise CliError("--seed is required (no entropy default)")
        if self.seed < 0:
            raise CliError("--seed must be non-negative")

    def require_out(self):
        if not self.out:
            raise CliError("--out directory is required")

    def validate_numeric(self):
        for field_name in ("factors", "epochs", "batch_size", "neg_ratio"):
            if getattr(self, field_name) < 0 or (field_name != "epochs" and getattr(self, field_name) == 0):
                raise CliError(f"--{field_name.replace('_', '-')} must be positive")
        if self.lr <= 0:
            raise CliError("--lr must be positive")
        if any(w < 1 for w in self.layers):
            raise CliError("--layers widths must be positive")


def _parse_layers(text):
    try:
        return tuple(int(w) for w in str(text).split(",") if w != "")
    except ValueError:
        raise CliError(f"bad --layers value {text!r}; expected comma-separated widths") from None


def _parse_bool(text):
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise CliError(f"bad boolean value {text!r}")


_CONFIG_FIELDS = {
    "dataset_kind": str, "ratings": str, "users": str, "items": str,
    "interactions": str, "user_attrs": str, "item_attrs": str, "category_map": str,
    "model": str, "factors": int, "layers": _parse_layers, "lr": float,
    "epochs": int, "batch_size": int, "neg_ratio": int, "seed": int, "out": str,
    "checkpoint_every": int, "include_attr_cross": _parse_bool,
}


def load_run_config(config_path=None, overrides=None):
    """key=value file values, then CLI overrides on top (flags win)."""
    config = RunConfig()
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(f"{config_path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if key not in _CONFIG_FIELDS:
                    raise CliError(f"{config_path}:{lineno}: unknown key {key!r}")
                setattr(config, key, _CONFIG_FIELDS[key](value.strip()))
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(config, key, value)
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
    config.require_seed()
    config.require_out()
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


def cmd_train(config, log=print):
    """Train one model on the prepared split; write metrics CSV and checkpoint."""
    config.require_seed()
    config.require_out()
    config.validate_numeric()
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
    return 0


def _checkpoint_model_config(path, header):
    """The ModelConfig a checkpoint header describes (the inverse of _checkpoint_header)."""
    def entry(key, parse=int):
        if key not in header:
            raise CliError(f"checkpoint {path} header has no {key!r} entry")
        try:
            return parse(header[key])
        except ValueError:
            raise CliError(f"checkpoint {path} header entry {key!r} is malformed: "
                           f"{header[key]!r}") from None

    return models.ModelConfig(
        kind=entry("model", str),
        num_users=entry("num_users"),
        num_items=entry("num_items"),
        factors=entry("factors"),
        mlp_layers=entry("layers", lambda text: tuple(int(w) for w in text.split(","))),
        user_vocab_size=entry("user_vocab"),
        item_vocab_size=entry("item_vocab"),
        include_attr_cross=bool(entry("include_attr_cross")),
    )


def cmd_evaluate(config, ranks_out=None, log=print):
    """Evaluate a written checkpoint on the prepared split."""
    config.require_out()
    split, catalog = corpus.load_prepared(config.out)
    path = ckpt_path(config.out, config.model, config.factors)
    store, header = tensorcore.load_checkpoint(path)
    model_config = _checkpoint_model_config(path, header)
    if model_config.num_users != split.train.num_users or model_config.num_items != split.train.num_items:
        raise CliError(f"checkpoint {path} does not match the prepared dataset")
    expected = {name: shape for name, shape, _init in models.parameter_shapes(model_config)}
    found = {name: store.shape(name) for name in store.names()}
    for name in sorted(set(expected) | set(found)):
        if found.get(name) != expected.get(name):
            raise CliError(
                f"checkpoint {path} parameter {name!r} has shape {found.get(name, 'absent')}, "
                f"but its {model_config.kind} header needs {expected.get(name, 'absent')}"
            )
    report = evaluation.evaluate(model_config, store, split, catalog, keep_ranks=ranks_out is not None)
    if ranks_out:
        evaluation.save_ranks(report, ranks_out)
    log(f"hr10\t{_float_repr(report.hr_at_10)}")
    log(f"ndcg10\t{_float_repr(report.ndcg_at_10)}")
    return 0


def cmd_gradcheck(config, log=print):
    """Verify analytic gradients for one model kind; exit 1 beyond tolerance."""
    config.require_seed()
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


def read_metrics_csv(path):
    """Parse a metrics CSV back into typed rows (lossless round trip)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != METRICS_HEADER:
            raise CliError(f"{path}: unexpected CSV header {header!r}")
        for line in fh:
            epoch, model, factors, seed, loss, hr10, ndcg10, wall = line.strip().split(",")
            rows.append({
                "epoch": int(epoch), "model": model, "factors": int(factors),
                "seed": int(seed), "train_loss": float(loss), "hr10": float(hr10),
                "ndcg10": float(ndcg10), "wall_seconds": float(wall),
            })
    return rows


def cmd_sweep(config, model_list, factors_list, log=print):
    """Train each (model, factors) cell on one shared prepared split.

    Emits a combined table (rows = factor counts, columns = models in the
    requested order) using each cell's best-epoch metrics; cell failures
    are reported and the sweep continues.
    """
    config.require_seed()
    config.require_out()
    cells = {}
    failures = []
    for model in model_list:
        for factors in factors_list:
            cell_config = RunConfig(**{**config.__dict__, "model": model, "factors": factors})
            try:
                cmd_train(cell_config, log=lambda _msg: None)
                rows = read_metrics_csv(metrics_path(config.out, model, factors))
                best = max(rows, key=lambda r: r["hr10"]) if rows else None
                final = rows[-1] if rows else None
                cells[(model, factors)] = (best, final)
            except Exception as exc:  # keep sweeping the remaining cells
                failures.append((model, factors, exc))
                log(f"cell {model}/f{factors} failed: {exc}")

    sweep_csv = os.path.join(config.out, "sweep.csv")
    columns = ["factors"]
    for model in model_list:
        columns += [f"{model}_hr10", f"{model}_ndcg10"]
    with open(sweep_csv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for factors in factors_list:
            row = [str(factors)]
            for model in model_list:
                best, _final = cells.get((model, factors), (None, None))
                row += (
                    [_float_repr(best["hr10"]), _float_repr(best["ndcg10"])]
                    if best else ["", ""]
                )
            fh.write(",".join(row) + "\n")

    log("factors\t" + "\t".join(f"{m}_hr10\t{m}_ndcg10" for m in model_list))
    for factors in factors_list:
        parts = [str(factors)]
        for model in model_list:
            best, _ = cells.get((model, factors), (None, None))
            parts += [f"{best['hr10']:.4f}\t{best['ndcg10']:.4f}" if best else "-\t-"]
        log("\t".join(parts))
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

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file; flags override it")
        p.add_argument("--seed", type=int)
        p.add_argument("--out")

    p = sub.add_parser("prepare", help="parse + split + test negatives")
    add_common(p)
    p.add_argument("--dataset-kind", choices=("movielens", "generic"), dest="dataset_kind")
    p.add_argument("--ratings")
    p.add_argument("--users")
    p.add_argument("--items")
    p.add_argument("--interactions")
    p.add_argument("--user-attrs", dest="user_attrs")
    p.add_argument("--item-attrs", dest="item_attrs")
    p.add_argument("--category-map", dest="category_map")

    for name in ("train", "evaluate", "sweep"):
        p = sub.add_parser(name)
        add_common(p)
        p.add_argument("--model")
        p.add_argument("--factors", type=str)
        p.add_argument("--layers", type=str)
        p.add_argument("--lr", type=float)
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch-size", type=int, dest="batch_size")
        p.add_argument("--neg-ratio", type=int, dest="neg_ratio")
        p.add_argument("--include-attr-cross", action="store_true", default=None,
                       dest="include_attr_cross")
        if name == "train":
            p.add_argument("--checkpoint-every", type=int, dest="checkpoint_every")
        if name == "evaluate":
            p.add_argument("--ranks-out", dest="ranks_out")

    p = sub.add_parser("gradcheck")
    add_common(p)
    p.add_argument("--model")
    return parser


def _run(argv):
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config", None)
    ranks_out = args.pop("ranks_out", None)

    factors_text = args.pop("factors", None)
    model_text = args.pop("model", None)
    overrides = {k: v for k, v in args.items() if v is not None}
    if model_text is not None and command != "sweep":
        overrides["model"] = model_text
    if factors_text is not None and command != "sweep":
        try:
            overrides["factors"] = int(factors_text)
        except ValueError:
            raise CliError(f"bad --factors value {factors_text!r}") from None
    if "layers" in overrides:
        overrides["layers"] = _parse_layers(overrides["layers"])

    config = load_run_config(config_path, overrides)
    if command == "prepare":
        return cmd_prepare(config)
    if command == "train":
        return cmd_train(config)
    if command == "evaluate":
        return cmd_evaluate(config, ranks_out=ranks_out)
    if command == "gradcheck":
        if model_text:
            config.model = model_text
        return cmd_gradcheck(config)
    if command == "sweep":
        model_list = (model_text or config.model).split(",")
        for kind in model_list:
            if kind not in models.KINDS:
                raise CliError(f"unknown model kind {kind!r}")
        factors_list = (
            [int(f) for f in factors_text.split(",")]
            if factors_text else list(models.SWEEP_FACTORS)
        )
        return cmd_sweep(config, model_list, factors_list)
    raise CliError(f"unknown command {command!r}")


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
