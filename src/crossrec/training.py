"""Epoch-driven optimization: negative resampling, log loss, Adam updates.

Each epoch redraws its negatives from a stream derived from (seed, epoch),
shuffles all instances with a seeded permutation, and walks fixed-size
batches. Negatives are uniform over items the user never interacted with
anywhere, so the held-out test positive is never trained as a negative.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import corpus, evaluation, models
from . import tensorcore as tc

LOSS_CLAMP = 1e-7

DEFAULT_BATCH_SIZE = 256
DEFAULT_NEGATIVE_RATIO = 4
DEFAULT_EPOCHS = 20
DEFAULT_LR = 0.001


class TrainingError(RuntimeError):
    pass


@dataclass
class Batch:
    users: np.ndarray
    items: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return len(self.users)


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    wall_seconds: float


@dataclass
class TrainResult:
    store: tc.ParameterStore
    epoch_stats: list = field(default_factory=list)
    eval_reports: list = field(default_factory=list)

    def best_epoch(self):
        """1-based epoch with the highest HR@10 (ties to the earliest); needs an evaluated epoch."""
        return 1 + max(range(len(self.eval_reports)), key=lambda i: self.eval_reports[i].hr_at_10)


def sample_training_batches(split, negative_ratio, batch_size, seed, epoch):
    """Yield shuffled batches of one epoch's positives plus fresh negatives.

    The draw is a function of (seed, epoch): replaying an epoch reproduces
    it exactly and consecutive epochs see different negatives. Rejected
    negatives are redrawn in ascending slot order, and each round rechecks
    only the slots it redrew. Raises TrainingError, before drawing, if a
    user with training positives has observed every item.
    """
    if negative_ratio < 1:
        raise ValueError("negative_ratio must be >= 1")
    train = split.train
    observed = corpus.full_membership(split)
    distinct = observed[np.concatenate([[True], np.diff(observed) > 0])]
    seen = np.bincount(distinct // train.num_items, minlength=train.num_users)
    trained = np.bincount(train.users, minlength=train.num_users) > 0
    full = np.flatnonzero(trained & (seen >= train.num_items))
    if full.size:
        raise TrainingError(
            f"user {int(full[0])} has observed all {train.num_items} items; "
            "no negative can be drawn"
        )
    rng = tc.seeded_rng(seed, "epoch", epoch)

    neg_users = np.repeat(train.users, negative_ratio)
    candidates = rng.integers(0, train.num_items, size=neg_users.size, dtype=np.int64)
    pending = np.arange(neg_users.size)
    while True:
        enc = neg_users[pending] * train.num_items + candidates[pending]
        hit = np.minimum(np.searchsorted(observed, enc), observed.size - 1)
        pending = pending[observed[hit] == enc]
        if not pending.size:
            break
        candidates[pending] = rng.integers(0, train.num_items, size=pending.size, dtype=np.int64)

    users = np.concatenate([train.users, neg_users])
    items = np.concatenate([train.items, candidates])
    labels = np.concatenate([
        np.ones(len(train), dtype=np.float64),
        np.zeros(neg_users.size, dtype=np.float64),
    ])
    order = rng.permutation(users.size)
    users, items, labels = users[order], items[order], labels[order]
    for start in range(0, users.size, batch_size):
        stop = start + batch_size
        yield Batch(users[start:stop], items[start:stop], labels[start:stop])


def log_loss(preds, labels):
    """Mean binary cross-entropy with predictions clamped to [1e-7, 1 - 1e-7]."""
    p = np.clip(np.asarray(preds, dtype=np.float64), LOSS_CLAMP, 1.0 - LOSS_CLAMP)
    y = np.asarray(labels, dtype=np.float64)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log1p(-p))))


def log_loss_grad(preds, labels):
    """d(mean loss)/d(prediction); zero inside the clamped zones."""
    preds = np.asarray(preds, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    p = np.clip(preds, LOSS_CLAMP, 1.0 - LOSS_CLAMP)
    g = (p - y) / (p * (1.0 - p)) / preds.size
    g[(preds < LOSS_CLAMP) | (preds > 1.0 - LOSS_CLAMP)] = 0.0
    return g


def train(
    config,
    split,
    catalog=None,
    seed=0,
    lr=DEFAULT_LR,
    epochs=DEFAULT_EPOCHS,
    batch_size=DEFAULT_BATCH_SIZE,
    negative_ratio=DEFAULT_NEGATIVE_RATIO,
    on_epoch=None,
):
    """Run the optimization loop; returns the store plus per-epoch records.

    Every epoch ends with an evaluation pass. on_epoch, when given, is
    called with (EpochStats, EvalReport, store) after each epoch, letting
    callers stream metrics and snapshot checkpoints as they appear.
    """
    store = models.init_params(config, seed)
    result = TrainResult(store)
    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        loss_sum = 0.0
        count = 0
        for batch_idx, batch in enumerate(
            sample_training_batches(split, negative_ratio, batch_size, seed, epoch)
        ):
            tape = tc.Tape(store)
            node = models.score(tape, config, batch.users, batch.items, catalog)
            preds = models.predictions(node)
            loss = log_loss(preds, batch.labels)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {batch_idx} "
                    f"({len(batch)} instances)"
                )
            grads = tape.backward(node, log_loss_grad(preds, batch.labels)[:, None])
            try:
                tc.adam_step(store, grads, lr=lr)
            except tc.NumericsError as exc:
                raise TrainingError(f"epoch {epoch}, batch {batch_idx}: {exc}") from exc
            loss_sum += loss * len(batch)
            count += len(batch)
        stats = EpochStats(epoch, loss_sum / count, time.perf_counter() - t0)
        result.epoch_stats.append(stats)
        report = evaluation.evaluate(config, store, split, catalog)
        result.eval_reports.append(report)
        if on_epoch is not None:
            on_epoch(stats, report, store)
    return result


# -- gradient verification ---------------------------------------------------


@dataclass
class GradcheckReport:
    per_param: dict                  # name -> max relative error
    kink_skips: dict                 # name -> elements skipped at a relu kink
    grad_norms: dict                 # name -> max |analytic| entry (0 means untouched)
    tolerance: float

    @property
    def max_relative_error(self):
        return max(self.per_param.values())

    @property
    def ok(self):
        return self.max_relative_error < self.tolerance

    def worst(self):
        return max(self.per_param, key=self.per_param.get)


def _tiny_fixture(kind, seed, num_users=4, num_items=5, factors=4, layers=(8, 4, 2)):
    rng = tc.seeded_rng(seed, "gradcheck-data")
    config = models.ModelConfig(
        kind=kind,
        num_users=num_users,
        num_items=num_items,
        factors=factors,
        mlp_layers=layers,
        user_vocab_size=3,
        item_vocab_size=4,
    )
    catalog = corpus.AttributeCatalog(
        [rng.choice(3, size=rng.integers(1, 3), replace=False) for _ in range(num_users)],
        [rng.choice(4, size=rng.integers(1, 4), replace=False) for _ in range(num_items)],
        3,
        4,
    )
    batch = Batch(
        users=rng.integers(0, num_users, size=6),
        items=rng.integers(0, num_items, size=6),
        labels=rng.integers(0, 2, size=6).astype(np.float64),
    )
    return config, catalog, batch


class _LayerTape(tc.Tape):
    """A tape that runs relu stacks layer by layer (the chain Tape.mlp is held
    to) and keeps each relu's activation pattern, so a finite difference
    whose two sides straddle a kink can be told apart."""

    def __init__(self, store, record=False):
        super().__init__(store, record)
        self.masks = []

    def mlp(self, x, layers):
        for weight_name, bias_name in layers:
            x = self.relu(self.dense(x, weight_name, bias_name))
        return x

    def relu(self, x):
        self.masks.append((x.value > 0.0).tobytes())
        return super().relu(x)


def gradcheck(kind, seed, h=1e-3, tolerance=1e-3):
    """Compare analytic batch-loss gradients with central finite differences.

    Differences are evaluated in float64 with the actually-achieved float32
    parameter perturbation in the denominator, and compared with training's
    analytic gradient and with the one of the stacks run layer by layer;
    the worse error counts. Elements whose perturbation
    flips a relu activation are skipped (the loss is not differentiable
    across the kink) and counted in the report. Relative error uses
    max(|analytic|, |numeric|, 1e-8) as the denominator; parameters a batch
    never touches report exactly zero on both sides.

    Parameters are drawn at unit-ish scale rather than training init: at
    0.01 init a deep relu layer can go completely dead for the whole batch
    (post-relu inputs are nonnegative, so an unlucky weight sign kills a
    unit for every instance), which would make the comparison vacuous.
    """
    config, catalog, batch = _tiny_fixture(kind, seed)
    store = models.init_params(config, seed)

    def loss_and_masks():
        tape = _LayerTape(store)
        node = models.score(tape, config, batch.users, batch.items, catalog)
        return log_loss(models.predictions(node), batch.labels), tuple(tape.masks)

    def analytic(tape):
        node = models.score(tape, config, batch.users, batch.items, catalog)
        return tape.backward(node, log_loss_grad(models.predictions(node), batch.labels)[:, None])

    # Re-roll the point if a narrow relu layer went dead for the whole batch
    # (gradient identically zero upstream would make the check vacuous).
    for attempt in range(50):
        point_rng = tc.seeded_rng(seed, "gradcheck-point", attempt)
        for name in store.names():
            store.set_value(name, point_rng.normal(0.0, 0.5, store.shape(name)))
        grads = analytic(tc.Tape(store))
        if all(np.abs(grads.as_dense(n)).max() > 0 for n in store.names()):
            break
    else:
        raise TrainingError(f"gradcheck could not find a non-degenerate point for {kind}")
    layered = analytic(_LayerTape(store, record=True))

    per_param = {}
    kink_skips = {}
    grad_norms = {}
    for name in store.names():
        both = (grads.as_dense(name), layered.as_dense(name))
        grad_norms[name] = float(np.abs(both[0]).max())
        value = store.value(name)
        worst = 0.0
        skipped = 0
        for idx in np.ndindex(value.shape):
            base = value[idx]
            value[idx] = np.float32(float(base) + h)
            hi = np.float64(value[idx])
            f_hi, masks_hi = loss_and_masks()
            value[idx] = np.float32(float(base) - h)
            lo = np.float64(value[idx])
            f_lo, masks_lo = loss_and_masks()
            value[idx] = base
            if masks_hi != masks_lo:
                skipped += 1
                continue
            numeric = (f_hi - f_lo) / (hi - lo)
            for a in (g[idx] for g in both):
                worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
        per_param[name] = worst
        kink_skips[name] = skipped
    return GradcheckReport(per_param, kink_skips, grad_norms, tolerance)
