"""Epoch-driven optimization: negative resampling, log loss, Adam updates.

Each epoch shuffles its instances with a permutation seeded by (seed, epoch)
and walks fixed-size batches, drawing each negative as the walk reaches it
with the split's counter hash (corpus.split_keys, corpus.uniform_below),
keyed by (seed, epoch, slot, attempt). Negatives are uniform over the items a
user has not observed (`corpus.SplitDataset.observed`), so the held-out test
positive is never one. An epoch holds 4 bytes per instance, its order.

gradcheck holds a step's gradient to central finite differences of its
loss, taken with the same forward on the same recording Tape as train.
"""

from __future__ import annotations

import math
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
GRADCHECK_TOLERANCE = 1e-3  # gradcheck passes when every relative error is below it
GRADCHECK_STEP = 1e-3  # gradcheck's finite-difference step
_EPOCH_TAG = int.from_bytes(b"epoch", "little")  # the sampler's tag word in corpus.split_keys


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
    it exactly and consecutive epochs see different negatives. Negative slot
    j draws its item with corpus.uniform_below over num_items, keyed by the
    split's counter hash of (seed, the epoch tag, epoch, j), at attempt 0,
    and again at the next attempt while the user has observed it; so a
    slot's item depends on nothing else. Positives precede negatives before
    the shuffle, so a label is 1 where the permutation took a slot below
    len(train); the negative in slot j belongs to the user of positive
    j // negative_ratio. Raises TrainingError, before drawing, if a user with
    training positives has observed every item.

    An epoch holds, while it is walked, only its shuffled int32 order (int64
    past the int32 range): 4 bytes per instance of positives plus negatives.
    The walk takes whole batches of about corpus.PAIR_CHUNK instances at a
    time; for each it draws the negatives, checks their membership, and builds
    the int64 users and items and float64 labels that its batches slice, so
    the peak is the order plus one chunk's arrays.
    """
    if negative_ratio < 1:
        raise ValueError("negative_ratio must be >= 1")
    train = split.train
    lengths = train.per_user_items.lengths
    seen = lengths + ~train.contains(np.arange(train.num_users), split.test_positives)
    full = np.flatnonzero((lengths > 0) & (seen >= train.num_items))
    if full.size:
        raise TrainingError(
            f"user {int(full[0])} has observed all {train.num_items} items; "
            "no negative can be drawn"
        )
    size = len(train) * (negative_ratio + 1)
    order = np.arange(size, dtype=tc.id_dtype(size))
    rng = tc.seeded_rng(seed, "epoch", epoch)
    rng.shuffle(order)  # rng.permutation(size): the same swaps on an int64 arange
    step = batch_size * max(1, corpus.PAIR_CHUNK // batch_size)
    epoch_key = corpus.seed_key(seed, _EPOCH_TAG, epoch)  # corpus.split_keys' prefix, folded once
    for start in range(0, size, step):
        taken = order[start:start + step]
        slot = taken - len(train)  # the negative slot, below 0 for a positive
        positive = slot < 0
        users = train.users[np.where(positive, taken, slot // negative_ratio)]
        items = train.items.take(taken, mode="clip")
        lanes = np.flatnonzero(~positive)
        keys, attempt = corpus.splitmix64(epoch_key ^ slot[lanes].astype(np.uint64)), 0
        while lanes.size:  # draw every pending slot at this attempt; the observed ones stay pending
            bounds = np.full(lanes.size, train.num_items, dtype=np.uint64)
            items[lanes] = corpus.uniform_below(keys, bounds, attempt)
            redraw = split.observed(users[lanes], items[lanes])
            lanes, keys, attempt = lanes[redraw], keys[redraw], attempt + 1
        labels = positive.astype(np.float64)
        for lo in range(0, taken.size, batch_size):
            yield Batch(users[lo:lo + batch_size], items[lo:lo + batch_size], labels[lo:lo + batch_size])


def log_loss(preds, labels):
    """Mean binary cross-entropy with predictions clamped to [1e-7, 1 - 1e-7].

    The mean is the sum over the count, the two steps np.mean takes, without its wrapper."""
    p = np.minimum(np.maximum(np.asarray(preds, dtype=np.float64), LOSS_CLAMP), 1.0 - LOSS_CLAMP)
    y = np.asarray(labels, dtype=np.float64)
    x = -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
    return float(x.sum() / x.size)


def log_loss_grad(preds, labels):
    """d(mean loss)/d(prediction); zero inside the clamped zones."""
    preds = np.asarray(preds, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    p = np.minimum(np.maximum(preds, LOSS_CLAMP), 1.0 - LOSS_CLAMP)
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

    Every epoch ends with an evaluation pass. on_epoch, when given, is called with
    (EpochStats, EvalReport, store) after each epoch, the one route to per-epoch state:
    the live store after epoch k equals a k-epoch run's final store, bit for bit.
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
            if not math.isfinite(loss):
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

    @property
    def max_relative_error(self):
        return max(self.per_param.values())

    @property
    def ok(self):
        return self.max_relative_error < GRADCHECK_TOLERANCE

    def worst(self):
        return max(self.per_param, key=self.per_param.get)


def _tiny_fixture(kind, seed):
    num_users, num_items = 4, 5
    rng = tc.seeded_rng(seed, "gradcheck-data")
    config = models.ModelConfig(
        kind=kind,
        num_users=num_users,
        num_items=num_items,
        factors=4,
        mlp_layers=(8, 4, 2),
        user_vocab_size=3,
        item_vocab_size=4,
    )
    catalog = corpus.AttributeCatalog(
        tc.Ragged.from_rows([rng.choice(3, size=rng.integers(1, 3), replace=False) for _ in range(num_users)]),
        tc.Ragged.from_rows([rng.choice(4, size=rng.integers(1, 4), replace=False) for _ in range(num_items)]),
        3,
        4,
    )
    batch = Batch(
        users=rng.integers(0, num_users, size=6),
        items=rng.integers(0, num_items, size=6),
        labels=rng.integers(0, 2, size=6).astype(np.float64),
    )
    return config, catalog, batch


def gradcheck(kind, seed):
    """Compare training's analytic batch-loss gradient with central finite differences.

    Differences take a step of GRADCHECK_STEP, are evaluated in float64
    with the actually-achieved float32 parameter perturbation in the
    denominator, and are compared with the gradient training's tape takes,
    once, at the checked point. Each side of a difference is a forward on
    the recording Tape that training runs, whose relu_masks give every relu
    layer's activation pattern; an element whose perturbation flips one is
    skipped (the loss is not differentiable across the kink) and counted
    in the report. Relative error uses max(|analytic|, |numeric|, 1e-8) as
    the denominator; parameters a batch never touches report exactly zero
    on both sides; ok is all below GRADCHECK_TOLERANCE.

    Parameters are drawn at unit-ish scale rather than training init: at
    0.01 init a deep relu layer can go completely dead for the whole batch
    (post-relu inputs are nonnegative, so an unlucky weight sign kills a
    unit for every instance), which would make the comparison vacuous.
    """
    config, catalog, batch = _tiny_fixture(kind, seed)
    store = models.init_params(config, seed)

    def loss_and_masks():
        tape = tc.Tape(store)
        node = models.score(tape, config, batch.users, batch.items, catalog)
        return log_loss(models.predictions(node), batch.labels), [m.tobytes() for m in tape.relu_masks]

    # Re-roll the point if a narrow relu layer went dead for the whole batch
    # (gradient identically zero upstream would make the check vacuous).
    for attempt in range(50):
        point_rng = tc.seeded_rng(seed, "gradcheck-point", attempt)
        for name in store.names():
            store.set_value(name, point_rng.normal(0.0, 0.5, store.shape(name)))
        tape = tc.Tape(store)
        node = models.score(tape, config, batch.users, batch.items, catalog)
        grads = tape.backward(node, log_loss_grad(models.predictions(node), batch.labels)[:, None])
        if all(np.abs(grads.as_dense(n)).max() > 0 for n in store.names()):
            break
    else:
        raise TrainingError(f"gradcheck could not find a non-degenerate point for {kind}")

    per_param = {}
    kink_skips = {}
    for name in store.names():
        analytic = grads.as_dense(name)
        value = store.value(name)
        worst = 0.0
        skipped = 0
        for idx in np.ndindex(value.shape):
            base = value[idx]
            value[idx] = np.float32(float(base) + GRADCHECK_STEP)
            hi = np.float64(value[idx])
            f_hi, masks_hi = loss_and_masks()
            value[idx] = np.float32(float(base) - GRADCHECK_STEP)
            lo = np.float64(value[idx])
            f_lo, masks_lo = loss_and_masks()
            value[idx] = base
            if masks_hi != masks_lo:
                skipped += 1
                continue
            numeric = (f_hi - f_lo) / (hi - lo)
            a = analytic[idx]
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
        per_param[name] = worst
        kink_skips[name] = skipped
    return GradcheckReport(per_param, kink_skips)
