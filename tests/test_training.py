import math
from pathlib import Path

import numpy as np
import pytest

from conftest import time_bound
from crossrec import corpus, models, training
from crossrec import tensorcore as tc


def synthetic_split(seed=5, num_users=20, num_items=130):
    rng = np.random.default_rng(seed)
    users, items, stamps = [], [], []
    for u in range(num_users):
        n = int(rng.integers(4, 16))
        for i in rng.choice(num_items, size=n, replace=False):
            users.append(u)
            items.append(int(i))
            stamps.append(int(rng.integers(10_000)))
    data = corpus.InteractionSet.from_arrays(num_users, num_items, users, items, stamps)
    return corpus.leave_one_out_split(data, seed=seed)


def synthetic_catalog(split, seed=5):
    rng = np.random.default_rng(seed + 1)
    return corpus.AttributeCatalog(
        [rng.choice(5, size=int(rng.integers(1, 4)), replace=False)
         for _ in range(split.train.num_users)],
        [rng.choice(6, size=int(rng.integers(1, 3)), replace=False)
         for _ in range(split.train.num_items)],
        5,
        6,
    )


# -- negative sampling ---------------------------------------------------------


class TestSampler:
    def test_instance_count_is_positives_times_ratio_plus_one(self):
        split = synthetic_split()
        total = sum(
            len(b) for b in training.sample_training_batches(split, 4, 256, seed=1, epoch=1)
        )
        assert total == len(split.train) * 5

    def test_negatives_avoid_the_full_interaction_set(self):
        split = synthetic_split()
        full = {
            (u, int(i))
            for u in range(split.train.num_users)
            for i in [*split.train.per_user_items[u], split.test_positives[u]]
        }
        for batch in training.sample_training_batches(split, 4, 64, seed=3, epoch=2):
            for u, i, y in zip(batch.users, batch.items, batch.labels):
                if y == 0.0:
                    assert (int(u), int(i)) not in full
                else:
                    assert int(i) in split.train.per_user_items[int(u)]

    def test_test_positive_never_a_train_negative(self):
        split = synthetic_split()
        for epoch in range(1, 4):
            for batch in training.sample_training_batches(split, 4, 128, seed=0, epoch=epoch):
                for u, i, y in zip(batch.users, batch.items, batch.labels):
                    if y == 0.0:
                        assert int(i) != int(split.test_positives[int(u)])

    def test_epochs_differ_but_replays_match(self):
        split = synthetic_split()

        def collect(epoch):
            return [
                (b.users.tolist(), b.items.tolist(), b.labels.tolist())
                for b in training.sample_training_batches(split, 4, 256, seed=9, epoch=epoch)
            ]

        assert collect(1) == collect(1)
        assert collect(1) != collect(2)

    def test_batching_and_short_tail(self):
        split = synthetic_split()
        sizes = [len(b) for b in training.sample_training_batches(split, 4, 256, seed=1, epoch=1)]
        total = len(split.train) * 5
        assert sizes[:-1] == [256] * (len(sizes) - 1)
        assert sizes[-1] == total - 256 * (len(sizes) - 1)
        assert 0 < sizes[-1] <= 256

    def test_shuffled_order(self):
        split = synthetic_split()
        first = next(iter(training.sample_training_batches(split, 4, 256, seed=2, epoch=1)))
        # a sorted block of positives would mean no shuffle happened
        assert not np.array_equal(first.labels, np.sort(first.labels)[::-1])


def dense_split(seed):
    """15 users who each observed 25-30 of 130 items: about a fifth of negative draws hit."""
    rng = np.random.default_rng(seed)
    users, items = [], []
    for u in range(15):
        picked = rng.choice(130, size=int(rng.integers(25, 31)), replace=False)
        users += [u] * picked.size
        items += picked.tolist()
    stamps = rng.integers(10_000, size=len(users))
    data = corpus.InteractionSet.from_arrays(15, 130, users, items, stamps)
    return corpus.leave_one_out_split(data, seed=seed)


def full_recheck_epoch(split, negative_ratio, seed, epoch):
    """Reference sampler that rechecks every negative each round; (users, items, labels, rounds)."""
    train = split.train
    observed = corpus.full_membership(split)
    rng = tc.seeded_rng(seed, "epoch", epoch)
    neg_users = np.repeat(train.users, negative_ratio)
    candidates = rng.integers(0, train.num_items, size=neg_users.size, dtype=np.int64)
    rounds = 0
    while True:
        rounds += 1
        enc = neg_users * train.num_items + candidates
        hit = np.minimum(np.searchsorted(observed, enc), observed.size - 1)
        bad = observed[hit] == enc
        if not bad.any():
            break
        candidates[bad] = rng.integers(0, train.num_items, size=int(bad.sum()), dtype=np.int64)
    users = np.concatenate([train.users, neg_users])
    items = np.concatenate([train.items, candidates])
    labels = np.concatenate([np.ones(len(train)), np.zeros(neg_users.size)])
    order = rng.permutation(users.size)
    return users[order], items[order], labels[order], rounds


class TestSamplerRecheck:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batches_equal_full_recheck_reference_bitwise(self, seed):
        split = dense_split(seed)
        for epoch in (1, 2, 3):
            users, items, labels, rounds = full_recheck_epoch(split, 4, seed, epoch)
            assert rounds >= 4, rounds
            batches = list(training.sample_training_batches(split, 4, 64, seed, epoch))
            assert np.concatenate([b.users for b in batches]).tobytes() == users.tobytes()
            assert np.concatenate([b.items for b in batches]).tobytes() == items.tobytes()
            assert np.concatenate([b.labels for b in batches]).tobytes() == labels.tobytes()

    def test_user_who_observed_every_item_fails_fast(self):
        # user 1 trained on items 0-3 and holds out item 4: no unobserved item is left
        train = corpus.InteractionSet.from_arrays(
            2, 5, [0, 1, 1, 1, 1], [0, 0, 1, 2, 3], [1, 1, 2, 3, 4])
        split = corpus.SplitDataset(train, np.array([1, 4]), np.zeros((2, 0), dtype=np.int64))
        with time_bound(), pytest.raises(training.TrainingError,
                                         match="user 1 has observed all 5 items"):
            next(training.sample_training_batches(split, 4, 8, seed=0, epoch=1))


# -- log loss --------------------------------------------------------------------


class TestLogLoss:
    def test_half_prediction_is_ln2(self):
        assert training.log_loss([0.5], [1.0]) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_confident_correct_is_near_zero(self):
        assert training.log_loss([1.0 - 1e-7], [1.0]) == pytest.approx(1e-7, rel=1e-2)

    def test_clamped_wrong_prediction(self):
        assert training.log_loss([0.0], [1.0]) == pytest.approx(-math.log(1e-7), rel=1e-9)

    def test_constant_half_predictor_anchors_at_ln2(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=500).astype(float)
        assert training.log_loss(np.full(500, 0.5), labels) == pytest.approx(math.log(2.0))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        preds = rng.uniform(0.05, 0.95, size=12)
        labels = rng.integers(0, 2, size=12).astype(float)
        grad = training.log_loss_grad(preds, labels)
        for j in range(len(preds)):
            h = 1e-7
            hi = preds.copy(); hi[j] += h
            lo = preds.copy(); lo[j] -= h
            numeric = (training.log_loss(hi, labels) - training.log_loss(lo, labels)) / (2 * h)
            assert grad[j] == pytest.approx(numeric, rel=1e-5)

    def test_gradient_zero_in_clamp_zone(self):
        grad = training.log_loss_grad([1e-9, 0.5], [1.0, 1.0])
        assert grad[0] == 0.0 and grad[1] != 0.0


# -- the training loop -------------------------------------------------------------


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        split = synthetic_split()
        config = models.ModelConfig("gmf", split.train.num_users, split.train.num_items, factors=4)
        result = training.train(config, split, seed=7, epochs=0)
        fresh = models.init_params(config, 7)
        for name in fresh.names():
            assert np.array_equal(result.store.value(name), fresh.value(name))
        assert result.epoch_stats == [] and result.eval_reports == []

    def test_same_seed_bit_identical_checkpoints(self, tmp_path):
        split = synthetic_split()
        catalog = synthetic_catalog(split)
        config = models.ModelConfig(
            "camf", split.train.num_users, split.train.num_items, factors=4,
            mlp_layers=(8, 4), user_vocab_size=5, item_vocab_size=6,
        )
        blobs = []
        for run in range(2):
            result = training.train(config, split, catalog, seed=11, epochs=2)
            path = str(tmp_path / f"r{run}.ckpt")
            tc.save_checkpoint(path, result.store, {})
            blobs.append(Path(path).read_bytes())
        assert blobs[0] == blobs[1]

    def test_loss_decreases_on_synthetic_data(self):
        split = synthetic_split()
        config = models.ModelConfig("gmf", split.train.num_users, split.train.num_items, factors=4)
        result = training.train(config, split, seed=1, epochs=3, lr=0.01)
        losses = [s.mean_loss for s in result.epoch_stats]
        assert losses[-1] < losses[0]
        assert all(np.isfinite(losses)) and all(l >= 0 for l in losses)

    def test_inputs_not_mutated(self):
        split = synthetic_split()
        catalog = synthetic_catalog(split)
        train_users = split.train.users.copy()
        positives = split.test_positives.copy()
        user_attrs = [a.copy() for a in catalog.user_attrs]
        config = models.ModelConfig(
            "aadcf", split.train.num_users, split.train.num_items, factors=4,
            mlp_layers=(4, 2), user_vocab_size=5, item_vocab_size=6,
        )
        training.train(config, split, catalog, seed=2, epochs=1)
        assert np.array_equal(split.train.users, train_users)
        assert np.array_equal(split.test_positives, positives)
        assert all(np.array_equal(a, b) for a, b in zip(catalog.user_attrs, user_attrs))

    def test_epoch_reports_flow_through_callback(self):
        split = synthetic_split()
        seen = []
        config = models.ModelConfig("gmf", split.train.num_users, split.train.num_items, factors=4)
        training.train(config, split, seed=3, epochs=2,
                       on_epoch=lambda stats, report, store: seen.append((stats.epoch, report)))
        assert [e for e, _ in seen] == [1, 2]
        assert all(r is not None and 0 <= r.hr_at_10 <= 1 for _, r in seen)


class TestLearnsPlantedStructure:
    """End-to-end: models must beat the 0.10 random-ranker HR@10 baseline."""

    def test_gmf_on_clustered_interactions(self):
        rng = np.random.default_rng(0)
        num_users, num_items, clusters = 120, 400, 4
        user_c = rng.integers(0, clusters, num_users)
        item_c = rng.integers(0, clusters, num_items)
        users, items = [], []
        for u in range(num_users):
            own = np.flatnonzero(item_c == user_c[u])
            other = np.flatnonzero(item_c != user_c[u])
            picked = np.concatenate([
                rng.choice(own, 30, replace=False),
                rng.choice(other, 5, replace=False),
            ])
            users.extend([u] * len(picked))
            items.extend(picked.tolist())
        data = corpus.InteractionSet.from_arrays(
            num_users, num_items, users, items, np.zeros(len(users))
        )
        split = corpus.leave_one_out_split(data, 7)
        config = models.ModelConfig("gmf", num_users, num_items, factors=8)
        result = training.train(config, split, seed=1, lr=0.005, epochs=6)
        assert max(r.hr_at_10 for r in result.eval_reports) >= 0.30

    def test_camf_on_topic_preferences(self):
        rng = np.random.default_rng(1)
        num_users, num_items, topics = 200, 400, 8
        user_pref = rng.dirichlet(np.ones(topics) * 0.5, size=num_users)
        item_topics = [
            rng.choice(topics, size=int(rng.integers(1, 4)), replace=False)
            for _ in range(num_items)
        ]
        affinity = np.zeros((num_users, num_items))
        for i, ts in enumerate(item_topics):
            affinity[:, i] = user_pref[:, ts].sum(axis=1)
        users, items = [], []
        for u in range(num_users):
            picked = rng.choice(num_items, size=35, replace=False,
                                p=affinity[u] / affinity[u].sum())
            users.extend([u] * 35)
            items.extend(picked.tolist())
        data = corpus.InteractionSet.from_arrays(
            num_users, num_items, users, items, np.zeros(len(users))
        )
        split = corpus.leave_one_out_split(data, 3)
        catalog = corpus.AttributeCatalog(
            [[int(np.argmax(user_pref[u]))] for u in range(num_users)],
            [list(map(int, ts)) for ts in item_topics],
            topics, topics,
        )
        config = models.ModelConfig("camf", num_users, num_items, factors=8,
                                    user_vocab_size=topics, item_vocab_size=topics)
        result = training.train(config, split, catalog, seed=2, lr=0.001, epochs=5)
        assert max(r.hr_at_10 for r in result.eval_reports) >= 0.13


# -- gradient verification ----------------------------------------------------------


class TestGradcheck:
    @pytest.mark.parametrize("kind", models.KINDS)
    def test_all_kinds_pass_tolerance(self, kind):
        report = training.gradcheck(kind, seed=42)
        assert report.ok, (kind, report.worst(), report.max_relative_error)
        assert report.max_relative_error < 1e-3
        # the check must not be vacuous
        assert all(v > 0 for v in report.grad_norms.values())

    def test_camf_gate_and_shared_vector_covered(self):
        report = training.gradcheck("camf", seed=0)
        for name in ("gate_w", "gate_b", "u_shared"):
            assert name in report.per_param
            assert report.per_param[name] < 1e-3
            assert report.grad_norms[name] > 0

    def test_report_lists_every_parameter_once(self):
        for kind in models.KINDS:
            report = training.gradcheck(kind, seed=1)
            config, _, _ = training._tiny_fixture(kind, 1)
            expected = [name for name, _, _ in models.parameter_shapes(config)]
            assert sorted(report.per_param) == sorted(expected)
            assert len(report.per_param) == len(expected)

    def test_corrupted_backward_rule_is_caught(self, monkeypatch):
        original = tc.Tape.relu

        def corrupted_relu(self, x):
            node = original(self, x)
            if self.recording:
                # skew the recorded rule: gradients come out 1% too large
                real_node, real_back = self._ops[-1]
                self._ops[-1] = (real_node, lambda g: real_back(g * 1.01))
            return node

        monkeypatch.setattr(tc.Tape, "relu", corrupted_relu)
        report = training.gradcheck("mlp", seed=42)
        assert not report.ok
        assert report.per_param[report.worst()] >= 1e-3
        assert report.worst() in report.per_param

    def test_steps_across_a_relu_kink_are_skipped(self):
        # a wide step flips activations; those elements are counted, not compared
        report = training.gradcheck("mlp", seed=0, h=0.2)
        assert sum(report.kink_skips.values()) > 0
        # gmf has no relu, so nothing is ever skipped
        assert not any(training.gradcheck("gmf", seed=0, h=0.2).kink_skips.values())

    def test_unused_item_row_zero_on_both_sides(self):
        config = models.ModelConfig("gmf", num_users=3, num_items=4, factors=3)
        store = models.init_params(config, 6)
        batch = training.Batch(
            users=np.array([0, 1, 2]), items=np.array([0, 1, 2]),
            labels=np.array([1.0, 0.0, 1.0]),
        )  # item 3 is never touched

        def loss():
            tape = tc.Tape(store, record=False)
            node = models.score(tape, config, batch.users, batch.items)
            return training.log_loss(models.predictions(node), batch.labels)

        tape = tc.Tape(store)
        node = models.score(tape, config, batch.users, batch.items)
        grads = tape.backward(
            node, training.log_loss_grad(models.predictions(node), batch.labels)[:, None]
        )
        analytic = grads.as_dense("item_emb")
        assert not analytic[3].any()
        offset = store._layout["item_emb"][0]
        assert not np.isin(offset + 3 * 3 + np.arange(3), grads.index).any()  # row 3 has no cell
        table = store.value("item_emb")
        for j in range(3):
            keep = table[3, j]
            table[3, j] = np.float32(float(keep) + 1e-3)
            hi = loss()
            table[3, j] = np.float32(float(keep) - 1e-3)
            lo = loss()
            table[3, j] = keep
            assert hi == lo  # bitwise: the row is never read
