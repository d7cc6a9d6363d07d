import collections
import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (CHI2_999, EPOCH_TAG, below, interaction_set, lane_key, pairs_of, rows_of, time_bound,
                      uniform_chi2)
from crossrec import corpus, models, training
from crossrec import tensorcore as tc


def synthetic_split(seed=5, num_users=20, num_items=130):
    rng = np.random.default_rng(seed)
    users, items = [], []
    for u in range(num_users):
        n = int(rng.integers(4, 16))
        for i in rng.choice(num_items, size=n, replace=False):
            users.append(u)
            items.append(int(i))
    data = interaction_set(num_users, num_items, users, items)
    return corpus.leave_one_out_split(data, seed=seed)


def synthetic_catalog(split, seed=5):
    rng = np.random.default_rng(seed + 1)
    return corpus.AttributeCatalog(
        tc.Ragged.from_rows([rng.choice(5, size=int(rng.integers(1, 4)), replace=False)
                             for _ in range(split.train.num_users)]),
        tc.Ragged.from_rows([rng.choice(6, size=int(rng.integers(1, 3)), replace=False)
                             for _ in range(split.train.num_items)]),
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

    @pytest.mark.parametrize("epoch", [1, 2])
    def test_each_epoch_yields_every_train_pair_once_as_a_positive(self, epoch):
        split = wide_split()
        positives = collections.Counter()
        for b in training.sample_training_batches(split, 3, 1000, seed=4, epoch=epoch):
            positives.update(zip(b.users[b.labels == 1.0].tolist(), b.items[b.labels == 1.0].tolist()))
        assert sorted(positives) == pairs_of(split.train) and set(positives.values()) == {1}

    def test_negatives_avoid_the_full_interaction_set(self):
        split = synthetic_split()
        train_rows = rows_of(split.train.per_user_items)
        full = {
            (u, int(i))
            for u in range(split.train.num_users)
            for i in [*train_rows[u], split.test_positives[u]]
        }
        for batch in training.sample_training_batches(split, 4, 64, seed=3, epoch=2):
            for u, i, y in zip(batch.users, batch.items, batch.labels):
                if y == 0.0:
                    assert (int(u), int(i)) not in full
                else:
                    assert int(i) in train_rows[int(u)]

    def test_test_positive_never_a_train_negative(self):
        split = synthetic_split()
        for epoch in range(1, 4):
            for batch in training.sample_training_batches(split, 4, 128, seed=0, epoch=epoch):
                for u, i, y in zip(batch.users, batch.items, batch.labels):
                    if y == 0.0:
                        assert int(i) != int(split.test_positives[int(u)])

    @pytest.mark.parametrize("seed", [8, 2**64 + 1])
    def test_negatives_are_uniform_over_each_users_unobserved_items(self, seed):
        # 6 users who each observed 101 of 120 items, 100 in train and 1 held out: each draws
        # 1,200 negatives over 3 epochs at ratio 4, about 63 of each of its 19 unobserved items
        rng = np.random.default_rng(21)
        picks = [rng.permutation(120)[:101] for _ in range(6)]
        train = interaction_set(6, 120, np.repeat(np.arange(6), 100), np.concatenate([p[:100] for p in picks]))
        split = corpus.SplitDataset(train, np.array([p[100] for p in picks]), np.zeros((6, 0), dtype=np.int64))
        counts = np.zeros((6, 120), dtype=np.int64)
        for epoch in (1, 2, 3):
            for b in training.sample_training_batches(split, 4, 256, seed, epoch):
                np.add.at(counts, (b.users[b.labels == 0.0], b.items[b.labels == 0.0]), 1)
        for u, mine in enumerate(picks):
            assert counts[u, mine].sum() == 0
            stat = uniform_chi2(np.delete(counts[u], mine), 1200 / 19)
            assert stat < CHI2_999[18], (u, stat)

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
    data = interaction_set(15, 130, users, items)
    return corpus.leave_one_out_split(data, seed=seed)


def wide_split(seed=0):
    """2,600 users who each observed 21 of 3,000 items: 52,000 train pairs, 260,000 instances at ratio 4."""
    rng = np.random.default_rng(seed)
    items = np.concatenate([rng.choice(3000, size=21, replace=False) for _ in range(2600)])
    users = np.repeat(np.arange(2600), 21)
    data = interaction_set(2600, 3000, users, items)
    return corpus.leave_one_out_split(data, seed=seed)


def reference_epoch(split, negative_ratio, seed, epoch):
    """Reference sampler, one negative slot at a time in Python ints; (users, items, labels, most attempts).

    Slot j takes the first Lemire draw below num_items, at attempts 0, 1, ..., keyed by
    (seed, the epoch tag, epoch, j), that is neither the user's train pair nor its test
    positive; the epoch's Generator permutes the positives followed by the negatives."""
    train = split.train
    pairs = pairs_of(train)  # positive slot k is pair k, in (user, item) order
    observed = set(pairs) | set(enumerate(split.test_positives.tolist()))
    pair_users = np.array([u for u, _ in pairs], dtype=np.int64)
    neg_users = np.repeat(pair_users, negative_ratio)
    candidates, most = [], 0
    for j, u in enumerate(neg_users.tolist()):
        key, attempt = lane_key(seed, j, EPOCH_TAG, epoch), 0
        while (u, below(key, train.num_items, attempt)) in observed:
            attempt += 1
        candidates.append(below(key, train.num_items, attempt))
        most = max(most, attempt)
    users = np.concatenate([pair_users, neg_users])
    items = np.concatenate([np.array([i for _, i in pairs], dtype=np.int64), np.array(candidates, dtype=np.int64)])
    labels = np.concatenate([np.ones(len(train)), np.zeros(neg_users.size)])
    order = tc.seeded_rng(seed, "epoch", epoch).permutation(users.size)
    return users[order], items[order], labels[order], most


def assert_batches_equal(batches, users, items, labels):
    """Every batch keeps Batch's int64, int64 and float64 fields, and together they equal the reference's bytes."""
    assert {(b.users.dtype, b.items.dtype, b.labels.dtype) for b in batches} == \
        {(np.dtype(np.int64), np.dtype(np.int64), np.dtype(np.float64))}
    for name, expected in (("users", users), ("items", items), ("labels", labels)):
        assert np.concatenate([getattr(b, name) for b in batches]).tobytes() == expected.tobytes(), name


class TestSamplerRecheck:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batches_equal_full_recheck_reference_bitwise(self, seed):
        split = dense_split(seed)
        for epoch in (1, 2, 3):
            users, items, labels, most = reference_epoch(split, 4, seed, epoch)
            assert most >= 4, most
            batches = list(training.sample_training_batches(split, 4, 64, seed, epoch))
            assert_batches_equal(batches, users, items, labels)

    @pytest.mark.parametrize("ratio", [1, 3, 4, 7])
    def test_epochs_of_many_chunks_equal_the_reference_bitwise(self, ratio, monkeypatch):
        # 37 instances a chunk divides no ratio: an epoch of a few thousand instances spans
        # dozens of chunks. The walk builds whole batches a chunk: three of 10 (30 instances, not 37),
        # one of 37, or one of 100, which outgrows the chunk; 100 also leaves a short tail
        monkeypatch.setattr(corpus, "PAIR_CHUNK", 37)
        split = dense_split(ratio)
        for epoch in (1, 2):
            users, items, labels, most = reference_epoch(split, ratio, ratio, epoch)
            assert most >= 3 and users.size > 20 * 37 and users.size % 100, (most, users.size)
            for size in (10, 37, 100):
                batches = list(training.sample_training_batches(split, ratio, size, ratio, epoch))
                assert [len(b) for b in batches[:-1]] == [size] * (len(batches) - 1)
                assert 0 < len(batches[-1]) <= size and sum(map(len, batches)) == users.size
                assert_batches_equal(batches, users, items, labels)

    def test_wide_epoch_equals_the_reference_bitwise(self):
        split = wide_split()  # 260,000 instances: 16 chunks at the module's chunk size
        assert len(split.train) * 5 > 15 * corpus.PAIR_CHUNK
        users, items, labels, _most = reference_epoch(split, 4, 3, 1)
        batches = list(training.sample_training_batches(split, 4, 256, 3, 1))
        assert_batches_equal(batches, users, items, labels)

    def test_batches_are_equal_for_any_chunk_size(self, monkeypatch):
        # a slot's item depends only on (seed, epoch, slot, attempt): not on the chunk that
        # holds it, nor on the other slots its membership check sees
        split = dense_split(5)
        want = [np.concatenate(field) for field in
                zip(*((b.users, b.items, b.labels) for b in training.sample_training_batches(split, 4, 64, 5, 1)))]
        for chunk in (1, 37, 64, 1000, 1 << 20):
            monkeypatch.setattr(corpus, "PAIR_CHUNK", chunk)
            assert_batches_equal(list(training.sample_training_batches(split, 4, 64, 5, 1)), *want)

    def test_user_who_observed_every_item_fails_fast(self):
        # user 1 trained on items 0-3 and holds out item 4: no unobserved item is left
        train = interaction_set(2, 5, [0, 1, 1, 1, 1], [0, 0, 1, 2, 3])
        split = corpus.SplitDataset(train, np.array([1, 4]), np.zeros((2, 0), dtype=np.int64))
        with time_bound(), pytest.raises(training.TrainingError,
                                         match="user 1 has observed all 5 items"):
            next(training.sample_training_batches(split, 4, 8, seed=0, epoch=1))
        # the positive 3 is also a train item, so it is counted once: item 4 is left to draw
        split = corpus.SplitDataset(train, np.array([1, 3]), np.zeros((2, 0), dtype=np.int64))
        with time_bound():  # one batch holds the epoch's 25 instances
            batch = next(training.sample_training_batches(split, 4, 100, seed=0, epoch=1))
        assert batch.items[(batch.users == 1) & (batch.labels == 0.0)].tolist() == [4] * 16


class TestSamplerMemory:
    """What the sampler's compact epoch relies on, and what it saves."""

    @pytest.mark.parametrize("size", [0, 1, 2, 1000, 2**15, 70_001])
    def test_int32_shuffle_is_numpys_permutation(self, size):
        # the sampler shuffles an int16 or int32 arange (tc.id_dtype(size)) where
        # Generator.permutation shuffles an int64 one: the swaps must match and leave the
        # generator in the same state, or every checkpoint trained since changes with no test
        # naming why. An int16 order holds at most 2**15 instances
        for dtype in (np.int16, np.int32)[size > 2**15:]:
            shuffled, permuted = tc.seeded_rng(7, "epoch", 1), tc.seeded_rng(7, "epoch", 1)
            order = np.arange(size, dtype=dtype)
            shuffled.shuffle(order)
            assert np.array_equal(order, permuted.permutation(size))
            assert shuffled.integers(0, 2**40, size=3).tolist() == permuted.integers(0, 2**40, size=3).tolist()

    def test_ids_narrow_to_int32_only_inside_its_range(self):
        # ids lie in [0, bound): 2**15 - 1 is the largest int16 and 2**31 - 1 the largest int32
        assert tc.id_dtype(0) is tc.id_dtype(1) is np.int16
        assert tc.id_dtype(2**15) is np.int16
        assert tc.id_dtype(2**15 + 1) is np.int32
        assert tc.id_dtype(2**31) is np.int32
        assert tc.id_dtype(2**31 + 1) is np.int64
        assert tc.id_dtype(2**40) is np.int64

    def test_int16_ids_give_the_int64_reference_bitmap_and_epoch(self):
        # 512 users of 200 items: pair_users is int16 while a user * num_items key reaches
        # 102,200, past int16; 16,384 train pairs at ratio 1 make 32,768 instances, the
        # longest epoch an int16 order holds
        rng = np.random.default_rng(8)
        items = np.concatenate([rng.choice(200, size=33, replace=False) for _ in range(512)])
        split = corpus.leave_one_out_split(interaction_set(512, 200, np.repeat(np.arange(512), 33), items), seed=8)
        train = split.train
        assert len(train) * 2 == 2**15 and tc.id_dtype(2**15) is train.pair_users.dtype.type is np.int16
        want = bytearray(-(-train.num_users * train.num_items // 8))
        for user, item in pairs_of(train):
            key = user * train.num_items + item
            want[key >> 3] |= 1 << (key & 7)
        assert train.pair_bits.tobytes() == bytes(want)
        users, items, labels, _most = reference_epoch(split, 1, 8, 1)
        assert_batches_equal(list(training.sample_training_batches(split, 1, 256, 8, 1)), users, items, labels)

    def test_setup_peak_is_at_most_9_bytes_per_instance(self):
        # the walk holds the int32 permutation, 4 bytes per instance; one chunk of batches,
        # its draws and their temporaries bring the peak to about 8.7 here
        split = wide_split()
        instances = len(split.train) * 5
        assert instances >= 250_000
        split.train.pair_bits  # with pair_users, built on train's first query and kept for every epoch: not the epoch's
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            batches = training.sample_training_batches(split, 4, 256, seed=0, epoch=1)
            next(batches)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 9 * instances, peak / instances


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

    @pytest.mark.parametrize("size", [1, 255, 256, 257, 1024])
    def test_mean_is_np_mean_bitwise(self, size):
        # the sum over the count, with predictions past both clamps and exactly at them
        rng = np.random.default_rng(size)
        preds = rng.uniform(-0.1, 1.1, size) ** rng.choice([1, 9], size)
        preds[rng.random(size) < 0.2] = rng.choice([0.0, 1.0, 1e-9, 1 - 1e-9, 1e-7, 1 - 1e-7])
        labels = rng.integers(0, 2, size).astype(float)
        p = np.minimum(np.maximum(preds, 1e-7), 1 - 1e-7)
        want = float(np.mean(-(labels * np.log(p) + (1.0 - labels) * np.log1p(-p))))
        assert training.log_loss(preds, labels) == want

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
        train_rows = split.train.per_user_items.offsets.copy(), split.train.per_user_items.flat.copy()
        positives = split.test_positives.copy()
        user_attrs = catalog.user_attrs.offsets.copy(), catalog.user_attrs.flat.copy()
        config = models.ModelConfig(
            "aadcf", split.train.num_users, split.train.num_items, factors=4,
            mlp_layers=(4, 2), user_vocab_size=5, item_vocab_size=6,
        )
        training.train(config, split, catalog, seed=2, epochs=1)
        assert np.array_equal(split.train.per_user_items.offsets, train_rows[0])
        assert np.array_equal(split.train.per_user_items.flat, train_rows[1])
        assert np.array_equal(split.test_positives, positives)
        assert np.array_equal(catalog.user_attrs.offsets, user_attrs[0])
        assert np.array_equal(catalog.user_attrs.flat, user_attrs[1])

    def test_epoch_reports_flow_through_callback(self):
        split = synthetic_split()
        seen = []
        config = models.ModelConfig("gmf", split.train.num_users, split.train.num_items, factors=4)
        training.train(config, split, seed=3, epochs=2,
                       on_epoch=lambda stats, report, store: seen.append((stats.epoch, report)))
        assert [e for e, _ in seen] == [1, 2]
        assert all(r is not None and 0 <= r.hr_at_10 <= 1 for _, r in seen)

    @pytest.mark.parametrize("kind", models.KINDS)
    def test_state_after_epoch_k_is_a_k_epoch_runs_final_state(self, kind):
        """on_epoch of one run gives every epoch's state: values, moments, step, loss and ranks."""
        split = synthetic_split()
        catalog = synthetic_catalog(split)
        config = models.ModelConfig(
            kind, split.train.num_users, split.train.num_items, factors=4,
            mlp_layers=(8, 4), user_vocab_size=5, item_vocab_size=6,
        )

        def state(stats, report, store):
            arenas = {name: [a.tobytes() for a in (store.value(name), *store.moments(name))]
                      for name in store.names()}
            return store.step, stats.epoch, stats.mean_loss, report.per_user_ranks.tobytes(), arenas

        seen = []
        training.train(config, split, catalog, seed=13, epochs=3,
                       on_epoch=lambda *args: seen.append(state(*args)))
        assert [epoch for _, epoch, *_ in seen] == [1, 2, 3]
        for k in (1, 2):
            result = training.train(config, split, catalog, seed=13, epochs=k)
            assert seen[k - 1] == state(result.epoch_stats[-1], result.eval_reports[-1], result.store)


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
        data = interaction_set(num_users, num_items, users, items)
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
        data = interaction_set(num_users, num_items, users, items)
        split = corpus.leave_one_out_split(data, 3)
        catalog = corpus.AttributeCatalog(
            tc.Ragged.from_rows([[int(np.argmax(user_pref[u]))] for u in range(num_users)]),
            tc.Ragged.from_rows([list(map(int, ts)) for ts in item_topics]),
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

    def test_camf_gate_and_shared_vector_covered(self):
        report = training.gradcheck("camf", seed=0)
        for name in ("gate_w", "gate_b", "u_shared"):
            assert name in report.per_param
            assert report.per_param[name] < 1e-3

    def test_point_where_a_parameter_gets_no_gradient_is_refused(self, monkeypatch):
        # the check is never vacuous: a report comes only from a point where every parameter's
        # analytic gradient has a nonzero entry, and 50 points without one raise
        monkeypatch.setattr(training, "log_loss_grad", lambda preds, labels: np.zeros(len(preds)))
        with pytest.raises(training.TrainingError, match="non-degenerate point for gmf"):
            training.gradcheck("gmf", seed=0)

    def test_report_lists_every_parameter_once(self):
        for kind in models.KINDS:
            report = training.gradcheck(kind, seed=1)
            config, _, _ = training._tiny_fixture(kind, 1)
            expected = [name for name, _ in models.parameter_shapes(config)]
            assert sorted(report.per_param) == sorted(expected)
            assert len(report.per_param) == len(expected)

    def test_corrupted_backward_rule_is_caught(self, monkeypatch):
        # every kind's output goes through sigmoid, so its rule is on every training step
        original = tc.Tape.sigmoid

        def corrupted_sigmoid(self, x):
            node = original(self, x)
            if self.recording:
                # skew the recorded rule: gradients come out 1% too large
                real_node, real_back = self._ops[-1]
                self._ops[-1] = (real_node, lambda g: real_back(g * 1.01))
            return node

        monkeypatch.setattr(tc.Tape, "sigmoid", corrupted_sigmoid)
        report = training.gradcheck("mlp", seed=42)
        assert not report.ok
        assert report.per_param[report.worst()] >= 1e-3
        assert report.worst() in report.per_param

    def test_steps_across_a_relu_kink_are_skipped(self, monkeypatch):
        # a wide step flips activations; those elements are counted, not compared
        monkeypatch.setattr(training, "GRADCHECK_STEP", 0.2)
        report = training.gradcheck("mlp", seed=0)
        # every relu layer's mask is compared: a flip in any of the three counts
        assert report.kink_skips == {"user_emb": 8, "item_emb": 12, "h0_w": 57, "h0_b": 8, "h1_w": 19,
                                     "h1_b": 3, "h2_w": 0, "h2_b": 1, "out_w": 0, "out_b": 0}
        # gmf has no relu, so nothing is ever skipped
        assert not any(training.gradcheck("gmf", seed=0).kink_skips.values())

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_camf_attribute_cross_passes(self, monkeypatch, seed):
        # the a_u * a_i cross widens the tower's input from 3 to 4 * factors columns
        fixture, configs = training._tiny_fixture, []

        def with_cross(kind, seed):
            config, catalog, batch = fixture(kind, seed)
            configs.append(dataclasses.replace(config, include_attr_cross=True))
            return configs[-1], catalog, batch

        monkeypatch.setattr(training, "_tiny_fixture", with_cross)
        report = training.gradcheck("camf", seed)
        assert report.ok, (report.worst(), report.max_relative_error)
        assert dict(models.parameter_shapes(*configs))["h0_w"][0] == 4 * configs[0].factors

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
