"""The acceptance gate.

Criteria 1-7 are the property suite and run anywhere in minutes. Criteria
8-11 reproduce desk-scale MovieLens-1M numbers; they cost hours of CPU by
design and need the raw dataset on disk (see conftest.ml1m_dir), so they
skip with a reason when it is absent. Each criterion prints its own
PASS/FAIL line (visible under `pytest -s`).
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import as_stored, merge, ml1m_dir, pool, rank_position, requires_ml1m, write_generic_dataset
from crossrec import cli, corpus, evaluation, models, training
from crossrec import tensorcore as tc


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradient correctness, 5 kinds x 5 seeds"):
        t0 = time.perf_counter()
        for kind in models.KINDS:
            for seed in range(5):
                report = training.gradcheck(kind, seed=seed)
                assert report.ok, (kind, seed, report.worst(), report.max_relative_error)
                # kink skips must stay a sliver of the elements compared
                assert sum(report.kink_skips.values()) < 60, (kind, seed)
        assert time.perf_counter() - t0 < 120.0


def test_criterion_2_mf_reduction_bitwise():
    with criterion(2, "GMF all-ones/identity hook equals the inner product bitwise"):
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            d = int(rng.choice([8, 16, 32]))
            config = models.ModelConfig("gmf", num_users=3, num_items=3, factors=d)
            store = models.init_params(config, trial)
            store.set_value("user_emb", rng.normal(0, 1, (3, d)))
            store.set_value("item_emb", rng.normal(0, 1, (3, d)))
            store.set_value("out_w", np.ones((d, 1)))
            u, i = int(rng.integers(3)), int(rng.integers(3))
            tape = tc.Tape(store, record=False)
            p_u = tape.embed_lookup("user_emb", [u])
            q_i = tape.embed_lookup("item_emb", [i])
            got = models.predictions(tape.dense(tape.hadamard(p_u, q_i), "out_w", "out_b"))[0]
            p = store.value("user_emb")[u].astype(np.float64)
            q = store.value("item_emb")[i].astype(np.float64)
            assert got == float(np.sum(p * q)), trial


def brute_force_pool(entity, attrs):
    out = np.zeros_like(entity)
    for g in attrs:
        out += entity * g
    for a in range(len(attrs)):
        for b in range(a + 1, len(attrs)):
            out += attrs[a] * attrs[b]
    return out


def test_criterion_3_pairwise_pooling_oracle():
    with criterion(3, "pairwise pooling identity trick vs O(V^2) brute force"):
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            d = int(rng.choice([4, 8, 32]))
            v = int(rng.integers(1, 11))
            entity = rng.normal(0, 1, d)
            attrs = [rng.normal(0, 1, d) for _ in range(v)]
            got = pool(entity, attrs)
            want = brute_force_pool(entity, as_stored(attrs))
            assert np.allclose(got, want, atol=1e-6), seed


def test_criterion_4_cross_attribute_distributivity():
    with criterion(4, "summed per-attribute products equal aggregated product"):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = int(rng.choice([4, 8, 32]))
            v = int(rng.integers(1, 11))
            u = rng.normal(0, 1, d)
            gs = rng.normal(0, 1, (v, d))
            per_attribute = np.zeros(d)
            for g in gs:
                per_attribute += u * g
            assert np.allclose(per_attribute, u * gs.sum(axis=0), atol=1e-6)


def test_criterion_5_metric_oracles():
    with criterion(5, "rank/HR/NDCG vs sort oracle; random-scorer HR near 0.10"):
        rng = np.random.default_rng(11)
        for trial in range(10_000):
            if trial % 3 == 0:
                scores = rng.integers(0, 8, 100) / 7.0      # heavy ties
            else:
                scores = rng.normal(0, 1, 100)
            pos = int(rng.integers(100))
            rank = rank_position(scores, pos)
            order = sorted(range(100), key=lambda j: (-scores[j], j == pos))
            want = order.index(pos) + 1
            assert rank == want
            assert evaluation.hr_at_k(rank) == (1 if want <= 10 else 0)
            expected_ndcg = 1.0 / np.log2(want + 1) if want <= 10 else 0.0
            assert evaluation.ndcg_at_k(rank) == pytest.approx(expected_ndcg, rel=1e-12)

        hits = 0
        for _ in range(10_000):
            scores = rng.uniform(0, 1, 100)
            hits += evaluation.hr_at_k(rank_position(scores, 0))
        assert 0.09 <= hits / 10_000 <= 0.11


def test_criterion_6_gate_endpoints():
    with criterion(6, "alpha endpoints reproduce the blend inputs exactly"):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(1, 40))
            shared = rng.normal(0, 1, d)
            embedded = rng.normal(0, 1, d)
            assert np.array_equal(merge(shared, embedded, 0.0), embedded)
            assert np.array_equal(merge(shared, embedded, 1.0), shared)


def _strip_wall(csv_text):
    return "\n".join(",".join(line.split(",")[:-1]) for line in csv_text.splitlines())


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "prepare/train/evaluate reruns are byte-identical"):
        dataset = write_generic_dataset(str(tmp_path), seed=3)
        outs = []
        for run in range(2):
            out = str(tmp_path / f"run{run}")
            config = cli.load_run_config(overrides={
                "dataset_kind": "generic", "interactions": dataset[0],
                "user_attrs": dataset[1], "item_attrs": dataset[2],
                "seed": 21, "out": out,
            })
            assert cli.cmd_prepare(config, log=lambda _m: None) == 0
            config.model, config.factors, config.layers = "camf", 4, (8, 4)
            config.epochs = 2
            assert cli.cmd_train(config, log=lambda _m: None) == 0
            eval_lines = []
            assert cli.cmd_evaluate(config, log=eval_lines.append) == 0
            outs.append((out, eval_lines))

        for name in (corpus.SPLIT_FILE, corpus.TRAIN_FILE, corpus.ATTRS_FILE):
            a = Path(outs[0][0], name).read_bytes()
            b = Path(outs[1][0], name).read_bytes()
            assert a == b, name
        ckpt_a = Path(cli.ckpt_path(outs[0][0], "camf", 4)).read_bytes()
        ckpt_b = Path(cli.ckpt_path(outs[1][0], "camf", 4)).read_bytes()
        assert ckpt_a == ckpt_b
        csv_a = Path(cli.metrics_path(outs[0][0], "camf", 4)).read_text()
        csv_b = Path(cli.metrics_path(outs[1][0], "camf", 4)).read_text()
        # wall_seconds is honest telemetry and inherently nonreproducible;
        # every other byte must match
        assert _strip_wall(csv_a) == _strip_wall(csv_b)
        assert outs[0][1] == outs[1][1]


# -- desk-scale MovieLens-1M reproduction (criteria 8-11) ---------------------

ML1M_SEED = 42
_ml1m_cache = {}


def _ml1m_prepared():
    if "prepared" not in _ml1m_cache:
        root = ml1m_dir()
        data, catalog = corpus.parse_movielens(
            os.path.join(root, "ratings.dat"),
            os.path.join(root, "users.dat"),
            os.path.join(root, "movies.dat"),
        )
        _ml1m_cache["prepared"] = (corpus.leave_one_out_split(data, ML1M_SEED), catalog)
    return _ml1m_cache["prepared"]


def _ml1m_trained(kind, factors, epochs=20):
    key = (kind, factors, epochs)
    if key not in _ml1m_cache:
        split, catalog = _ml1m_prepared()
        config = models.ModelConfig(
            kind, split.train.num_users, split.train.num_items, factors=factors,
            user_vocab_size=catalog.user_vocab_size,
            item_vocab_size=catalog.item_vocab_size,
        )
        _ml1m_cache[key] = training.train(
            config, split, catalog, seed=ML1M_SEED,
            lr=0.001, epochs=epochs, batch_size=256, negative_ratio=4,
        )
    return _ml1m_cache[key]


def _best_hr(result):
    return max(r.hr_at_10 for r in result.eval_reports)


def _best_ndcg(result):
    return max(r.ndcg_at_10 for r in result.eval_reports)


@pytest.mark.desk
@requires_ml1m
def test_criterion_8_training_loss_decreases():
    with criterion(8, "mean train loss at epoch 5 below epoch 1 for all five kinds"):
        for kind in models.KINDS:
            if kind in ("gmf", "camf"):
                result = _ml1m_trained(kind, 8)        # shared with criteria 9-11
            else:
                split, catalog = _ml1m_prepared()
                config = models.ModelConfig(
                    kind, split.train.num_users, split.train.num_items, factors=8,
                    user_vocab_size=catalog.user_vocab_size,
                    item_vocab_size=catalog.item_vocab_size,
                )
                result = training.train(
                    config, split, catalog, seed=ML1M_SEED, lr=0.001, epochs=5,
                    batch_size=256, negative_ratio=4,
                )
            losses = [s.mean_loss for s in result.epoch_stats]
            assert losses[4] < losses[0], (kind, losses[:5])


@pytest.mark.desk
@requires_ml1m
def test_criterion_9_gmf_hr_at_8_factors():
    with criterion(9, "GMF factors=8 best-epoch HR@10 >= 0.72"):
        assert _best_hr(_ml1m_trained("gmf", 8)) >= 0.72


@pytest.mark.desk
@requires_ml1m
def test_criterion_10_camf_beats_gmf():
    with criterion(10, "CAMF factors=8 HR >= 0.76, NDCG >= 0.50, above GMF"):
        camf = _ml1m_trained("camf", 8)
        gmf = _ml1m_trained("gmf", 8)
        assert _best_hr(camf) >= 0.76
        assert _best_ndcg(camf) >= 0.50
        assert _best_hr(camf) > _best_hr(gmf)


@pytest.mark.desk
@requires_ml1m
def test_criterion_11_monotone_capacity_trend():
    with criterion(11, "HR@10 at 32 factors within 0.005 of 8 factors or better"):
        for kind in ("gmf", "camf"):
            small = _best_hr(_ml1m_trained(kind, 8))
            large = _best_hr(_ml1m_trained(kind, 32))
            assert large >= small - 0.005, (kind, small, large)
