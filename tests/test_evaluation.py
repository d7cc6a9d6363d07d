import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crossrec import corpus, evaluation, models
from crossrec import tensorcore as tc


class TestRankPosition:
    def test_strictly_highest_is_rank_one(self):
        scores = np.linspace(0.0, 0.9, 100)
        scores[17] = 5.0
        assert evaluation.rank_position(scores, 17) == 1

    def test_count_comparison_case(self):
        assert evaluation.rank_position([0.7, 0.9, 0.5], 0) == 2

    def test_tie_counts_against_the_positive(self):
        assert evaluation.rank_position([0.7, 0.7, 0.3], 0) == 2
        assert evaluation.rank_position([0.5, 0.5, 0.5], 0) == 3

    def test_non_finite_scores_rejected(self):
        with pytest.raises(evaluation.EvaluationError):
            evaluation.rank_position([0.1, float("nan"), 0.3], 0)

    def test_matches_sort_based_oracle_with_ties(self):
        rng = np.random.default_rng(0)
        for trial in range(2000):
            if trial % 2:
                scores = rng.normal(0, 1, 100)            # continuous, no ties
            else:
                scores = rng.integers(0, 12, 100) / 11.0  # coarse grid, many ties
            pos = int(rng.integers(100))
            got = evaluation.rank_position(scores, pos)
            # oracle: place the positive after every tie in a descending sort
            order = sorted(range(100), key=lambda j: (-scores[j], j == pos))
            assert got == order.index(pos) + 1

    @given(
        st.floats(min_value=0.01, max_value=1000.0),
        st.floats(min_value=-1000.0, max_value=1000.0),
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_invariant_under_increasing_affine_maps(self, scale, shift, pos, seed):
        scores = np.random.default_rng(seed).normal(0, 1, 100)
        before = evaluation.rank_position(scores, pos)
        after = evaluation.rank_position(scores * scale + shift, pos)
        assert before == after


class TestHrNdcg:
    def test_hr_boundaries(self):
        assert evaluation.hr_at_k(1) == 1
        assert evaluation.hr_at_k(10) == 1
        assert evaluation.hr_at_k(11) == 0

    def test_ndcg_values(self):
        assert evaluation.ndcg_at_k(1) == 1.0
        assert evaluation.ndcg_at_k(3) == pytest.approx(0.5)      # 1/log2(4)
        assert evaluation.ndcg_at_k(11) == 0.0

    def test_ndcg_never_exceeds_hr(self):
        for rank in range(1, 101):
            assert evaluation.ndcg_at_k(rank) <= evaluation.hr_at_k(rank)

    def test_random_scores_hit_about_ten_percent(self):
        rng = np.random.default_rng(99)
        hits = 0
        trials = 10_000
        for _ in range(trials):
            scores = rng.uniform(0, 1, 100)
            hits += evaluation.hr_at_k(evaluation.rank_position(scores, 0))
        assert 0.09 <= hits / trials <= 0.11


def rigged_split(ranks_q):
    """3 users, 300 items; item weights chosen to force known ranks."""
    num_items = 300
    positives = np.array([0, 100, 200])
    negatives = np.stack([
        np.arange(1, 100),
        np.arange(101, 200),
        np.arange(201, 300),
    ])
    q = np.zeros((num_items, 1))
    q[0] = 10.0                       # user 0: positive strictly highest -> rank 1
    q[1:100] = -1.0
    q[100] = 5.0                      # user 1: three negatives above -> rank 4
    q[101:104] = [[6.0], [7.0], [8.0]]
    q[104:200] = -2.0
    q[200] = 0.0                      # user 2: sixteen negatives above -> rank 17
    q[201:217] = 1.0
    q[217:300] = -3.0
    train = corpus.InteractionSet.from_arrays(
        3, num_items, [0, 1, 2], [5, 105, 205], [0, 0, 0]
    )
    split = corpus.SplitDataset(train, positives, negatives)
    return split, q


class TestEvaluate:
    def _store(self, q):
        config = models.ModelConfig("gmf", num_users=3, num_items=len(q), factors=1)
        store = models.init_params(config, 0)
        store.set_value("user_emb", np.ones((3, 1)))
        store.set_value("item_emb", q)
        store.set_value("out_w", [[1.0]])
        store.set_value("out_b", [[0.0]])
        return config, store

    def test_three_user_hand_average(self):
        split, q = rigged_split(None)
        config, store = self._store(q)
        report = evaluation.evaluate(config, store, split)
        assert list(report.per_user_ranks) == [1, 4, 17]
        assert report.hr_at_10 == pytest.approx(2.0 / 3.0)
        want_ndcg = (1.0 + 1.0 / math.log2(5) + 0.0) / 3.0
        assert report.ndcg_at_10 == pytest.approx(want_ndcg, rel=1e-12)

    def test_perfect_ranker(self):
        split, q = rigged_split(None)
        q = np.full_like(q, -5.0)
        q[[0, 100, 200]] = 50.0
        config, store = self._store(q)
        report = evaluation.evaluate(config, store, split)
        assert report.hr_at_10 == 1.0 and report.ndcg_at_10 == 1.0

    def test_constant_scorer_gets_zero(self):
        split, q = rigged_split(None)
        config, store = self._store(np.zeros_like(q))
        report = evaluation.evaluate(config, store, split)
        assert all(r == 100 for r in report.per_user_ranks)
        assert report.hr_at_10 == 0.0 and report.ndcg_at_10 == 0.0

    def test_user_order_independent(self):
        split, q = rigged_split(None)
        config, store = self._store(q)
        report = evaluation.evaluate(config, store, split)
        # recompute in reversed user order with per-user scoring
        hr = ndcg = 0.0
        for u in reversed(range(3)):
            items = np.concatenate([[split.test_positives[u]], split.test_negatives[u]])
            tape = tc.Tape(store, record=False)
            scores = models.predictions(
                models.score(tape, config, np.full(100, u), items)
            )
            rank = evaluation.rank_position(scores, 0)
            hr += evaluation.hr_at_k(rank)
            ndcg += evaluation.ndcg_at_k(rank)
        assert report.hr_at_10 == hr / 3 and report.ndcg_at_10 == ndcg / 3

    def test_repeat_evaluation_identical(self):
        split, q = rigged_split(None)
        config, store = self._store(q)
        a = evaluation.evaluate(config, store, split)
        b = evaluation.evaluate(config, store, split)
        assert a.hr_at_10 == b.hr_at_10 and a.ndcg_at_10 == b.ndcg_at_10

    def test_non_finite_scores_propagate(self):
        split, q = rigged_split(None)
        config, store = self._store(q)
        bad = store.value("item_emb").copy()
        bad[50] = np.nan
        store.set_value("item_emb", bad)
        with pytest.raises(evaluation.EvaluationError):
            evaluation.evaluate(config, store, split)

    def test_rank_dump_format(self, tmp_path):
        split, q = rigged_split(None)
        config, store = self._store(q)
        report = evaluation.evaluate(config, store, split)
        path = tmp_path / "ranks.tsv"
        evaluation.save_ranks(report, str(path))
        assert path.read_text() == "0\t1\n1\t4\n2\t17\n"


NUM_ITEMS = 150


def random_run(num_users, seed=31):
    """A split of num_users users over NUM_ITEMS items plus a catalog with 1-3 attributes each."""
    rng = np.random.default_rng(seed)
    users, items, positives, negatives = [], [], [], []
    for u in range(num_users):
        drawn = rng.choice(NUM_ITEMS, size=103, replace=False)
        users += [u] * 3
        items += drawn[:3].tolist()
        positives.append(drawn[3])
        negatives.append(np.sort(drawn[4:]))
    train = corpus.InteractionSet.from_arrays(
        num_users, NUM_ITEMS, users, items, np.zeros(len(users), dtype=np.int64))
    split = corpus.SplitDataset(train, np.array(positives), np.stack(negatives))
    catalog = corpus.AttributeCatalog(
        user_attrs=[rng.choice(5, rng.integers(1, 4), replace=False) for _ in range(num_users)],
        item_attrs=[rng.choice(7, rng.integers(1, 4), replace=False) for _ in range(NUM_ITEMS)],
        user_vocab_size=5,
        item_vocab_size=7,
    )
    return split, catalog


def random_model(kind, num_users, seed=5):
    """kind is a model kind, or "camf-cross" for camf with include_attr_cross."""
    config = models.ModelConfig(kind.removesuffix("-cross"), num_users, NUM_ITEMS, factors=8,
                                user_vocab_size=5, item_vocab_size=7,
                                include_attr_cross=kind.endswith("-cross"))
    store = models.init_params(config, seed)
    for name in store.names():
        # spread the scores well past init's N(0, 0.01^2) so ranks vary across users
        store.set_value(name, store.value(name) * 30.0)
    return config, store


class TestChunkedEvaluate:
    """evaluate scores EVAL_USERS_PER_FORWARD users per forward; the per-user loop is the oracle."""

    @pytest.mark.parametrize("num_users", [1, 15, 16, 17])
    @pytest.mark.parametrize("kind", [*models.KINDS, "camf-cross"])
    def test_matches_per_user_oracle_bitwise(self, kind, num_users, monkeypatch):
        split, catalog = random_run(num_users)
        config, store = random_model(kind, num_users)
        chunks = []
        score = models.score

        def recording_score(*args, **kwargs):
            node = score(*args, **kwargs)
            chunks.append(models.predictions(node).copy())
            return node

        monkeypatch.setattr(models, "score", recording_score)
        report = evaluation.evaluate(config, store, split, catalog)
        monkeypatch.undo()

        per_forward = evaluation.EVAL_USERS_PER_FORWARD
        assert len(chunks) == -(-num_users // per_forward)
        chunked = np.concatenate(chunks).reshape(num_users, 100)
        hr = ndcg = 0.0
        for u in range(num_users):
            items = np.concatenate([[split.test_positives[u]], split.test_negatives[u]])
            tape = tc.Tape(store, record=False)
            want = models.predictions(models.score(tape, config, np.full(100, u), items, catalog))
            assert chunked[u].tobytes() == want.tobytes()
            rank = evaluation.rank_position(want, 0)
            assert report.per_user_ranks[u] == rank
            hr += evaluation.hr_at_k(rank)
            ndcg += evaluation.ndcg_at_k(rank)
        assert report.hr_at_10 == hr / num_users and report.ndcg_at_10 == ndcg / num_users

    def test_ranks_vary_across_users(self):
        # guards the oracle test against a model so flat that every rank agrees
        split, catalog = random_run(17)
        config, store = random_model("camf", 17)
        ranks = evaluation.evaluate(config, store, split, catalog).per_user_ranks
        assert len(set(ranks.tolist())) > 5

    def test_nan_in_last_chunk_raises(self):
        split, catalog = random_run(17)
        config, store = random_model("gmf", 17)
        evaluation.evaluate(config, store, split, catalog)
        emb = store.value("user_emb").copy()
        emb[16] = np.nan
        store.set_value("user_emb", emb)
        with pytest.raises(evaluation.EvaluationError):
            evaluation.evaluate(config, store, split, catalog)

    @pytest.mark.parametrize("kind", models.KINDS)
    @pytest.mark.parametrize("where", ["positive", "negative"])
    @pytest.mark.parametrize("bad", [-1, NUM_ITEMS])
    def test_candidate_outside_items_raises(self, kind, where, bad):
        # side rows are gathered by indexing, where -1 would silently read the last item
        split, catalog = random_run(17)
        if where == "positive":
            split.test_positives[3] = bad
        else:
            split.test_negatives[16, 98] = bad
        config, store = random_model(kind, 17)
        with pytest.raises(tc.ShapeError, match="out of range"):
            evaluation.evaluate(config, store, split, catalog)
