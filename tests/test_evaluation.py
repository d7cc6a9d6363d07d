import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import interaction_set, rank_position
from crossrec import corpus, evaluation, models
from crossrec import tensorcore as tc


class TestRankPosition:
    def test_strictly_highest_is_rank_one(self):
        scores = np.linspace(0.0, 0.9, 100)
        scores[17] = 5.0
        assert rank_position(scores, 17) == 1

    def test_count_comparison_case(self):
        assert rank_position([0.7, 0.9, 0.5], 0) == 2

    def test_tie_counts_against_the_positive(self):
        assert rank_position([0.7, 0.7, 0.3], 0) == 2
        assert rank_position([0.5, 0.5, 0.5], 0) == 3

    def test_non_finite_scores_rejected(self):
        with pytest.raises(evaluation.EvaluationError):
            rank_position([0.1, float("nan"), 0.3], 0)

    def test_matches_sort_based_oracle_with_ties(self):
        rng = np.random.default_rng(0)
        for trial in range(2000):
            if trial % 2:
                scores = rng.normal(0, 1, 100)            # continuous, no ties
            else:
                scores = rng.integers(0, 12, 100) / 11.0  # coarse grid, many ties
            pos = int(rng.integers(100))
            got = rank_position(scores, pos)
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
        before = rank_position(scores, pos)
        after = rank_position(scores * scale + shift, pos)
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
            hits += evaluation.hr_at_k(rank_position(scores, 0))
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
    train = interaction_set(3, num_items, [0, 1, 2], [5, 105, 205])
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
            rank = rank_position(scores, 0)
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

    def test_failed_rank_dump_keeps_the_earlier_file(self, tmp_path):
        split, q = rigged_split(None)
        config, store = self._store(q)
        report = evaluation.evaluate(config, store, split)
        path = tmp_path / "ranks.tsv"
        evaluation.save_ranks(report, str(path))

        class Unlistable:
            def tolist(self):
                raise MemoryError("synthetic failure while the dump is built")

        report.per_user_ranks = Unlistable()
        with pytest.raises(MemoryError, match="synthetic"):
            evaluation.save_ranks(report, str(path))
        assert path.read_text() == "0\t1\n1\t4\n2\t17\n"
        assert [p.name for p in tmp_path.iterdir()] == ["ranks.tsv"]   # no temporary file left

    def test_dead_last_layer_ties_at_sigmoid_out_b_ranked_pessimistically(self):
        """A pair whose last hidden layer is all zero scores sigmoid(out_b), whatever its ids;
        with out_b > 0 and a negative head weight such pairs tie above every live one, and a
        positive among them ranks behind every negative it ties with."""
        split, _ = rigged_split(None)
        q = np.ones((300, 1))             # live: h = 1, below the tie
        q[0:6] = -1.0                     # user 0: dead positive and 5 dead negatives -> rank 6
        q[101:104] = -2.0                 # user 1: 3 dead negatives above a live positive -> rank 4
        q[104:200] = 2.0                  #         (its other negatives score below it)
        q[200:300] = 0.0                  # user 2: all 100 dead -> rank 100
        config = models.ModelConfig("mlp", num_users=3, num_items=300, factors=1, mlp_layers=(1,))
        store = models.init_params(config, 0)
        store.set_value("user_emb", np.ones((3, 1)))
        store.set_value("item_emb", q)
        store.set_value("h0_w", [[0.0], [1.0]])   # h = relu(q): zero for q <= 0
        store.set_value("h0_b", [[0.0]])
        store.set_value("out_w", [[-1.0]])
        store.set_value("out_b", [[0.25]])
        tied = 1.0 / (1.0 + math.exp(-0.25))
        for u in range(3):
            items = np.concatenate([[split.test_positives[u]], split.test_negatives[u]])
            tape = tc.Tape(store, record=False)
            scores = models.predictions(models.score(tape, config, np.full(100, u), items))
            dead = q[items, 0] <= 0.0
            assert (scores[dead] == tied).all() and (scores[~dead] < tied).all()
        assert evaluation.evaluate(config, store, split).per_user_ranks.tolist() == [6, 4, 100]


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
    train = interaction_set(num_users, NUM_ITEMS, users, items)
    split = corpus.SplitDataset(train, np.array(positives), np.stack(negatives))
    catalog = corpus.AttributeCatalog(
        user_attrs=tc.Ragged.from_rows(
            [rng.choice(5, rng.integers(1, 4), replace=False) for _ in range(num_users)]),
        item_attrs=tc.Ragged.from_rows(
            [rng.choice(7, rng.integers(1, 4), replace=False) for _ in range(NUM_ITEMS)]),
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
            rank = rank_position(want, 0)
            assert report.per_user_ranks[u] == rank
            hr += evaluation.hr_at_k(rank)
            ndcg += evaluation.ndcg_at_k(rank)
        assert report.hr_at_10 == hr / num_users and report.ndcg_at_10 == ndcg / num_users

    @pytest.mark.parametrize("kind", ["mlp", "aadcf", "camf"])
    def test_copies_of_the_store_die_with_the_pass(self, kind):
        # each pass scores on its own tape, whose float64 copies and tiles are the store's then
        split, catalog = random_run(17)
        config, store = random_model(kind, 17)
        before = evaluation.evaluate(config, store, split, catalog).per_user_ranks
        rng = np.random.default_rng(7)
        store.set_value("h0_b", rng.normal(0, 1, store.shape("h0_b")))
        store.set_value("out_w", -store.value("out_w"))
        report = evaluation.evaluate(config, store, split, catalog)
        assert report.per_user_ranks.tobytes() != before.tobytes()
        for u in range(17):
            items = np.concatenate([[split.test_positives[u]], split.test_negatives[u]])
            want = models.score(tc.Tape(store, record=False), config, np.full(100, u), items, catalog)
            assert report.per_user_ranks[u] == rank_position(models.predictions(want), 0)

    @pytest.mark.parametrize("kind", [*models.KINDS, "camf-cross"])
    def test_one_tape_scores_blocks_of_two_heights_like_fresh_tapes(self, kind):
        split, catalog = random_run(16)
        config, store = random_model(kind, 16)
        rng = np.random.default_rng(3)
        blocks = [(rng.integers(0, 16, rows), rng.integers(0, NUM_ITEMS, rows)) for rows in (1600, 100)]
        for order in (blocks, blocks[::-1]):
            tape = tc.Tape(store, record=False)
            for users, items in order:
                got = models.score(tape, config, users, items, catalog).value
                want = models.score(tc.Tape(store, record=False), config, users, items, catalog).value
                assert got.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("kind", [*models.KINDS, "camf-cross"])
    def test_side_pass_in_chunks_ranks_bitwise_like_one_pass(self, kind, monkeypatch):
        # 200 users and 150 items in chunks of 64 ids: the chunk at 192 holds users and no items
        split, catalog = random_run(200)
        config, store = random_model(kind, 200)
        whole = evaluation.evaluate(config, store, split, catalog)
        calls = []
        build_sides = models.build_sides

        def recording_build_sides(tape, config, users, items, catalog=None):
            calls.append((users.size, items.size))
            return build_sides(tape, config, users, items, catalog)

        monkeypatch.setattr(evaluation, "SIDE_CHUNK", 64)
        monkeypatch.setattr(models, "build_sides", recording_build_sides)
        chunked = evaluation.evaluate(config, store, split, catalog)
        assert calls == [(64, 64), (64, 64), (64, 22), (8, 0)]
        assert chunked.per_user_ranks.tobytes() == whole.per_user_ranks.tobytes()
        assert (chunked.hr_at_10, chunked.ndcg_at_10) == (whole.hr_at_10, whole.ndcg_at_10)


def traced(call):
    """(result, bytes held when call() returns above those held before it, tracemalloc
    peak during it above those held when it returns)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, held - before, peak - held


class TestReadPathMemory:
    """The read path's temporaries are bounded chunks, not (users x 99) tables."""

    USERS = 3000

    def test_load_split_checks_peak_at_most_120_bytes_per_user(self, tmp_path):
        # one whole (users x 99) int64 key table is 792 bytes per user and each whole bool
        # one 99, so the checks must walk blocks of users; about 107 bytes per user here
        split, _ = random_run(self.USERS)
        path = str(tmp_path / corpus.SPLIT_FILE)
        corpus.save_split(split, path)
        loaded, _, peak = traced(lambda: corpus.load_split(path, split.train))
        assert loaded.test_negatives.tobytes() == split.test_negatives.tobytes()
        assert peak <= 120 * self.USERS, peak / self.USERS

    def test_load_split_holds_at_most_210_bytes_per_user(self, tmp_path):
        # int16 negatives take 2 x 99 bytes per user and int16 positives 2: 200 in all. int32
        # negatives would hold 396, int64 ones 792, and a whole-grid bitmap another NUM_ITEMS / 8
        split, _ = random_run(self.USERS)
        path = str(tmp_path / corpus.SPLIT_FILE)
        corpus.save_split(split, path)
        assert "pair_bits" not in vars(split.train)
        loaded, held, _ = traced(lambda: corpus.load_split(path, split.train))
        assert "pair_bits" not in vars(split.train)
        assert loaded.test_positives.dtype == loaded.test_negatives.dtype == np.int16
        assert held <= 210 * self.USERS, held / self.USERS

    @pytest.mark.parametrize("kind", ["aadcf", "camf", "camf-cross"])
    def test_side_pass_peaks_at_most_1000_bytes_per_id_of_a_512_id_chunk(self, kind, monkeypatch):
        # the attribute kinds pool and segment-sum each chunk's attribute rows: above what the
        # pass holds when it returns, one 512-id chunk peaks at about 760 bytes per id for aadcf
        # and 650 for camf, and the column pattern kept for the largest segment sum is 64 KiB.
        # Chunks of 2,048 ids peak at about 1.2 MB for aadcf and 0.74 MB for camf, and keep
        # a 253 KiB pattern
        monkeypatch.setattr(tc, "_COLUMNS", {})
        split, catalog = random_run(self.USERS)
        config, store = random_model(kind, self.USERS)
        tape = tc.Tape(store, record=False)
        _, _, peak = traced(lambda: evaluation._sides(tape, config, self.USERS, catalog))
        assert peak <= 1000 * 512, peak / 512
        assert sum(pattern.nbytes for pattern in tc._COLUMNS.values()) <= 128 << 10

    def test_load_prepared_then_evaluate_builds_no_pair_users_or_pair_bits(self, tmp_path):
        # both are the sampler's: an id per train pair and a bit per (user, item) cell
        split, catalog = random_run(40)
        corpus.save_prepared(str(tmp_path), split, catalog)
        loaded, loaded_catalog = corpus.load_prepared(str(tmp_path))
        config, store = random_model("camf", 40)
        evaluation.evaluate(config, store, loaded, loaded_catalog)
        assert not {"pair_users", "pair_bits"} & set(vars(loaded.train))

    def test_evaluate_pass_peak_at_most_800_bytes_per_user(self):
        # camf's user side arrays (two of users x 8 float64) and the ranks take 136 bytes per
        # user, and one side chunk's temporaries bring the peak to about 750 here; a whole
        # (users x 100) int64 candidate table alone would be 800
        split, catalog = random_run(self.USERS)
        config, store = random_model("camf", self.USERS)
        report, _, peak = traced(lambda: evaluation.evaluate(config, store, split, catalog))
        assert report.per_user_ranks.size == self.USERS
        assert peak <= 800 * self.USERS, peak / self.USERS
