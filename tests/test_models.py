import math

import numpy as np
import pytest

from conftest import as_stored, merge, pool, rows_of
from crossrec import corpus, models
from crossrec import tensorcore as tc


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))


def cfg(kind, **kw):
    base = dict(num_users=6, num_items=7, factors=4, mlp_layers=(8, 4, 2),
                user_vocab_size=3, item_vocab_size=4)
    base.update(kw)
    return models.ModelConfig(kind, **base)


def scores_for(config, store, users, items, catalog=None):
    tape = tc.Tape(store, record=False)
    return models.predictions(models.score(tape, config, users, items, catalog))


def gmf_logits(store, users, items):
    """GMF's pre-sigmoid output h . (p_u * q_i) + b, built from the tape primitives."""
    tape = tc.Tape(store, record=False)
    p = tape.embed_lookup("user_emb", users)
    q = tape.embed_lookup("item_emb", items)
    return models.predictions(tape.dense(tape.hadamard(p, q), "out_w", "out_b"))


@pytest.fixture
def catalog(tiny_catalog):
    return tiny_catalog


# -- independent scalar re-implementations (the oracles) ---------------------


def dense_scalar(x, w, b=None):
    out = []
    for o in range(w.shape[1]):
        acc = 0.0
        for k in range(len(x)):
            acc += float(x[k]) * float(w[k, o])
        if b is not None:
            acc += float(b[0, o])
        out.append(acc)
    return out


def mlp_scalar(store, x, layers):
    for k in range(len(layers)):
        x = [max(v, 0.0) for v in dense_scalar(x, store.value(f"h{k}_w"), store.value(f"h{k}_b"))]
    return x


def gmf_scalar(store, u, i):
    p = store.value("user_emb")[u]
    q = store.value("item_emb")[i]
    had = [float(a) * float(b) for a, b in zip(p, q)]
    return sigmoid(dense_scalar(had, store.value("out_w"), store.value("out_b"))[0])


def mlp_model_scalar(store, config, u, i):
    x = [float(v) for v in store.value("user_emb")[u]] + [float(v) for v in store.value("item_emb")[i]]
    x = mlp_scalar(store, x, config.mlp_layers)
    return sigmoid(dense_scalar(x, store.value("out_w"), store.value("out_b"))[0])


def neumf_scalar(store, config, u, i):
    pg, qg = store.value("gmf_user_emb")[u], store.value("gmf_item_emb")[i]
    had = [float(a) * float(b) for a, b in zip(pg, qg)]
    z = dense_scalar(had, store.value("out_w_gmf"), store.value("out_b"))[0]
    x = [float(v) for v in store.value("mlp_user_emb")[u]] + [float(v) for v in store.value("mlp_item_emb")[i]]
    x = mlp_scalar(store, x, config.mlp_layers)
    z += dense_scalar(x, store.value("out_w_mlp"))[0]
    return sigmoid(z)


def pool_scalar(entity, attr_rows):
    d = len(entity)
    out = [0.0] * d
    for g in attr_rows:                      # entity x attribute terms
        for k in range(d):
            out[k] += float(entity[k]) * float(g[k])
    for a in range(len(attr_rows)):          # attribute x attribute pairs
        for b in range(a + 1, len(attr_rows)):
            for k in range(d):
                out[k] += float(attr_rows[a][k]) * float(attr_rows[b][k])
    return out


def aadcf_scalar(store, config, catalog, u, i):
    ue = store.value("user_emb")[u]
    ie = store.value("item_emb")[i]
    p = pool_scalar(ue, [store.value("user_attr_emb")[a] for a in rows_of(catalog.user_attrs)[u]])
    q = pool_scalar(ie, [store.value("item_attr_emb")[a] for a in rows_of(catalog.item_attrs)[i]])
    x = [a * b for a, b in zip(p, q)]
    x = mlp_scalar(store, x, config.mlp_layers)
    return sigmoid(dense_scalar(x, store.value("out_w"), store.value("out_b"))[0])


def camf_scalar(store, config, catalog, u, i):
    d = config.factors
    p = [float(v) for v in store.value("user_emb")[u]]
    q = [float(v) for v in store.value("item_emb")[i]]
    a_u = [0.0] * d
    for a in rows_of(catalog.user_attrs)[u]:
        for k in range(d):
            a_u[k] += float(store.value("user_attr_emb")[a, k])
    a_i = [0.0] * d
    for a in rows_of(catalog.item_attrs)[i]:
        for k in range(d):
            a_i[k] += float(store.value("item_attr_emb")[a, k])
    z = p + a_u + q + a_i
    alpha = sigmoid(dense_scalar(z, store.value("gate_w"), store.value("gate_b"))[0])
    shared = [float(v) for v in store.value("u_shared")[0]]
    merged = [alpha * s + (1 - alpha) * e for s, e in zip(shared, p)]
    x = [m * t for m, t in zip(merged, q)]
    x += [m * t for m, t in zip(merged, a_i)]
    x += [t * s for t, s in zip(q, a_u)]
    if config.include_attr_cross:
        x += [a * b for a, b in zip(a_u, a_i)]
    x = mlp_scalar(store, x, config.mlp_layers)
    return sigmoid(dense_scalar(x, store.value("out_w"), store.value("out_b"))[0])


# -- GMF -----------------------------------------------------------------------


class TestGmf:
    def test_inner_product_hook_hand_case(self):
        config = cfg("gmf", num_users=1, num_items=1, factors=2)
        store = models.init_params(config, 0)
        store.set_value("user_emb", [[1.0, 2.0]])
        store.set_value("item_emb", [[3.0, 4.0]])
        store.set_value("out_w", [[1.0], [1.0]])
        assert gmf_logits(store, [0], [0])[0] == 11.0

    def test_zero_user_embedding_scores_half(self):
        config = cfg("gmf")
        store = models.init_params(config, 1)
        store.set_value("user_emb", np.zeros((6, 4)))
        assert scores_for(config, store, [2], [3])[0] == 0.5

    def test_matches_scalar_oracle(self):
        config = cfg("gmf")
        for seed in range(20):
            store = models.init_params(config, seed)
            got = scores_for(config, store, [seed % 6], [seed % 7])[0]
            want = gmf_scalar(store, seed % 6, seed % 7)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_hook_equals_inner_product_bitwise(self):
        config = cfg("gmf", factors=8)
        rng = np.random.default_rng(0)
        store = models.init_params(config, 0)
        store.set_value("out_w", np.ones((8, 1)))
        for _ in range(200):
            u, i = int(rng.integers(6)), int(rng.integers(7))
            store.set_value("user_emb", rng.normal(0, 1, (6, 8)))
            store.set_value("item_emb", rng.normal(0, 1, (7, 8)))
            got = gmf_logits(store, [u], [i])[0]
            p = store.value("user_emb")[u].astype(np.float64)
            q = store.value("item_emb")[i].astype(np.float64)
            assert got == float(np.sum(p * q))

    def test_index_out_of_range(self):
        config = cfg("gmf")
        store = models.init_params(config, 0)
        with pytest.raises(tc.ShapeError):
            scores_for(config, store, [6], [0])


# -- MLP -----------------------------------------------------------------------


class TestMlp:
    def test_zero_network_scores_half(self):
        config = cfg("mlp")
        store = models.init_params(config, 0)
        for name in store.names():
            store.set_value(name, np.zeros(store.shape(name)))
        assert scores_for(config, store, [0], [0])[0] == 0.5

    def test_hand_computed_single_hidden_layer(self):
        config = cfg("mlp", num_users=1, num_items=1, factors=2, mlp_layers=(2,))
        store = models.init_params(config, 0)
        store.set_value("user_emb", [[1.0, 2.0]])
        store.set_value("item_emb", [[3.0, -1.0]])
        store.set_value("h0_w", [[0.5, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 2.0]])
        store.set_value("h0_b", [[0.5, -0.25]])
        store.set_value("out_w", [[0.25], [7.0]])
        store.set_value("out_b", [[-0.5]])
        # by hand: pre = [3.5+0.5, 0-0.25] -> relu [4, 0]; 0.25*4 - 0.5 = 0.5
        want = 1.0 / (1.0 + math.exp(-0.5))
        assert scores_for(config, store, [0], [0])[0] == pytest.approx(want, rel=1e-12)

    def test_matches_scalar_oracle(self):
        config = cfg("mlp")
        for seed in range(10):
            store = models.init_params(config, seed)
            got = scores_for(config, store, [seed % 6], [seed % 7])[0]
            want = mlp_model_scalar(store, config, seed % 6, seed % 7)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_hidden_unit_permutation_invariance(self):
        config = cfg("mlp", mlp_layers=(5, 3))
        store = models.init_params(config, 7)
        perm = [3, 0, 4, 1, 2]
        permuted = models.init_params(config, 7)
        permuted.set_value("h0_w", store.value("h0_w")[:, perm])
        permuted.set_value("h0_b", store.value("h0_b")[:, perm])
        permuted.set_value("h1_w", store.value("h1_w")[perm, :])
        a = scores_for(config, store, [1, 2], [3, 4])
        b = scores_for(config, permuted, [1, 2], [3, 4])
        assert a == pytest.approx(b, rel=1e-12)


# -- NeuMF ---------------------------------------------------------------------


class TestNeumf:
    def _copy_gmf_branch(self, neumf_store, config):
        gmf_config = cfg("gmf", factors=config.factors)
        gmf_store = models.init_params(gmf_config, 999)
        gmf_store.set_value("user_emb", neumf_store.value("gmf_user_emb"))
        gmf_store.set_value("item_emb", neumf_store.value("gmf_item_emb"))
        gmf_store.set_value("out_w", neumf_store.value("out_w_gmf"))
        gmf_store.set_value("out_b", neumf_store.value("out_b"))
        return gmf_config, gmf_store

    def test_zeroed_mlp_half_equals_gmf_bitwise(self):
        config = cfg("neumf")
        store = models.init_params(config, 5)
        store.set_value("out_w_mlp", np.zeros(store.shape("out_w_mlp")))
        gmf_config, gmf_store = self._copy_gmf_branch(store, config)
        users = np.arange(6).repeat(7)
        items = np.tile(np.arange(7), 6)
        a = scores_for(config, store, users, items)
        b = scores_for(gmf_config, gmf_store, users, items)
        assert np.array_equal(a, b)

    def test_zeroed_gmf_half_is_mlp_only(self):
        config = cfg("neumf")
        store = models.init_params(config, 6)
        store.set_value("out_w_gmf", np.zeros(store.shape("out_w_gmf")))
        got = scores_for(config, store, [1], [2])[0]
        x = [float(v) for v in store.value("mlp_user_emb")[1]]
        x += [float(v) for v in store.value("mlp_item_emb")[2]]
        x = mlp_scalar(store, x, config.mlp_layers)
        want = sigmoid(dense_scalar(x, store.value("out_w_mlp"))[0]
                       + float(store.value("out_b")[0, 0]))
        assert got == pytest.approx(want, rel=1e-12)

    def test_matches_scalar_oracle(self):
        config = cfg("neumf")
        for seed in range(10):
            store = models.init_params(config, seed)
            got = scores_for(config, store, [seed % 6], [seed % 7])[0]
            want = neumf_scalar(store, config, seed % 6, seed % 7)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


# -- pairwise pooling ------------------------------------------------------------


class TestPairwisePool:
    def test_single_attribute_no_pair_term(self):
        assert pool([1.0, 1.0], [[2.0, 3.0]]) == pytest.approx([2.0, 3.0])

    def test_two_unit_attributes(self):
        got = pool([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])
        assert got == pytest.approx([1.0, 1.0])

    def test_identity_trick_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            d = int(rng.choice([4, 8, 32]))
            v = int(rng.integers(1, 11))
            e = rng.normal(0, 1, d)
            attrs = rng.normal(0, 1, (v, d))
            got = pool(e, list(attrs))
            want = pool_scalar(e, as_stored(attrs))
            assert np.allclose(got, want, atol=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(tc.ShapeError):
            pool([1.0, 2.0], [[1.0, 2.0, 3.0]])


# -- AADCF -----------------------------------------------------------------------


class TestAadcf:
    def test_zero_attribute_embeddings_degenerate_pool(self, catalog):
        config = cfg("aadcf")
        store = models.init_params(config, 3)
        store.set_value("user_attr_emb", np.zeros((3, 4)))
        store.set_value("item_attr_emb", np.zeros((4, 4)))
        # pools collapse to zero vectors, so the MLP sees zero input
        got = scores_for(config, store, [0], [0], catalog)[0]
        x = mlp_scalar(store, [0.0] * 4, config.mlp_layers)
        want = sigmoid(dense_scalar(x, store.value("out_w"), store.value("out_b"))[0])
        assert got == pytest.approx(want, rel=1e-12)

    def test_hand_set_tiny_instance(self):
        config = cfg("aadcf", num_users=1, num_items=1, factors=2, mlp_layers=(2,),
                     user_vocab_size=1, item_vocab_size=1)
        catalog = corpus.AttributeCatalog(tc.Ragged.from_rows([[0]]), tc.Ragged.from_rows([[0]]), 1, 1)
        store = models.init_params(config, 0)
        store.set_value("user_emb", [[1.0, 2.0]])
        store.set_value("item_emb", [[0.5, 1.0]])
        store.set_value("user_attr_emb", [[2.0, -1.0]])
        store.set_value("item_attr_emb", [[1.0, 3.0]])
        store.set_value("h0_w", [[1.0, 0.0], [0.0, 1.0]])
        store.set_value("h0_b", [[0.0, 0.0]])
        store.set_value("out_w", [[1.0], [1.0]])
        store.set_value("out_b", [[0.0]])
        # p = [1*2, 2*(-1)] = [2,-2]; q = [0.5*1, 1*3] = [0.5,3]
        # p*q = [1,-6] -> relu [1,0] -> 1.0
        assert scores_for(config, store, [0], [0], catalog)[0] == pytest.approx(
            1.0 / (1.0 + math.exp(-1.0)), rel=1e-12
        )

    def test_matches_scalar_oracle(self, catalog):
        config = cfg("aadcf")
        for seed in range(10):
            store = models.init_params(config, seed)
            got = scores_for(config, store, [seed % 6], [seed % 7], catalog)[0]
            want = aadcf_scalar(store, config, catalog, seed % 6, seed % 7)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


# -- CAMF ------------------------------------------------------------------------


class TestCamfGate:
    def test_zero_gate_is_half(self, catalog):
        config = cfg("camf")
        store = models.init_params(config, 2)
        store.set_value("gate_w", np.zeros((16, 1)))
        tape = tc.Tape(store, record=False)
        alpha = models._camf_gate(tape, *models.build_sides(tape, config, [0, 1], [2, 3], catalog))
        assert np.all(alpha.value == 0.5)

    def test_bias_log3_gives_three_quarters(self, catalog):
        config = cfg("camf")
        store = models.init_params(config, 2)
        store.set_value("gate_w", np.zeros((16, 1)))
        store.set_value("gate_b", [[math.log(3.0)]])
        tape = tc.Tape(store, record=False)
        alpha = models._camf_gate(tape, *models.build_sides(tape, config, [4], [5], catalog))
        # bias lives in float32, so sigma(ln 3) = 3/4 holds to float32 precision
        assert alpha.value[0, 0] == pytest.approx(0.75, rel=1e-6)

    def test_saturated_gate(self, catalog):
        config = cfg("camf")
        store = models.init_params(config, 2)
        store.set_value("gate_w", np.zeros((16, 1)))
        store.set_value("gate_b", [[-50.0]])
        tape = tc.Tape(store, record=False)
        alpha = models._camf_gate(tape, *models.build_sides(tape, config, [0], [0], catalog))
        assert alpha.value[0, 0] < 1e-20


class TestCamfMerge:
    def test_alpha_zero_returns_embedded(self):
        rng = np.random.default_rng(1)
        shared, embedded = rng.normal(0, 1, 8), rng.normal(0, 1, 8)
        assert np.array_equal(merge(shared, embedded, 0.0), embedded)

    def test_alpha_one_returns_shared(self):
        rng = np.random.default_rng(2)
        shared, embedded = rng.normal(0, 1, 8), rng.normal(0, 1, 8)
        assert np.array_equal(merge(shared, embedded, 1.0), shared)

    def test_halfway_blend(self):
        got = merge([2.0, 0.0], [0.0, 2.0], 0.5)
        assert got.tolist() == [1.0, 1.0]


class TestCamfForward:
    def test_zero_network_scores_half(self, catalog):
        config = cfg("camf")
        store = models.init_params(config, 0)
        for name in store.names():
            if name.endswith("_w") or name.startswith("h"):
                store.set_value(name, np.zeros(store.shape(name)))
        assert scores_for(config, store, [1], [2], catalog)[0] == 0.5

    def test_matches_scalar_oracle(self, catalog):
        for include_cross in (False, True):
            config = cfg("camf", include_attr_cross=include_cross)
            for seed in range(8):
                store = models.init_params(config, seed)
                got = scores_for(config, store, [seed % 6], [seed % 7], catalog)[0]
                want = camf_scalar(store, config, catalog, seed % 6, seed % 7)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_aggregated_attributes_equal_per_attribute_products(self):
        # u * (g1 + g2 + ...) == u*g1 + u*g2 + ... (distributivity)
        rng = np.random.default_rng(3)
        for _ in range(200):
            d, v = int(rng.integers(2, 33)), int(rng.integers(1, 9))
            u = rng.normal(0, 1, d)
            gs = rng.normal(0, 1, (v, d))
            summed = np.zeros(d)
            for g in gs:
                summed += u * g
            assert np.allclose(summed, u * gs.sum(axis=0), atol=1e-6)

    def test_attribute_order_bit_invariance(self, catalog):
        config = cfg("camf")
        store = models.init_params(config, 9)
        shuffled = corpus.AttributeCatalog(
            tc.Ragged.from_rows([ids[::-1] for ids in rows_of(catalog.user_attrs)]),
            tc.Ragged.from_rows([np.roll(ids, 1) for ids in rows_of(catalog.item_attrs)]),
            catalog.user_vocab_size,
            catalog.item_vocab_size,
        )
        users = [0, 1, 2, 3, 4, 5]
        items = [6, 5, 4, 3, 2, 1]
        a = scores_for(config, store, users, items, catalog)
        b = scores_for(config, store, users, items, shuffled)
        assert np.array_equal(a, b)

    def test_hand_set_tiny_instance(self):
        config = cfg("camf", num_users=1, num_items=1, factors=2, mlp_layers=(2,),
                     user_vocab_size=1, item_vocab_size=1)
        catalog = corpus.AttributeCatalog(tc.Ragged.from_rows([[0]]), tc.Ragged.from_rows([[0]]), 1, 1)
        store = models.init_params(config, 0)
        store.set_value("user_emb", [[1.0, 0.0]])
        store.set_value("item_emb", [[0.0, 1.0]])
        store.set_value("user_attr_emb", [[1.0, 1.0]])
        store.set_value("item_attr_emb", [[2.0, 0.0]])
        store.set_value("u_shared", [[4.0, 4.0]])
        store.set_value("gate_w", np.zeros((8, 1)))     # alpha = 0.5
        store.set_value("gate_b", [[0.0]])
        store.set_value("h0_w", np.eye(6, 2))
        store.set_value("h0_b", [[0.0, 0.0]])
        store.set_value("out_w", [[1.0], [1.0]])
        store.set_value("out_b", [[0.0]])
        # merged = 0.5*[4,4] + 0.5*[1,0] = [2.5, 2]
        # v1 = [0, 2]; v2 = [5, 0]; v3 = [0, 1]; concat -> [0,2,5,0,0,1]
        # h0 = relu(eye(6,2)^T x) = [x0, x1] = [0, 2]; out = 2 -> sigmoid(2)
        assert scores_for(config, store, [0], [0], catalog)[0] == pytest.approx(
            1.0 / (1.0 + math.exp(-2.0)), rel=1e-12
        )


# -- the parameter table -------------------------------------------------------

# The exact arena layout (and so the checkpoint bytes) at factors 4, 6 users,
# 7 items and attribute vocabularies of 3 and 4, written out by hand.


def _tower(width_in, layers):
    """(the golden h{k} entries over `width_in` input columns, the last width)."""
    if layers == (6,):
        return [("h0_w", (width_in, 6)), ("h0_b", (1, 6))], 6
    return [("h0_w", (width_in, 8)), ("h0_b", (1, 8)), ("h1_w", (8, 4)), ("h1_b", (1, 4)),
            ("h2_w", (4, 2)), ("h2_b", (1, 2))], 2


def _golden(kind, layers, cross):
    ids = [("user_emb", (6, 4)), ("item_emb", (7, 4))]
    attrs = [("user_attr_emb", (3, 4)), ("item_attr_emb", (4, 4))]
    if kind == "gmf":
        return ids + [("out_w", (4, 1)), ("out_b", (1, 1))]
    if kind == "neumf":
        tower, last = _tower(8, layers)
        return [("gmf_user_emb", (6, 4)), ("gmf_item_emb", (7, 4)), ("mlp_user_emb", (6, 4)),
                ("mlp_item_emb", (7, 4)), *tower,
                ("out_w_gmf", (4, 1)), ("out_w_mlp", (last, 1)), ("out_b", (1, 1))]
    if kind == "mlp":
        front, width_in = ids, 8
    elif kind == "aadcf":
        front, width_in = ids + attrs, 4
    else:
        front = ids + attrs + [("u_shared", (1, 4)), ("gate_w", (16, 1)), ("gate_b", (1, 1))]
        width_in = 16 if cross else 12
    tower, last = _tower(width_in, layers)
    return front + tower + [("out_w", (last, 1)), ("out_b", (1, 1))]


class TestParameterTable:
    @pytest.mark.parametrize("layers", [(6,), (8, 4, 2)], ids=["6", "8-4-2"])
    @pytest.mark.parametrize("kind, cross", [*((k, False) for k in models.KINDS), ("camf", True)],
                             ids=[*models.KINDS, "camf-cross"])
    def test_ordered_names_and_shapes(self, kind, cross, layers):
        config = cfg(kind, mlp_layers=layers, include_attr_cross=cross)
        golden = _golden(kind, layers, cross)
        assert models.parameter_shapes(config) == golden
        store = models.init_params(config, 3)
        assert [(name, store.shape(name)) for name in store.names()] == golden
        for name in store.names():
            assert (not store.value(name).any()) == name.endswith("_b"), name


# -- the config type ------------------------------------------------------------


class TestModelConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            cfg("gbdt")

    def test_empty_layers(self):
        with pytest.raises(ValueError):
            cfg("mlp", mlp_layers=())

    def test_attr_models_need_vocabularies(self):
        with pytest.raises(ValueError):
            cfg("camf", user_vocab_size=0)

    def test_factors_flexible_but_positive(self):
        assert cfg("gmf", factors=5).factors == 5
        with pytest.raises(ValueError):
            cfg("gmf", factors=0)


class TestScoresInUnitInterval:
    def test_all_kinds_all_pairs(self, catalog):
        users = np.arange(6).repeat(7)
        items = np.tile(np.arange(7), 6)
        for kind in models.KINDS:
            config = cfg(kind)
            for seed in (0, 1):
                store = models.init_params(config, seed)
                s = scores_for(config, store, users, items, catalog)
                assert np.all((s > 0.0) & (s < 1.0)), kind


class TestGatheredSides:
    @pytest.mark.parametrize("kind", models.KINDS)
    def test_gathered_rows_score_bitwise_as_built_ones(self, kind, catalog):
        # a training-shaped batch with repeats, against sides built once over every id
        config = cfg(kind, include_attr_cross=kind == "camf")
        store = models.init_params(config, 4)
        users, items = np.array([5, 0, 5, 2, 3]), np.array([6, 6, 0, 1, 4])
        sides = models.build_sides(tc.Tape(store, record=False), config, np.arange(6),
                                   np.arange(7), catalog)
        gathered = models.score(tc.Tape(store, record=False), config, users, items, catalog, sides)
        assert models.predictions(gathered).tobytes() == \
            scores_for(config, store, users, items, catalog).tobytes()

    def test_recording_tape_refused(self, catalog):
        config = cfg("gmf")
        store = models.init_params(config, 0)
        sides = models.build_sides(tc.Tape(store, record=False), config, np.arange(6), np.arange(7))
        with pytest.raises(tc.ShapeError, match="record=False"):
            models.score(tc.Tape(store), config, [0], [1], sides=sides)


class TestOpCount:
    # ops one training step records at factors 8 and layers 32-16-8; camf
    # recorded 21 while each relu stack layer was a dense op and a relu op
    MOST = {"gmf": 5, "mlp": 6, "neumf": 11, "aadcf": 10, "camf": 16}

    @pytest.mark.parametrize("kind", models.KINDS)
    def test_training_step_records_no_more_ops(self, kind, catalog):
        config = cfg(kind, factors=8, mlp_layers=(32, 16, 8))
        tape = tc.Tape(models.init_params(config, 0))
        node = models.score(tape, config, np.array([5, 0, 5, 2]), np.array([6, 6, 0, 1]), catalog)
        assert len(tape._ops) <= self.MOST[kind]
        tape.backward(node, np.ones((4, 1)))
