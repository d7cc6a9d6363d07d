import math
from pathlib import Path

import numpy as np
import pytest
from conftest import gradients

from crossrec import models
from crossrec import tensorcore as tc


def make_store(**tables):
    return tc.ParameterStore(list(tables.items()))


# -- initialization ----------------------------------------------------------


class TestSeededRng:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3])
    @pytest.mark.parametrize("tags", [(), ("split", 7), ("epoch", 2**32), ("init", "user_emb"), (2**40 + 9, 0)])
    def test_stream_is_seedsequence_of_the_list(self, seed, tags):
        # SeedSequence's own coercion of [seed, *tags], str tags spelled as their bytes
        entropy = [seed]
        for tag in tags:
            entropy.extend(tag.encode("utf-8") if isinstance(tag, str) else [tag])
        want = np.random.default_rng(entropy)
        got = tc.seeded_rng(seed, *tags)
        assert np.array_equal(got.integers(2**62, size=8), want.integers(2**62, size=8))
        assert np.array_equal(got.choice(500, 99, replace=False), want.choice(500, 99, replace=False))

    @pytest.mark.parametrize("args", [(-1,), (0, -1), (3, "split", -(2**33))])
    def test_negative_seed_or_tag_rejected(self, args):
        with pytest.raises(ValueError, match="non-negative"):
            tc.seeded_rng(*args)


class TestDecimalInt:
    @pytest.mark.parametrize("text, bits, signed, value", [
        ("0", 64, True, 0), ("-0", 64, True, 0), ("007", 64, True, 7),
        ("0" * 5000 + "7", 64, True, 7),                     # leading zeros are not digits of the value
        (str(2**63 - 1), 64, True, 2**63 - 1), (str(-2**63), 64, True, -2**63),
        (str(2**64 - 1), 64, False, 2**64 - 1), (str(2**64 + 3), 128, True, 2**64 + 3),
    ])
    def test_value(self, text, bits, signed, value):
        assert tc.decimal_int(text, bits, signed) == value

    @pytest.mark.parametrize("text, bits, signed, message", [
        ("", 64, True, "is not an integer"), ("-", 64, True, "is not an integer"),
        ("+1", 64, True, "is not an integer"), ("1_0", 64, True, "is not an integer"),
        (" 1", 64, True, "is not an integer"), ("\u0661", 64, True, "is not an integer"),
        ("-1", 64, False, "is not an integer"), ("--1", 64, True, "is not an integer"),
        (str(2**63), 64, True, "does not fit in 64 bits"), (str(-2**63 - 1), 64, True, "does not fit in 64 bits"),
        (str(2**64), 64, False, "does not fit in 64 bits"),
        ("9" * 5000, 64, True, "does not fit in 64 bits"), ("-" + "9" * 5000, 128, True, "does not fit in 128 bits"),
    ])
    def test_refused(self, text, bits, signed, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            tc.decimal_int(text, bits, signed)


class TestGaussianInit:
    def test_sample_statistics_across_seeds(self):
        means, stds = [], []
        for seed in range(10):
            store = tc.ParameterStore([("table", tc.gaussian_init("table", (100, 100), seed))])
            means.append(float(store.value("table").mean()))
            stds.append(float(store.value("table").std()))
        assert abs(np.mean(means)) < 0.0005
        assert 0.0095 < np.mean(stds) < 0.0105

    def test_biases_all_zero(self):
        config = models.ModelConfig("neumf", num_users=3, num_items=4, factors=2)
        store = models.init_params(config, 0)
        biases = [name for name in store.names() if name.endswith("_b")]
        assert biases and not any(store.value(name).any() for name in biases)

    def test_same_seed_bit_equal(self):
        stores = []
        for _ in range(2):
            stores.append(tc.ParameterStore([("w", tc.gaussian_init("w", (50, 8), 1234)),
                                             ("u", tc.gaussian_init("u", (20, 8), 1234))]))
        assert np.array_equal(stores[0].value("w"), stores[1].value("w"))
        assert np.array_equal(stores[0].value("u"), stores[1].value("u"))

    def test_moment_buffers_zero_and_congruent(self):
        store = tc.ParameterStore([("w", tc.gaussian_init("w", (5, 3), 0))])
        m, v = store.moments("w")
        assert m.shape == v.shape == (5, 3)
        assert not m.any() and not v.any()

    def test_duplicate_name_rejected(self):
        with pytest.raises(tc.ShapeError, match="duplicate"):
            tc.ParameterStore([("w", np.zeros((2, 2))), ("b", np.zeros((1, 2))),
                               ("w", np.zeros((2, 2)))])

    @pytest.mark.parametrize("params", [
        [("w", np.zeros((2, 2))), ("has space", np.zeros((1, 2)))],
        [("w", np.zeros((2, 2))), ("flat", np.zeros(3))],
    ], ids=["whitespace", "not-2d"])
    def test_malformed_entry_rejected(self, params):
        with pytest.raises(tc.ShapeError):
            tc.ParameterStore(params)

    def test_one_arena_in_list_order(self):
        w, b = tc.gaussian_init("w", (50, 8), 7), np.full((1, 8), 2.0, dtype=np.float32)
        store = tc.ParameterStore([("w", w), ("b", b)])
        assert store.names() == ["w", "b"]
        assert store._value.tobytes() == w.tobytes() + b.tobytes()
        assert not store._m.any() and not store._v.any() and store.step == 0


# -- primitive forwards and backwards ----------------------------------------


class TestPrimitives:
    def test_hadamard_definition(self):
        store = make_store(a=[[1.0, 2.0]], b=[[3.0, 4.0]])
        t = tc.Tape(store)
        out = t.hadamard(t.param("a"), t.param("b"))
        assert out.value.tolist() == [[3.0, 8.0]]

    def test_sigmoid_zero_and_slope(self):
        store = make_store(x=[[0.0]])
        t = tc.Tape(store)
        out = t.sigmoid(t.param("x"))
        assert out.value[0, 0] == 0.5
        grads = t.backward(out, np.ones((1, 1)))
        assert grads.as_dense("x")[0, 0] == 0.25

    def test_sigmoid_bitwise_equals_two_branch_form(self):
        def two_branch(v):
            out = np.empty_like(v)
            pos = v >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
            ev = np.exp(v[~pos])
            out[~pos] = ev / (1.0 + ev)
            return out

        rng = np.random.default_rng(5)
        draws = [rng.normal(0.0, scale, 100_000) for scale in (1e-3, 0.1, 1.0, 30.0, 800.0)]
        v = np.concatenate([[0.0, -0.0, 750.0, -750.0, np.nan, -np.nan], *draws]).reshape(-1, 2)
        got = tc.Tape(make_store(), record=False).sigmoid(tc.Node(v)).value
        assert got[:2].ravel().tolist() == [0.5, 0.5, 1.0, 0.0]
        assert np.isnan(got[2]).all()  # a NaN stays NaN (its sign bit may not)
        assert got[3:].tobytes() == two_branch(v[3:]).tobytes()

    def test_relu_forward_and_subgradient(self):
        store = make_store(x=[[-1.0, 0.0, 2.0]])
        t = tc.Tape(store)
        out = t.relu(t.param("x"))
        assert out.value.tolist() == [[0.0, 0.0, 2.0]]
        grads = t.backward(out, np.ones((1, 3)))
        assert grads.as_dense("x").tolist() == [[0.0, 0.0, 1.0]]

    def test_embed_sum_duplicate_id(self):
        table = np.array([[0.5, -1.0], [2.0, 3.0]])
        store = make_store(emb=table)
        t = tc.Tape(store)
        out = t.embed_sum("emb", tc.Ragged.from_rows([[1, 1]]), [0])
        assert np.allclose(out.value, 2 * table[1])
        grads = t.backward(out, np.ones((1, 2)))
        assert grads.index.tolist() == [2, 3]   # row 1's cells, once
        assert grads.g.tolist() == [2.0, 2.0]

    def test_embed_sum_duplicate_matches_finite_differences(self):
        # weighted scalar f(table) = c . embed_sum([t, t]) checked element-wise
        rng = np.random.default_rng(0)
        base = rng.normal(0, 1, (2, 3)).astype(np.float32)
        c = rng.normal(0, 1, (1, 3))
        store = make_store(emb=base)
        twice = tc.Ragged.from_rows([[1, 1]])

        def f():
            t = tc.Tape(store, record=False)
            return float((t.embed_sum("emb", twice, [0]).value * c).sum())

        t = tc.Tape(store)
        out = t.embed_sum("emb", twice, [0])
        grads = t.backward(out, c)
        assert grads.index.tolist() == [3, 4, 5]   # row 1's cells only
        analytic = grads.g
        h = 1e-3
        table = store.value("emb")
        for j in range(3):
            keep = table[1, j]
            table[1, j] = np.float32(float(keep) + h)
            hi_x, hi = np.float64(table[1, j]), f()
            table[1, j] = np.float32(float(keep) - h)
            lo_x, lo = np.float64(table[1, j]), f()
            table[1, j] = keep
            numeric = (hi - lo) / (hi_x - lo_x)
            assert abs(numeric - analytic[j]) < 1e-6 * max(1.0, abs(numeric))

    def test_embed_sum_single_id_equals_lookup(self):
        rng = np.random.default_rng(3)
        store = make_store(emb=rng.normal(0, 1, (6, 4)))
        t = tc.Tape(store, record=False)
        a = t.embed_sum("emb", tc.Ragged.from_rows([[4]]), [0]).value
        b = t.embed_lookup("emb", [4]).value
        assert np.array_equal(a, b)

    def test_embed_sum_order_invariant_bitwise(self):
        # from_rows sorts each row, so rows given in any order sum alike
        rng = np.random.default_rng(4)
        store = make_store(emb=rng.normal(0, 1, (9, 5)))
        t = tc.Tape(store, record=False)
        ragged = tc.Ragged.from_rows([[2, 7, 5, 0], [0, 5, 7, 2]])
        assert ragged[0].tolist() == ragged[1].tolist() == [0, 2, 5, 7]
        fwd, rev = t.embed_sum("emb", ragged, [0, 1]).value
        assert fwd.tobytes() == rev.tobytes()

    def test_concat_roundtrip_gradient(self):
        store = make_store(a=[[1.0, 2.0]], b=[[3.0]])
        t = tc.Tape(store)
        out = t.concat([t.param("a"), t.param("b")])
        assert out.value.tolist() == [[1.0, 2.0, 3.0]]
        grads = t.backward(out, np.array([[10.0, 20.0, 30.0]]))
        assert grads.as_dense("a").tolist() == [[10.0, 20.0]]
        assert grads.as_dense("b").tolist() == [[30.0]]

    def test_dense_gradients_match_by_hand(self):
        store = make_store(w=[[1.0, -2.0], [0.5, 4.0]], b=[[0.25, -0.5]])
        x = np.array([[2.0, -1.0]])
        t = tc.Tape(store)
        xn = tc.Node(x.copy())
        out = t.dense(xn, "w", "b")
        # [2*1 + (-1)*0.5 + 0.25, 2*(-2) + (-1)*4 - 0.5]
        assert out.value.tolist() == [[1.75, -8.5]]
        g = np.array([[1.0, 3.0]])
        grads = t.backward(out, g)
        assert grads.as_dense("w").tolist() == [[2.0, 6.0], [-1.0, -3.0]]   # x^T g
        assert grads.as_dense("b").tolist() == [[1.0, 3.0]]
        assert xn.grad.tolist() == [[-5.0, 12.5]]                        # g W^T

    def test_shape_contract_violations(self):
        store = make_store(w=[[1.0], [2.0]], emb=[[1.0, 2.0]])
        t = tc.Tape(store)
        with pytest.raises(tc.ShapeError):
            t.dense(tc.Node(np.ones((1, 3))), "w")
        with pytest.raises(tc.ShapeError):
            t.embed_lookup("emb", [3])
        with pytest.raises(tc.ShapeError):
            t.hadamard(tc.Node(np.ones((1, 2))), tc.Node(np.ones((1, 3))))
        out = t.dense(tc.Node(np.ones((3, 2))), "w")
        with pytest.raises(tc.ShapeError, match=r"seed gradient shape \(1, 3\) != output \(3, 1\)"):
            t.backward(out, np.ones((1, 3)))
        with pytest.raises(tc.ShapeError, match="non-recording tape"):
            tc.Tape(store, record=False).backward(out, np.ones((3, 1)))

    def test_forward_purity_bit_identical(self):
        rng = np.random.default_rng(9)
        store = make_store(w=rng.normal(0, 1, (4, 3)), b=np.zeros((1, 3)))
        x = rng.normal(0, 1, (5, 4))
        runs = []
        for _ in range(2):
            t = tc.Tape(store, record=False)
            runs.append(t.sigmoid(t.dense(tc.Node(x.copy()), "w", "b")).value)
        assert np.array_equal(runs[0], runs[1])


# -- Adam ---------------------------------------------------------------------


class TestAdam:
    def test_first_step_hand_derived(self):
        # m1 = 0.1*0.5, v1 = 0.001*0.25; bias-corrected m=0.5, v=0.25
        # step = -lr * 0.5 / (sqrt(0.25) + 1e-8)
        store = make_store(p=[[0.0]])
        grads = gradients(store, dense={"p": np.array([[0.5]])})
        tc.adam_step(store, grads, lr=0.001)
        expected = -0.001 * 0.5 / (math.sqrt(0.25) + 1e-8)
        assert abs(float(store.value("p")[0, 0]) - expected) < 1e-9
        assert store.step == 1

    def test_moment_accumulation_across_steps(self):
        # With a constant gradient, bias correction gives mhat = g and
        # vhat = g^2 at every t, so steps 1 and 2 coincide exactly. The
        # moment memory shows once the gradient changes: a zero-gradient
        # third step still moves the parameter.
        store = make_store(p=[[0.0]])
        for _ in range(2):
            g = gradients(store, dense={"p": np.array([[0.5]])})
            tc.adam_step(store, g, lr=0.001)
        after_two = float(store.value("p")[0, 0])
        per_step = -0.001 * 0.5 / (math.sqrt(0.25) + 1e-8)
        assert abs(after_two - 2 * per_step) < 1e-9

        g = gradients(store, dense={"p": np.array([[0.0]])})
        tc.adam_step(store, g, lr=0.001)
        third = float(store.value("p")[0, 0]) - after_two
        # hand-evaluated: m3 = 0.9*0.095, v3 = 0.999*(0.999*0.00025 + 0.00025)
        m3 = 0.9 * (0.9 * 0.05 + 0.1 * 0.5)
        v3 = 0.999 * (0.999 * 0.00025 + 0.001 * 0.25)
        expected = -0.001 * (m3 / (1 - 0.9 ** 3)) / (math.sqrt(v3 / (1 - 0.999 ** 3)) + 1e-8)
        assert third != 0.0
        assert abs(third - expected) < 1e-9
        assert store.step == 3

    def test_absent_parameter_untouched(self):
        store = make_store(p=[[1.0]], q=[[2.0]])
        grads = gradients(store, dense={"p": np.array([[0.5]])})
        tc.adam_step(store, grads)
        assert float(store.value("q")[0, 0]) == 2.0
        m, v = store.moments("q")
        assert not m.any() and not v.any()

    def test_lazy_rows_skip_untouched_moments(self):
        rng = np.random.default_rng(2)
        store = make_store(emb=rng.normal(0, 1, (10, 4)))
        before = store.value("emb").copy()
        grads = gradients(store, rows={"emb": (np.array([3, 7]), np.ones((2, 4)))})
        tc.adam_step(store, grads)
        changed = np.abs(store.value("emb") - before).max(axis=1) > 0
        assert changed.tolist() == [u in (3, 7) for u in range(10)]
        m, _ = store.moments("emb")
        assert not m[[0, 1, 2, 4, 5, 6, 8, 9]].any() and m[[3, 7]].all()

    def test_non_finite_gradient_raises(self):
        store = make_store(p=[[0.0]])
        grads = gradients(store, dense={"p": np.array([[np.nan]])})
        with pytest.raises(tc.NumericsError, match="'p'"):
            tc.adam_step(store, grads)

    def test_dense_and_row_gradient_for_one_name_rejected(self):
        store = make_store(emb=np.zeros((3, 2)))
        with pytest.raises(tc.ShapeError, match="'emb'"):
            tc.adam_step(store, gradients(
                store, dense={"emb": np.ones((3, 2))}, rows={"emb": (np.array([1]), np.ones((1, 2)))}
            ))
        assert store.step == 0 and not store.value("emb").any()

    def test_buffer_of_another_store_rejected_both_untouched(self):
        store, other = make_store(p=[[1.0]], q=[[2.0]]), make_store(p=[[1.0]], q=[[2.0]])
        before = arena_state(store)
        grads = gradients(other, dense={"p": np.array([[0.5]])})
        with pytest.raises(tc.ShapeError, match="another parameter store"):
            tc.adam_step(store, grads)
        assert arena_state(store) == arena_state(other) == before


def reference_adam(params, step, dense, rows, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-parameter Adam loop the arena replaced; params maps name -> (value, m, v),
    dense and rows hold the gradients conftest.gradients takes."""
    t = step + 1
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t

    def apply(value, m, v, g):
        m64 = beta1 * m.astype(np.float64) + (1.0 - beta1) * g
        v64 = beta2 * v.astype(np.float64) + (1.0 - beta2) * g * g
        step = lr * (m64 / c1) / (np.sqrt(v64 / c2) + eps)
        return (
            (value.astype(np.float64) - step).astype(np.float32),
            m64.astype(np.float32),
            v64.astype(np.float32),
        )

    for name in sorted(dense.keys() | rows.keys()):
        value, m, v = params[name]
        ids, g = (Ellipsis, dense[name]) if name in dense else rows[name]
        value[ids], m[ids], v[ids] = apply(value[ids], m[ids], v[ids], g)
    return t


def arena_state(store):
    return {name: tuple(a.tobytes() for a in (store.value(name), *store.moments(name)))
            for name in store.names()} | {"step": store.step}


class TestAdamArena:
    SHAPES = {"emb": (9, 4), "w": (4, 3), "b": (1, 3), "items": (6, 2), "idle": (2, 2)}

    def _store(self, rng):
        return make_store(**{name: rng.normal(0, 1, shape) for name, shape in self.SHAPES.items()})

    def _grads(self, rng, step):
        """(dense, rows) gradient dicts for conftest.gradients."""
        # magnitudes over 16 decades, signed zeros, and both row tables as dense or rows by turn
        def values(shape):
            g = rng.normal(0, 1, shape) * 10.0 ** rng.integers(-8, 8, shape)
            g[rng.random(shape) < 0.1] = -0.0
            return g

        dense, rows = {"w": values((4, 3)), "b": values((1, 3))}, {}
        for name in ("emb", "items"):
            count, cols = self.SHAPES[name]
            if (step + len(name)) % 3 == 0:
                dense[name] = values((count, cols))
            else:
                ids = np.sort(rng.choice(count, size=int(rng.integers(1, count)), replace=False))
                rows[name] = (ids, values((ids.size, cols)))
        return dense, rows

    def test_matches_per_parameter_reference_bitwise(self):
        rng = np.random.default_rng(31)
        store = self._store(rng)
        params = {name: tuple(a.copy() for a in (store.value(name), *store.moments(name)))
                  for name in store.names()}
        step = 0
        for k in range(5):
            dense, rows = self._grads(rng, k)
            grads = gradients(store, dense=dense, rows=rows)
            assert grads.names() == sorted(dense.keys() | rows.keys()) and "idle" not in grads.names()
            tc.adam_step(store, grads, lr=0.01)
            step = reference_adam(params, step, dense, rows, lr=0.01)
            assert store.step == step
            for name, arrays in params.items():
                got = (store.value(name), *store.moments(name))
                assert [a.tobytes() for a in got] == [a.tobytes() for a in arrays], (k, name)

    @pytest.mark.parametrize("name", ["b", "emb", "items", "w"])
    def test_non_finite_gradient_names_its_parameter(self, name):
        rng = np.random.default_rng(33)
        store = self._store(rng)
        before = arena_state(store)
        dense, rows = self._grads(rng, 1)
        g = dense[name] if name in dense else rows[name][1]
        g.flat[-1] = np.inf
        grads = gradients(store, dense=dense, rows=rows)
        with pytest.raises(tc.NumericsError, match=f"parameter '{name}'$"):
            tc.adam_step(store, grads)
        assert arena_state(store) == before


class TestNodeBump:
    def test_first_bump_turns_negative_zero_positive(self):
        node = tc.Node(np.ones((2, 3)))
        node.bump(np.full((2, 3), -0.0))
        assert not np.signbit(node.grad).any()

    def test_first_bump_does_not_alias_its_argument(self):
        node = tc.Node(np.ones((1, 2)))
        g = np.array([[1.0, 2.0]])
        node.bump(g)
        node.bump(g)
        assert g.tolist() == [[1.0, 2.0]] and node.grad.tolist() == [[2.0, 4.0]]


# -- segment sums ------------------------------------------------------------

# segment lengths with empty segments, a trailing one among them, a run of 8
# (where pairwise reduction would begin) and a run of 130 (past numpy's
# 128-element pairwise block)
SEGMENT_LENGTHS = [3, 0, 8, 1, 0, 130, 2, 0]


def _ragged_with_duplicates(rng, rows):
    """Id lists of SEGMENT_LENGTHS drawn with replacement, so ids repeat."""
    return [rng.integers(0, rows, n) for n in SEGMENT_LENGTHS]


def _add_at_oracle(values, segments, count):
    out = np.zeros((count, values.shape[1]))
    np.add.at(out, segments, values)
    return out


class TestSegmentSum:
    def _values(self, rng, n, d=5):
        # magnitudes spread over 16 decades, so any change of summation order shows
        return rng.normal(0, 1, (n, d)) * 10.0 ** rng.integers(-8, 8, (n, 1))

    @pytest.mark.parametrize("shuffle", [False, True], ids=["sorted", "unsorted"])
    def test_equals_add_at_bitwise(self, shuffle):
        rng = np.random.default_rng(21)
        count = len(SEGMENT_LENGTHS)
        segments = np.repeat(np.arange(count), SEGMENT_LENGTHS)
        if shuffle:
            segments = rng.permutation(segments)
        values = self._values(rng, segments.size)
        got = tc.segment_sum(values, segments, count)
        assert got.tobytes() == _add_at_oracle(values, segments, count).tobytes()

    @pytest.mark.parametrize("width", [1, 32])
    def test_any_width_equals_add_at_bitwise(self, width):
        # the flattened (segment, column) cells must not run into the next segment's
        rng = np.random.default_rng(24)
        count = len(SEGMENT_LENGTHS)
        segments = rng.permutation(np.repeat(np.arange(count), SEGMENT_LENGTHS))
        values = self._values(rng, segments.size, d=width)
        got = tc.segment_sum(values, segments, count)
        assert got.shape == (count, width)
        assert got.tobytes() == _add_at_oracle(values, segments, count).tobytes()

    def test_no_rows_gives_zeros(self):
        got = tc.segment_sum(np.empty((0, 3)), np.empty(0, dtype=np.int64), 4)
        assert got.shape == (4, 3) and got.dtype == np.float64 and not got.any()

    def test_embed_sum_and_its_gradient_equal_add_at_bitwise(self):
        rng = np.random.default_rng(22)
        table = self._values(rng, 40, d=4).astype(np.float32)
        store = make_store(emb=table)
        ragged = _ragged_with_duplicates(rng, 40)
        t = tc.Tape(store)
        out = t.embed_sum("emb", tc.Ragged.from_rows(ragged), np.arange(len(ragged)))
        gout = self._values(rng, len(ragged), d=4)
        grads = t.backward(out, gout)

        flat = np.concatenate(ragged)
        segments = np.repeat(np.arange(len(ragged)), SEGMENT_LENGTHS)
        order = np.lexsort((flat, segments))
        flat, segments = flat[order], segments[order]
        want = _add_at_oracle(table[flat].astype(np.float64), segments, len(ragged))
        assert out.value.tobytes() == want.tobytes()
        uniq, inverse = np.unique(flat, return_inverse=True)
        assert grads.index.tolist() == (uniq[:, None] * 4 + np.arange(4)).ravel().tolist()
        assert grads.g.tobytes() == _add_at_oracle(gout[segments], inverse, uniq.size).tobytes()

    @pytest.mark.parametrize("offsets, flat", [
        ([0, 2], [3, 1]),
        ([0, 2, 1, 2], [1, 2]),
        ([0, 3], [1, 2]),
        ([0, 1], [1, 2]),
        ([1, 2], [1, 2]),
        ([], []),
    ], ids=["ids-descending", "offsets-descending", "offsets-past-flat",
            "offsets-short-of-flat", "offsets-not-from-zero", "no-offsets"])
    def test_malformed_ragged_rejected(self, offsets, flat):
        with pytest.raises(tc.ShapeError):
            tc.Ragged(offsets, flat)

    @pytest.mark.parametrize("selector", [[-1], [0, 2]], ids=["negative", "past-the-end"])
    def test_embed_sum_selector_outside_rows_rejected(self, selector):
        # offsets[-1] would silently read the last row for a negative selector
        store = make_store(emb=np.ones((5, 2)))
        ragged = tc.Ragged.from_rows([[1], [2, 3]])
        with pytest.raises(tc.ShapeError):
            tc.Tape(store, record=False).embed_sum("emb", ragged, selector)

    def test_built_offsets_match_from_rows_bitwise(self):
        rng = np.random.default_rng(23)
        store = make_store(emb=self._values(rng, 40, d=4))
        rows = _ragged_with_duplicates(rng, 40)
        built = tc.Ragged(np.concatenate([[0], np.cumsum(SEGMENT_LENGTHS)]),
                          np.concatenate([np.sort(ids) for ids in rows]))
        everyone = np.arange(len(rows))
        t = tc.Tape(store, record=False)
        assert (t.embed_sum("emb", built, everyone).value.tobytes()
                == t.embed_sum("emb", tc.Ragged.from_rows(rows), everyone).value.tobytes())


class TestRagged:
    def test_rows_index_and_iterate_as_sorted_views(self):
        ragged = tc.Ragged.from_rows([[3, 1], [], (2,)])
        assert len(ragged) == 3
        assert [row.tolist() for row in ragged] == [[1, 3], [], [2]]
        assert ragged[0].base is not None and ragged[-1].tolist() == [2]
        with pytest.raises(IndexError):
            ragged[3]

    def test_gather_is_segment_then_id_order(self):
        ragged = tc.Ragged.from_rows([[4, 0], [7], [], [5, 2, 2]])
        flat, segments = ragged.gather([3, 0, 2, 3])
        assert flat.tolist() == [2, 2, 5, 0, 4, 2, 2, 5]
        assert segments.tolist() == [0, 0, 0, 1, 1, 3, 3, 3]


# -- row-gradient merge and the fused relu stack ------------------------------


def _reference_row_merge(chunks):
    """The per-table merge the arena merge replaced: for each table, its chunks'
    ids and gradients concatenated in op order, np.unique, then segment_sum."""
    merged = {}
    for name in dict.fromkeys(name for name, _, _ in chunks):
        ids = np.concatenate([ids for n, ids, _ in chunks if n == name])
        grads = np.concatenate([g for n, _, g in chunks if n == name], axis=0)
        uniq, inverse = np.unique(ids, return_inverse=True)
        merged[name] = (uniq, tc.segment_sum(grads, inverse, uniq.size))
    return merged


class TestArenaRowMerge:
    SHAPES = {"a": (7, 3), "dense": (2, 2), "b": (5, 3), "c": (9, 3), "d": (4, 3)}

    def _values(self, rng, shape):
        # magnitudes over 16 decades and signed zeros, so any change of order shows
        g = rng.normal(0, 1, shape) * 10.0 ** rng.integers(-8, 8, shape)
        g[rng.random(shape) < 0.2] = -0.0
        return g

    def _record(self, rng, tables):
        """A tape holding 6-10 row ops on `tables` in a random interleaved order,
        half lookups and half attribute sums, every op's gradient drawn here;
        returns (store, buffer, the chunks the ops produce in the order
        backward visits them, last op first)."""
        store = make_store(**{name: rng.normal(0, 1, self.SHAPES[name]) for name in (*tables, "dense")})
        t = tc.Tape(store)
        nodes, grads, chunks = [], [], []
        for name in rng.choice(tables, size=int(rng.integers(6, 11))):
            rows = self.SHAPES[name][0]
            if rng.random() < 0.5:
                ids = rng.integers(0, rows, int(rng.integers(1, 9)))  # duplicates likely
                nodes.append(t.embed_lookup(name, ids))
                grads.append(self._values(rng, (ids.size, 3)))
                chunks.append((name, ids, grads[-1]))
            else:
                ragged = tc.Ragged.from_rows([rng.integers(0, rows, int(rng.integers(0, 4))) for _ in range(5)])
                selector = rng.integers(0, 5, 4)
                nodes.append(t.embed_sum(name, ragged, selector))
                grads.append(self._values(rng, (4, 3)))
                flat, segments = ragged.gather(selector)
                chunks.append((name, flat, grads[-1][segments]))
        out = t.custom(np.zeros((1, 1)), nodes, lambda g: grads)
        return store, t.backward(out, np.ones((1, 1))), chunks[::-1]

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_equal_per_table_merge_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        tables = ["a", "b", "c", "d"][:2 + seed % 3]
        store, grads, chunks = self._record(rng, tables)
        want = _reference_row_merge(chunks)
        assert grads.names() == sorted(want)
        merged = gradients(store, rows=want)
        assert grads.index.tobytes() == merged.index.tobytes()
        assert grads.g.tobytes() == merged.g.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_prepared_apply_equals_checked_apply_bitwise(self, seed):
        rng = np.random.default_rng(40 + seed)
        store, grads, chunks = self._record(rng, ["a", "b", "c"])
        twin = make_store(**{name: store.value(name).copy() for name in store.names()})
        for step in range(2):
            tc.adam_step(store, grads)
            tc.adam_step(twin, gradients(twin, rows=_reference_row_merge(chunks)))
        assert arena_state(store) == arena_state(twin)

    def test_row_tables_of_two_widths_rejected(self):
        store = make_store(a=np.ones((3, 2)), b=np.ones((3, 4)))
        t = tc.Tape(store)
        out = t.concat([t.embed_lookup("a", [0]), t.embed_lookup("b", [1])])
        with pytest.raises(tc.ShapeError, match=r"widths \[2, 4\]"):
            t.backward(out, np.ones((1, 6)))

    def test_dense_and_row_read_of_one_table_rejected(self):
        store = make_store(emb=np.ones((3, 2)))
        t = tc.Tape(store)
        out = t.hadamard(t.embed_lookup("emb", [0, 1, 2]), t.param("emb"))
        with pytest.raises(tc.ShapeError, match="'emb'"):
            t.backward(out, np.ones((3, 2)))


def _stack_store(rng, widths, dead_units):
    """h{k}_w/h{k}_b for a stack of `widths` over 6 inputs; dead_units[k] lists
    the units of layer k that are dead for every input."""
    params, width_in = {}, 6
    for k, width in enumerate(widths):
        params[f"h{k}_w"] = rng.normal(0, 1, (width_in, width))
        params[f"h{k}_b"] = rng.normal(0, 1, (1, width))
        params[f"h{k}_b"][0, dead_units.get(k, [])] = -100.0
        width_in = width
    params[f"h{len(widths) - 1}_b"][:] = 100.0   # the width-1 output unit fires for every row
    return make_store(**params)


class _Operands(np.ndarray):
    """A stack input that logs the other operand of every matmul it enters.

    Numpy's matmul and sums add from +0.0, so the sign of a zero gradient
    entry never reaches their results on this BLAS; the log shows the
    gradient a layer's weight product is handed, signed zeros included.
    """

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _Operands) else x for x in inputs]
        if ufunc is np.matmul:
            self.log.append(plain[1].tobytes())
        return getattr(ufunc, method)(*plain, **kwargs)


class TestFusedMlp:
    WIDTHS = (8, 5, 1)
    LAYERS = [(f"h{k}_w", f"h{k}_b") for k in range(len(WIDTHS))]

    def _run(self, store, x, seed_grad, fused):
        """(value, input gradient, gradient buffer, matmul operand log) of the stack."""
        t = tc.Tape(store)
        xn = t.custom(x.copy().view(_Operands), (), lambda g: ())
        xn.value.log = []
        if fused:
            out = t.mlp(xn, self.LAYERS)
        else:
            out = xn
            for w, b in self.LAYERS:
                out = t.relu(t.dense(out, w, b))
        grads = t.backward(out, seed_grad)
        return out.value, xn.grad, grads, xn.value.log

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_dense_relu_chain_bitwise(self, seed):
        rng = np.random.default_rng(50 + seed)
        store = _stack_store(rng, self.WIDTHS, {0: [1, 6], 1: [2]})
        x = rng.normal(0, 1, (9, 6))
        x[rng.random(x.shape) < 0.2] = -0.0
        seed_grad = rng.normal(0, 1, (9, 1))
        fused, chain = self._run(store, x, seed_grad, True), self._run(store, x, seed_grad, False)
        assert fused[0].tobytes() == chain[0].tobytes()
        assert fused[1].tobytes() == chain[1].tobytes()
        assert fused[2].names() == chain[2].names() == sorted(name for pair in self.LAYERS for name in pair)
        assert fused[2].index.tobytes() == chain[2].index.tobytes()   # cells in the same order
        for name in fused[2].names():
            assert fused[2].as_dense(name).tobytes() == chain[2].as_dense(name).tobytes(), name
        # forward: h @ W; backward: h.T @ g, g the first layer's masked gradient, zeros all +0.0
        assert len(fused[3]) == len(chain[3]) == 2 and fused[3] == chain[3]
        g = np.frombuffer(fused[3][1]).reshape(9, 8)
        assert not g[:, [1, 6]].any() and not np.signbit(g[:, [1, 6]]).any()
        assert not fused[2].as_dense("h1_b")[0, 2] and not np.signbit(fused[2].as_dense("h1_b")[0, 2])

    def test_value_only_forward_equals_chain_bitwise(self):
        rng = np.random.default_rng(60)
        store = _stack_store(rng, self.WIDTHS, {1: [0]})
        x = tc.Node(rng.normal(0, 1, (9, 6)))
        t = tc.Tape(store, record=False)
        chain = x
        for w, b in self.LAYERS:
            chain = t.relu(t.dense(chain, w, b))
        assert t.mlp(x, self.LAYERS).value.tobytes() == chain.value.tobytes()
        assert not t._ops


# -- checkpoints ---------------------------------------------------------------


class TestCheckpoints:
    def _trained_store(self):
        rng = np.random.default_rng(11)
        store = make_store(
            emb=rng.normal(0, 0.01, (7, 4)),
            w=rng.normal(0, 0.01, (4, 1)),
            b=np.zeros((1, 1)),
        )
        for _ in range(3):
            grads = gradients(
                store, dense={"w": rng.normal(0, 1, (4, 1)), "b": rng.normal(0, 1, (1, 1))},
                rows={"emb": (np.array([1, 5]), rng.normal(0, 1, (2, 4)))},
            )
            tc.adam_step(store, grads)
        return store

    def test_round_trip_bit_exact(self, tmp_path):
        store = self._trained_store()
        path = str(tmp_path / "model.ckpt")
        tc.save_checkpoint(path, store, {"model": "gmf", "factors": "4"})
        loaded, header = tc.load_checkpoint(path)
        assert header == {"model": "gmf", "factors": "4"}
        assert loaded.step == store.step
        assert loaded.names() == store.names()
        for name in store.names():
            assert np.array_equal(loaded.value(name), store.value(name))
            for a, b in zip(loaded.moments(name), store.moments(name)):
                assert np.array_equal(a, b)

    def test_loaded_arena_bitwise_equal(self, tmp_path):
        # a camf store after Adam steps, with signed zeros and a NaN planted
        config = models.ModelConfig("camf", num_users=9, num_items=11, factors=4,
                                    user_vocab_size=3, item_vocab_size=5)
        store = models.init_params(config, 3)
        rng = np.random.default_rng(12)
        for _ in range(2):
            tc.adam_step(store, gradients(store, dense={
                name: rng.normal(0, 1, store.shape(name)) for name in store.names()}))
        store.value("gate_w")[0, 0] = -0.0
        store.moments("out_w")[0][1, 0] = np.nan
        path = str(tmp_path / "camf.ckpt")
        tc.save_checkpoint(path, store, {})
        loaded, _ = tc.load_checkpoint(path)
        assert loaded.step == store.step == 2
        assert loaded.names() == store.names()
        assert loaded._layout == store._layout
        for buffer in ("_value", "_m", "_v"):
            assert getattr(loaded, buffer).tobytes() == getattr(store, buffer).tobytes()

    def test_payload_is_the_three_arenas(self, tmp_path):
        store = self._trained_store()
        path = str(tmp_path / "model.ckpt")
        tc.save_checkpoint(path, store, {"seed": "11"})
        blob = Path(path).read_bytes()
        payload = store._value.tobytes() + store._m.tobytes() + store._v.tobytes()
        manifest = blob[:-len(payload)].decode("utf-8").splitlines()
        assert blob.endswith(payload) and manifest[-1] == f"data {len(payload)}"
        assert manifest[:3] == ["CROSSREC-CKPT 2", "meta seed 11", "step 3"]
        assert manifest[3:6] == ["param emb 7 4", "param w 4 1", "param b 1 1"]

    def test_names_ending_like_moments_round_trip(self, tmp_path):
        # the manifest names parameters only, so "w.m" is a name like any other
        store = make_store(**{"w": [[1.0, 2.0]], "w.m": [[3.0]], "w.v": [[4.0], [5.0]]})
        store.moments("w")[0][...] = 7.0
        path = str(tmp_path / "dotted.ckpt")
        tc.save_checkpoint(path, store, {})
        loaded, _ = tc.load_checkpoint(path)
        assert loaded._layout == store._layout
        for buffer in ("_value", "_m", "_v"):
            assert getattr(loaded, buffer).tobytes() == getattr(store, buffer).tobytes()

    def test_serialized_bytes_deterministic(self, tmp_path):
        blobs = []
        for run in range(2):
            path = str(tmp_path / f"m{run}.ckpt")
            tc.save_checkpoint(path, self._trained_store(), {"seed": "11"})
            blobs.append(Path(path).read_bytes())
        assert blobs[0] == blobs[1]

    def test_resume_continues_identically(self, tmp_path):
        # moments travel with the checkpoint, so the next step matches exactly
        path = str(tmp_path / "resume.ckpt")
        store = self._trained_store()
        tc.save_checkpoint(path, store, {})
        loaded, _ = tc.load_checkpoint(path)
        tc.adam_step(store, gradients(store, dense={"w": np.full((4, 1), 0.25)}))
        tc.adam_step(loaded, gradients(loaded, dense={"w": np.full((4, 1), 0.25)}))
        assert np.array_equal(store.value("w"), loaded.value("w"))
