"""Dense numeric primitives with explicit backward rules.

Parameters live in a ParameterStore: one flat float32 arena of values and
two of Adam moments, with each parameter a 2-D view into them, so adam_step
updates every parameter a batch touched with a single vectorised apply.
Forward evaluation casts to float64 and a Tape records each primitive so
gradients can be replayed in reverse. A gradient has one form, the
GradientBuffer Tape.backward returns and adam_step applies: distinct arena
cells and their float64 gradients. Embedding gradients stay sparse, so
only the rows a batch read (every table merged at once) have cells there
and Adam never touches the others. Every op but the leaf reads records
through Tape._op; Tape.dense and Tape.mlp share one layer routine, so a
relu stack is one op.

Rows of a 2-D array are gathered with a.take(ids, axis=0), here and in
models: it copies the same rows as a[ids], but numpy's fancy indexing has
a per-call and per-row cost that, for the factors-wide rows of every step,
is several times the copy's (about 11 against 2 us for 768 rows of a
(30, 8) table on numpy 2.4). A batch's 1-D gathers keep a[ids]; adam_step
takes its thousands of cells with .take. The step path calls ndarray
methods (take, repeat, cumsum, nonzero) where the numpy function is a
Python wrapper that only forwards to the method, about 1 us a call.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import zlib

import numpy as np

INIT_STD = 0.01
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # the experiment fixes them; lr is a flag

CHECKPOINT_MAGIC = "CROSSREC-CKPT 2"

_HALF_BUFFER = np.getbufsize() // 2  # elements; see _span


class ShapeError(ValueError):
    """Shape or index contract violation (a programming error, not bad data)."""


class NumericsError(ArithmeticError):
    """Non-finite value where a finite one is required."""


def seeded_rng(seed, *tags):
    """Generator derived from (seed, tags); tags keep parallel streams disjoint.

    Seeded with numpy's SeedSequence of the list [seed, *tags], a str tag
    spelled as its UTF-8 bytes; a negative entry raises its ValueError."""
    entropy = [int(seed)]
    for tag in tags:
        entropy.extend(tag.encode("utf-8") if isinstance(tag, str) else [int(tag)])
    return np.random.default_rng(entropy)


def gaussian_init(name, shape, seed):
    """A float32 weight drawn i.i.d. from N(0, INIT_STD^2), seeded per name."""
    rng = seeded_rng(seed, "init", name)
    return rng.normal(0.0, INIT_STD, size=shape).astype(np.float32)


class ParameterStore:
    """Named float32 matrices in one arena, with Adam moments and a step counter.

    Three flat float32 buffers hold every value and both moments; each
    parameter is a 2-D C-contiguous view into them at a recorded offset, so
    adam_step updates all parameters with one vectorised apply. Shapes are
    fixed at creation and every entry is 2-D; names must be unique and
    whitespace-free (they key the checkpoint manifest).
    """

    def __init__(self, params=()):
        """A store of the (name, 2-D array) pairs in `params`, laid out in that order.

        The arena is sized once from the whole list; moments start at zero.
        """
        params = [(name, np.asarray(value, dtype=np.float32)) for name, value in params]
        self._layout = {}       # name -> (offset, shape), in insertion order
        total = 0
        for name, value in params:
            if name in self._layout:
                raise ShapeError(f"duplicate parameter name {name!r}")
            if any(ch.isspace() for ch in name):
                raise ShapeError(f"parameter name {name!r} may not contain whitespace")
            if value.ndim != 2:
                raise ShapeError(f"parameter {name!r} must be 2-D, got {value.shape}")
            self._layout[name] = (total, value.shape)
            total += value.size
        self._cells = {}        # tuple of names -> cells(names)
        self._value = np.empty(total, dtype=np.float32)
        self._m = np.zeros(total, dtype=np.float32)
        self._v = np.zeros(total, dtype=np.float32)
        self._views = {         # name -> (value, m, v) views into the buffers
            name: tuple(buf[offset:offset + rows * cols].reshape(rows, cols)
                        for buf in (self._value, self._m, self._v))
            for name, (offset, (rows, cols)) in self._layout.items()
        }
        for name, value in params:
            self._views[name][0][...] = value
        self.step = 0

    def names(self):
        return list(self._layout)

    def shape(self, name):
        return self._layout[name][1]

    def value(self, name):
        """The live float32 view (mutations are visible to later forwards)."""
        return self._views[name][0]

    def moments(self, name):
        return self._views[name][1:]

    def cells(self, names):
        """The arena cells of every parameter in the tuple `names`, in that
        order: worked out once per tuple and shared, so never written to."""
        if names not in self._cells:
            self._cells[names] = np.concatenate([np.empty(0, dtype=np.int64)] + [
                np.arange(offset, offset + rows * cols, dtype=np.int64)
                for offset, (rows, cols) in map(self._layout.get, names)])
        return self._cells[names]

    def set_value(self, name, array):
        e = self.value(name)
        array = np.asarray(array, dtype=np.float32)
        if array.shape != e.shape:
            raise ShapeError(f"cannot assign shape {array.shape} to {name!r} {e.shape}")
        e[...] = array


class GradientBuffer:
    """Float64 gradients at distinct arena cells of one store: adam_step's input.

    g[k] is the gradient of cell index[k] of `store`; cells a batch left
    untouched (embedding rows it never read) are simply absent. Tape.backward
    is what builds one.
    """

    def __init__(self, store, index, g):
        self.store, self.index, self.g = store, index, g

    def names(self, cells=None):
        """Sorted names of the parameters owning `cells` (default: every cell)."""
        layout = list(self.store._layout.items())
        starts = [offset for _, (offset, _) in layout]
        owners = np.searchsorted(starts, self.index if cells is None else cells, side="right") - 1
        return sorted(layout[k][0] for k in np.flatnonzero(np.bincount(owners)).tolist())

    def as_dense(self, name):
        """The gradient of `name` at full parameter shape, zero at absent cells."""
        offset, shape = self.store._layout[name]
        full = np.zeros(shape, dtype=np.float64)
        mine = (self.index >= offset) & (self.index < offset + full.size)
        full.reshape(-1)[self.index[mine] - offset] = self.g[mine]
        return full


class Node:
    """A value in the computation, with a gradient slot filled during backward."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = value
        self.grad = None

    def bump(self, g):
        # g + 0.0 is a fresh array (concat passes views of its gradient) and
        # turns -0.0 into +0.0 exactly as adding g to zeros would
        if self.grad is None:
            self.grad = g + 0.0
        else:
            self.grad += g


def check_rows(ids, rows, name):
    """ShapeError unless every id indexes one of the `rows` rows of `name`."""
    if ids.size and (ids.min() < 0 or ids.max() >= rows):
        raise ShapeError(f"row id out of range for {name!r} ({rows} rows)")


def id_dtype(bound):
    """The narrowest dtype of ids in [0, bound): int16 up to 2**15, then int32 up to 2**31,
    else int64. Arithmetic that can pass the bound (a user * num_items key) widens first."""
    return np.int16 if bound <= 2**15 else np.int32 if bound <= 2**31 else np.int64


def _as_ids(ids):
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"id array must be 1-D, got shape {ids.shape}")
    return ids


class Ragged:
    """Rows of int64 ids in CSR form, ids ascending within each row.

    Row r is flat[offsets[r]:offsets[r + 1]]. The form is checked once, when
    built, and treated as immutable after, so its row lengths and the
    bounds of its ids (min_id, max_id; 0 and -1 with no ids) are worked out
    then too, and readers index and gather without checking it again.
    """

    __slots__ = ("offsets", "flat", "lengths", "min_id", "max_id")

    def __init__(self, offsets, flat):
        """ShapeError unless offsets run from 0 up to flat.size without
        decreasing and ids do not decrease within any row."""
        offsets, flat = _as_ids(offsets), _as_ids(flat)
        lengths = np.diff(offsets)
        if offsets[:1].tolist() != [0] or offsets[-1] != flat.size or (lengths < 0).any():
            raise ShapeError(f"offsets do not run from 0 up to {flat.size}")
        starts = np.zeros(flat.size + 1, dtype=bool)
        starts[offsets] = True
        if ((flat[1:] < flat[:-1]) & ~starts[1:-1]).any():
            raise ShapeError("ids are not sorted within each row")
        self.offsets, self.flat, self.lengths = offsets, flat, lengths
        self.min_id, self.max_id = (int(flat.min()), int(flat.max())) if flat.size else (0, -1)

    @classmethod
    def from_rows(cls, rows):
        """The id sequences in `rows`, each sorted here."""
        lengths = np.array([len(ids) for ids in rows], dtype=np.int64)
        flat = np.concatenate([np.empty(0, np.int64), *rows], dtype=np.int64, casting="unsafe")
        segments = np.repeat(np.arange(lengths.size), lengths)
        return cls(np.concatenate([[0], np.cumsum(lengths)]), flat[np.lexsort((flat, segments))])

    def __len__(self):
        return self.offsets.size - 1

    def gather(self, rows):
        """(ids, segments): the ids of the selected rows, segments[k] the
        position in `rows` that ids[k] came from, in (segment, id) order.

        ShapeError for a selector outside [0, len(self)).
        """
        rows = _as_ids(rows)
        check_rows(rows, len(self), "ragged")
        lengths = self.lengths[rows]
        segments = np.arange(rows.size, dtype=np.int64).repeat(lengths)
        shift = (self.offsets[rows] - (lengths.cumsum() - lengths))[segments]
        return self.flat[np.arange(segments.size, dtype=np.int64) + shift], segments


_COLUMNS = {}  # cols -> 0, 1, .., cols - 1 tiled over the most rows one _cells call has asked for


def _cells(rows, cols):
    """The flat cells rows[k] * cols + j of a (len(rows), cols) block, row by row: the rows
    repeated plus a column pattern, the integers of a broadcast add at about half its cost."""
    n = rows.size * cols
    pattern = _COLUMNS.get(cols)
    if pattern is None or pattern.size < n:
        pattern = _COLUMNS[cols] = np.tile(np.arange(cols, dtype=np.int64), rows.size)
    return (rows * cols).repeat(cols) + pattern[:n]


def segment_sum(values, segments, count):
    """Row sums per segment: out[s] = sum of values[i] over i with segments[i] == s.

    One np.bincount over the flattened (segment, column) cells: it adds
    each cell's values in row order starting from 0.0, the order of numpy's
    unbuffered add.at, so the bits match it whatever the segment lengths.
    (np.add.reduceat reduces runs of 8 or more pairwise and would not.)
    """
    cols = values.shape[1]
    out = np.bincount(_cells(segments, cols), weights=values.ravel(), minlength=count * cols)
    # with no cells at all bincount returns int64 zeros
    return out.astype(np.float64, copy=False).reshape(count, cols)


@functools.cache
def _span(rows, cols):
    """The least divisor t of `rows` with t * cols above half numpy's ufunc buffer, else rows.
    numpy copies a broadcast operand through that buffer when the broadcast rows are at most
    half its length, and runs wider ones directly: a (1600, 32) += (1, 32) bias add took
    22 us, and the same add viewed as (10, 5120) += (1, 5120) 10.7 us (numpy 2.4.6)."""
    return next((t for t in range(_HALF_BUFFER // cols + 1, rows) if rows % t == 0), rows)


def _row_sum(p):
    """p.sum(axis=1, keepdims=True), bit for bit, in the order Tape.dense writes out: whole-column
    adds at 8 columns (12 against numpy's 30 us at (1600, 8)), numpy's own sum at any other width."""
    if p.shape[1] != 8:
        return p.sum(axis=1, keepdims=True)
    c = [p[:, j] for j in range(8)]
    s = (c[0] + c[1]) + (c[2] + c[3])
    s += (c[4] + c[5]) + (c[6] + c[7])
    s += 0.0
    return s.reshape(-1, 1)


class Tape:
    """Records forward primitives for reverse-mode gradient accumulation.

    With record=False the same call surface computes values only, which is
    what evaluation uses. A tape is single-use: build one forward, call
    backward once. A tape that does not record may score many blocks: it
    keeps for its life each dense parameter's float64 copy and each bias
    and width-1 weight row tiled (see _spread), so later blocks skip the
    cast and add or multiply by those rows without numpy's per-row
    broadcast. So it must not outlive a change to the store;
    evaluation.evaluate makes one per pass.

    Row gradients are kept by arena row, the arena read as rows of the
    tables' width (so a recording tape reads a row table only if it starts
    at a multiple of its width, as every model's does), in the order
    backward reaches their ops. backward marks the rows read in a bool
    table, ranks them in ascending order, and one segment sum merges every
    table, each cell adding its terms as a merge per table would; no sort
    or search is involved. A tape's row tables share one width (`factors`).
    A dense gradient (param, dense, mlp) is set, not summed: no model reads
    one dense parameter twice in a step.
    """

    def __init__(self, store, record=True):
        self.store = store
        self.recording = record
        self._ops = []          # (node, backward_fn(gout)) in forward order
        self._dense_grads = {}
        self._row_chunks = []   # (table, arena rows read, their gradients)
        self.relu_masks = []    # each relu layer's y > 0 pattern, in forward order
        self._kept = {}         # not recording: name -> float64 copy of a dense parameter
        self._tiles = {}        # not recording: name -> its (1, n) row tiled, see _spread

    # -- leaf reads ------------------------------------------------------

    def _leaf_rows(self, node, name, ids, pick=None):
        """Record that row k of node's gradient (row pick[k], given `pick`) is row ids[k] of `name`'s:
        arena row offset // width + ids[k]. ShapeError unless the width is nonzero and divides offset."""
        offset, (_, cols) = self.store._layout[name]
        if not cols or offset % cols:
            raise ShapeError(f"row table {name!r} of width {cols} does not start on an arena row (cell {offset})")
        rows = offset // cols + ids
        self._ops.append((node, lambda g: self._row_chunks.append(
            (name, rows, g if pick is None else g.take(pick, axis=0)))))

    def _read(self, name):
        """`name`'s value as float64: a fresh copy, which a tape that does not record keeps."""
        value = self._kept.get(name)
        if value is None:
            value = self.store.value(name).astype(np.float64)
            if not self.recording:
                self._kept[name] = value
        return value

    def _spread(self, a, name, row):
        """(a, `name`'s (1, n) `row`) for an elementwise op applying `row` to each row of the
        (rows, n) C-contiguous `a`: as they are, to broadcast, on a recording tape; on one that
        does not, `a` viewed as (rows / t, t * n) and `row` tiled t = _span(rows, n) times, the
        tile kept by name. ValueError for an `a` that is not C-contiguous: its reshape would be
        a copy, and an in-place op through that would not write `a`."""
        if self.recording or not a.size:
            return a, row
        if not a.flags.c_contiguous:
            raise ValueError(f"{name!r} would be applied to a copy of a block that is not C-contiguous")
        t = _span(*a.shape)
        tile = self._tiles.get(name)
        if tile is None or tile.shape[0] < t:
            tile = self._tiles[name] = np.tile(row, (t, 1))
        return a.reshape(-1, t * a.shape[1]), tile[:t].reshape(1, -1)

    def param(self, name):
        """Read a full parameter matrix as a float64 leaf node."""
        node = Node(self._read(name))
        if self.recording:
            self._ops.append((node, lambda g: self._dense_grads.update({name: g})))
        return node

    # -- primitives ------------------------------------------------------

    def embed_lookup(self, name, ids):
        ids = _as_ids(ids)
        table = self.store.value(name)
        check_rows(ids, table.shape[0], name)
        node = Node(table.take(ids, axis=0).astype(np.float64))
        if self.recording:
            self._leaf_rows(node, name, ids)
        return node

    def embed_sum(self, name, ragged, ids):
        """Per-entity sum of table rows: output[b] sums the rows that row ids[b] of `ragged` lists.

        Ids are summed in the ascending order a Ragged keeps each row in, so
        the result does not depend on the order the rows were given in;
        duplicated ids contribute (and receive gradient) once per occurrence.
        ShapeError if any id `ragged` holds, selected or not, is not a row of
        the table: its bounds were found when it was built.
        """
        ids = _as_ids(ids)
        flat, segments = ragged.gather(ids)
        table = self.store.value(name)
        if ragged.min_id < 0 or ragged.max_id >= table.shape[0]:
            raise ShapeError(f"row id out of range for {name!r} ({table.shape[0]} rows)")
        node = Node(segment_sum(table.take(flat, axis=0).astype(np.float64), segments, ids.size))
        if self.recording:
            self._leaf_rows(node, name, flat, segments)
        return node

    def _op(self, value, parents, backward):
        """The node of `value`, an op with a caller-supplied rule: a recording tape records
        that, given the node's gradient g, each parents[k] gains backward(g)[k] (nothing for None)."""
        node = Node(value)
        if self.recording:
            def back(g):
                for parent, grad in zip(parents, backward(g)):
                    if grad is not None:
                        parent.bump(grad)

            self._ops.append((node, back))
        return node

    custom = _op  # the models' name: perfbench/tracer.py wraps it, and the tape's own ops call _op

    def hadamard(self, a, b):
        if a.value.shape != b.value.shape:
            raise ShapeError(f"hadamard shapes differ: {a.value.shape} vs {b.value.shape}")
        return self._op(a.value * b.value, (a, b), lambda g: (g * b.value, g * a.value))

    def concat(self, parts):
        parts = list(parts)
        if not parts:
            raise ShapeError("concat of zero parts")
        rows = {p.value.shape[0] for p in parts}
        if len(rows) != 1:
            raise ShapeError(f"concat row counts differ: {sorted(rows)}")
        bounds = list(itertools.accumulate((p.value.shape[1] for p in parts), initial=0))
        return self._op(np.concatenate([p.value for p in parts], axis=1), parts,
                        lambda g: [g[:, a:b] for a, b in zip(bounds, bounds[1:])])

    def _layers(self, x, layers, relu):
        """x through each (weight, bias or None) name pair of `layers` as
        h @ W (+ b), each followed by relu when `relu` is set, as one op.

        Only a recording tape keeps each layer's input and relu mask, the mask in relu_masks too.
        """
        h, saved = x.value, []
        for weight_name, bias_name in layers:
            w = self._read(weight_name)
            if h.shape[1] != w.shape[0]:
                raise ShapeError(f"dense input width {h.shape[1]} does not match {weight_name!r} {w.shape}")
            if w.shape[1] == 1:
                hs, ws = self._spread(h, weight_name, w.T)
                y = _row_sum((hs * ws).reshape(h.shape))
            else:
                y = h @ w
            if bias_name is not None:
                b = self._read(bias_name)
                if b.shape != (1, w.shape[1]):
                    raise ShapeError(f"bias {bias_name!r} must have shape (1, {w.shape[1]})")
                ys, bs = self._spread(y, bias_name, b)
                ys += bs
            if self.recording:
                saved.append((weight_name, bias_name, h, w, y > 0.0 if relu else None))
                if relu:
                    self.relu_masks.append(saved[-1][4])
            h = np.maximum(y, 0.0, out=y) if relu else y

        def backward(g):
            for weight_name, bias_name, h, w, mask in reversed(saved):
                if mask is not None:
                    g = g * mask + 0.0
                self._dense_grads[weight_name] = h.T @ g
                if bias_name is not None:
                    self._dense_grads[bias_name] = g.sum(axis=0, keepdims=True)
                g = g @ w.T
            return (g,)

        return self._op(h, (x,), backward)

    def dense(self, x, weight_name, bias_name=None):
        """Affine map x @ W (+ b).

        Width-1 outputs are reduced with numpy's pairwise row sum rather than
        BLAS so a single instance scores bit-identically whatever batch it
        rides in; wider outputs take the fast matmul. With K inputs, each
        output is numpy's .sum(axis=1) of the products c_j = x[:, j] * W[j, 0];
        at K = 8 that is 0.0 + (((c0 + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7))),
        computed as whole-column adds. Batched evaluation
        relies on every row being independent of the rows batched with it:
        in its side pass, which builds the sides of thousands of ids at once
        for gathering, and in the interaction's matmuls, for which BLAS
        promises nothing; TestChunkedEvaluate.test_matches_per_user_oracle_bitwise
        in tests/test_evaluation.py guards both for every model kind.
        """
        return self._layers(x, [(weight_name, bias_name)], relu=False)

    def mlp(self, x, layers):
        """relu(dense(h, w, b)) for each (w, b) name pair in `layers`, as one op.

        Value and gradients are bitwise the layer-by-layer dense + relu
        chain's, down to the `+ 0.0` of the chain's first bump of each dense
        output. A recording tape appends each layer's mask, dense output > 0,
        to relu_masks: gradcheck compares them to find a relu kink.
        """
        return self._layers(x, layers, relu=True)

    def relu(self, x):
        return self._op(np.maximum(x.value, 0.0), (x,), lambda g: (g * (x.value > 0.0),))

    def sigmoid(self, x):
        """1 / (1 + exp(-v)), as exp(v) / (1 + exp(v)) for v < 0 so no exp overflows."""
        v = x.value
        e = np.exp(-np.abs(v))
        out = np.where(v >= 0, 1.0, e) / (1.0 + e)
        return self._op(out, (x,), lambda g: (g * out * (1.0 - out),))

    # -- reverse pass ----------------------------------------------------

    def backward(self, out, seed_grad):
        """Run the reverse pass from `out` and return the gradient buffer."""
        if not self.recording:
            raise ShapeError("cannot run backward on a non-recording tape")
        seed_grad = np.asarray(seed_grad, dtype=np.float64)
        if seed_grad.shape != out.value.shape:
            raise ShapeError(
                f"seed gradient shape {seed_grad.shape} != output {out.value.shape}"
            )
        out.bump(seed_grad)
        for node, back in reversed(self._ops):
            if node.grad is not None:
                back(node.grad)
        tables, rows, chunks = zip(*self._row_chunks) if self._row_chunks else ((), (), ())
        both = set(tables) & self._dense_grads.keys()
        if both:
            raise ShapeError(f"parameter {min(both)!r} has both a dense and a row gradient")
        widths = {chunk.shape[1] for chunk in chunks}
        if len(widths) > 1:  # their arena rows would collide
            raise ShapeError(f"row tables of widths {sorted(widths)} on one tape")
        width = max(widths, default=1)
        rows = np.concatenate([np.empty(0, dtype=np.int64), *rows])
        # the marked rows' nonzero gives the distinct rows ascending without a sort
        mark = np.zeros(self.store._value.size // width, dtype=bool)
        mark[rows] = True
        present = mark.nonzero()[0]
        rank = np.empty(mark.size, dtype=np.int64)
        rank[present] = np.arange(present.size)
        g = segment_sum(np.concatenate(chunks) if chunks else np.empty((0, 0)), rank[rows], present.size)
        dense = self._dense_grads
        index = np.concatenate([_cells(present, width), self.store.cells(tuple(dense))])
        flat = np.concatenate([g.ravel(), *(grad.ravel() for grad in dense.values())])
        buffer = GradientBuffer(self.store, index, flat)
        self._ops = []
        self._dense_grads = {}
        self._row_chunks = []
        self.relu_masks = []
        return buffer


def adam_step(store, grads, lr=0.001):
    """One bias-corrected Adam update of the arena cells present in `grads`.

    The GradientBuffer's (index, g) pair is applied as one elementwise
    update whose bits match a per-parameter loop. Cells a batch never
    touched are absent, so moments of embedding rows it never read are not
    decayed. The step counter advances once per call and is shared by every
    parameter. ShapeError for a buffer built for another store; NumericsError,
    naming the first such parameter, for a non-finite gradient.
    """
    if grads.store is not store:
        raise ShapeError("gradient buffer was built for another parameter store")
    index, g = grads.index, grads.g
    finite = np.isfinite(g)
    if not finite.all():
        raise NumericsError(f"non-finite gradient for parameter {grads.names(index[~finite])[0]!r}")

    store.step += 1
    t = store.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    m64 = ADAM_BETA1 * store._m.take(index).astype(np.float64) + (1.0 - ADAM_BETA1) * g
    v64 = ADAM_BETA2 * store._v.take(index).astype(np.float64) + (1.0 - ADAM_BETA2) * g * g
    step = lr * (m64 / c1) / (np.sqrt(v64 / c2) + ADAM_EPS)
    store._value[index] = (store._value.take(index).astype(np.float64) - step).astype(np.float32)
    store._m[index] = m64.astype(np.float32)
    store._v[index] = v64.astype(np.float32)


# -- checkpoints ----------------------------------------------------------


@contextlib.contextmanager
def replacing(*paths):
    """A temporary path beside each of `paths`, each renamed over its path, in order, once the
    block ends; if the block or a rename raises, every temporary file is removed and each path
    not yet renamed over keeps what it held, so a block that raises replaces none of them."""
    tmps = [f"{path}.tmp.{os.getpid()}" for path in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise


def save_checkpoint(path, store, header=None):
    """Write a text manifest, then the store's three arenas as little-endian float32.

    The manifest names each parameter and its shape in arena order; the
    payload is the value arena, then the m arena, then the v arena, laid out
    as the ParameterStore holds them. The crc32 line checksums every
    manifest byte before it, chained with the payload. The round trip is
    bit-exact, so checkpoints can be checksummed.
    """
    header = dict(header or {})
    lines = [CHECKPOINT_MAGIC]
    for key in sorted(header):
        value = str(header[key])
        if "\n" in key or "\n" in value:
            raise ValueError("checkpoint header entries must be single-line")
        lines.append(f"meta {key} {value}")
    lines.append(f"step {store.step}")
    lines += [f"param {name} {rows} {cols}" for name, (_, (rows, cols)) in store._layout.items()]
    payload = b"".join(buf.astype("<f4", copy=False).tobytes() for buf in (store._value, store._m, store._v))
    prefix = "".join(line + "\n" for line in lines).encode("utf-8")
    tail = f"crc32 {zlib.crc32(payload, zlib.crc32(prefix))}\ndata {len(payload)}\n"
    with replacing(path) as [tmp], open(tmp, "wb") as fh:
        fh.write(prefix + tail.encode("utf-8") + payload)


def decimal_int(text, bits, signed=True):
    """The int `text` spells in ASCII digits, led by a "-" only if `signed`: the one integer grammar.

    Other text (int() would take "+", "_", spaces and non-ASCII digits) raises ValueError("is not an
    integer"), and a value outside the `bits`-bit range ValueError("does not fit in {bits} bits"). int()
    reads at most the bits // 3 + 1 significant digits a value in range has, never its own 4,300-digit limit.
    """
    digits = text.removeprefix("-") if signed else text
    if not (text.isascii() and digits.isdigit()):
        raise ValueError("is not an integer")
    if len(digits) > bits // 3 + 1:
        text = text[:len(text) - len(digits)] + (digits.lstrip("0") or "0")
    high = 1 << bits - signed
    if len(text) > bits // 3 + 2 or not (-high if signed else 0) <= (value := int(text)) < high:
        raise ValueError(f"does not fit in {bits} bits")
    return value


def _read_manifest(path, lines):
    """(header, {step, crc32, data}, [(name, rows, cols)]) from manifest lines after the magic."""
    header, counts, params = {}, {}, []
    for lineno, line in enumerate(lines, start=2):
        kind, _, rest = line.partition(" ")
        key, gap, value = rest.partition(" ")
        if "crc32" in counts and kind != "data":
            raise ValueError(f"{path}: line {lineno}: checkpoint manifest line {line!r} "
                             "follows the crc32 line")
        try:
            if kind == "meta" and key and gap:
                header[key] = value
            elif kind in ("step", "crc32", "data") and kind not in counts:
                counts[kind] = decimal_int(rest, 64, signed=False)
            elif kind == "param" and rest.count(" ") == 2:  # name rows cols
                params.append((key, *(decimal_int(text, 64, signed=False) for text in value.split(" "))))
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed checkpoint manifest line {line!r}") from None
    for kind in ("step", "crc32"):
        if kind not in counts:
            raise ValueError(f"{path}: checkpoint manifest has no {kind} line")
    return header, counts, params


def load_checkpoint(path):
    """Inverse of save_checkpoint: returns (ParameterStore, header dict).

    Raises ValueError naming the file for a format-1 checkpoint, a malformed
    manifest line, a payload whose size is not the data line's or the three
    arenas' of the param lines, or manifest and payload bytes whose crc32
    differs.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob.startswith(b"CROSSREC-CKPT 1\n"):
        raise ValueError(f"{path}: a format-1 crossrec checkpoint, which this version does not read; "
                         "train it again")
    if not blob.startswith(CHECKPOINT_MAGIC.encode("utf-8") + b"\n"):
        raise ValueError(f"{path}: not a crossrec checkpoint")
    cut = blob.find(b"\ndata ")
    end_of_manifest = blob.find(b"\n", cut + 1) + 1
    if cut < 0 or end_of_manifest == 0:
        raise ValueError(f"{path}: checkpoint manifest has no data line")
    try:
        manifest = blob[:end_of_manifest].decode("utf-8").split("\n")[1:-1]
    except UnicodeDecodeError:
        raise ValueError(f"{path}: checkpoint manifest is not UTF-8 text") from None
    data = memoryview(blob)[end_of_manifest:]
    header, counts, params = _read_manifest(path, manifest)
    sizes = [rows * cols for _, rows, cols in params]
    if not counts["data"] == len(data) == 12 * sum(sizes):
        raise ValueError(f"{path}: checkpoint payload has {len(data)} bytes, its data line says "
                         f"{counts['data']} and its param lines need {12 * sum(sizes)}")
    prefix = blob[:blob.rfind(b"\ncrc32 ", 0, cut + 1) + 1]
    if zlib.crc32(data, zlib.crc32(prefix)) != counts["crc32"]:
        raise ValueError(f"{path}: checkpoint does not match its crc32")
    values, m, v = np.frombuffer(data, dtype="<f4").reshape(3, sum(sizes))
    pieces = np.split(values, np.cumsum(sizes[:-1], dtype=np.int64))
    try:
        store = ParameterStore([(name, piece.reshape(rows, cols))
                                for (name, rows, cols), piece in zip(params, pieces)])
    except ValueError as exc:  # a ShapeError, or a dimension numpy cannot hold
        raise ValueError(f"{path}: {exc}") from None
    store._m[...], store._v[...] = m, v
    store.step = counts["step"]
    return store, header
