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
"""

from __future__ import annotations

import os
import zlib

import numpy as np

INIT_STD = 0.01
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # the experiment fixes them; lr is a flag

CHECKPOINT_MAGIC = "CROSSREC-CKPT 2"


class ShapeError(ValueError):
    """Shape or index contract violation (a programming error, not bad data)."""


class NumericsError(ArithmeticError):
    """Non-finite value where a finite one is required."""


def seeded_rng(seed, *tags):
    """Generator derived from (seed, tags); tags keep parallel streams disjoint.

    Seeded with the uint32 words SeedSequence makes of [seed, *tags] (a str as
    its UTF-8 bytes, an int as little-endian 32-bit words), built here."""
    words = []
    for value in (int(seed), *tags):
        if isinstance(value, str):
            words.extend(value.encode("utf-8"))
            continue
        value = int(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.extend(value >> shift & 0xFFFFFFFF for shift in range(0, max(value.bit_length(), 1), 32))
    return np.random.default_rng(np.array(words, dtype=np.uint32))


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
        return sorted(layout[k][0] for k in np.unique(owners).tolist())

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


def _as_ids(ids):
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"id array must be 1-D, got shape {ids.shape}")
    return ids


class Ragged:
    """Rows of int64 ids in CSR form, ids ascending within each row.

    Row r is flat[offsets[r]:offsets[r + 1]]. The form is checked once, when
    built, and treated as immutable after, so readers index and gather
    without checking it again. Indexing and iteration yield row views.
    """

    __slots__ = ("offsets", "flat")

    def __init__(self, offsets, flat):
        """ShapeError unless offsets run from 0 up to flat.size without
        decreasing and ids do not decrease within any row."""
        offsets, flat = _as_ids(offsets), _as_ids(flat)
        if offsets[:1].tolist() != [0] or offsets[-1] != flat.size or (offsets[1:] < offsets[:-1]).any():
            raise ShapeError(f"offsets do not run from 0 up to {flat.size}")
        starts = np.zeros(flat.size + 1, dtype=bool)
        starts[offsets] = True
        if ((flat[1:] < flat[:-1]) & ~starts[1:-1]).any():
            raise ShapeError("ids are not sorted within each row")
        self.offsets, self.flat = offsets, flat

    @classmethod
    def from_rows(cls, rows):
        """The id sequences in `rows`, each sorted here."""
        lengths = np.array([len(ids) for ids in rows], dtype=np.int64)
        flat = np.concatenate([np.empty(0, np.int64), *rows], dtype=np.int64, casting="unsafe")
        segments = np.repeat(np.arange(lengths.size), lengths)
        return cls(np.concatenate([[0], np.cumsum(lengths)]), flat[np.lexsort((flat, segments))])

    def __len__(self):
        return self.offsets.size - 1

    def __getitem__(self, row):
        row = range(len(self))[row]  # IndexError past either end, as for a list
        return self.flat[self.offsets[row]:self.offsets[row + 1]]

    def __iter__(self):
        bounds = self.offsets.tolist()
        return (self.flat[a:b] for a, b in zip(bounds, bounds[1:]))

    def gather(self, rows):
        """(ids, segments): the ids of the selected rows, segments[k] the
        position in `rows` that ids[k] came from, in (segment, id) order.

        ShapeError for a selector outside [0, len(self)).
        """
        rows = _as_ids(rows)
        check_rows(rows, len(self), "ragged")
        lengths = self.offsets[rows + 1] - self.offsets[rows]
        segments = np.repeat(np.arange(rows.size, dtype=np.int64), lengths)
        shift = np.repeat(self.offsets[rows] - (np.cumsum(lengths) - lengths), lengths)
        return self.flat[np.arange(segments.size, dtype=np.int64) + shift], segments


def segment_sum(values, segments, count):
    """Row sums per segment: out[s] = sum of values[i] over i with segments[i] == s.

    One np.bincount over the flattened (segment, column) cells: it adds
    each cell's values in row order starting from 0.0, the order of numpy's
    unbuffered add.at, so the bits match it whatever the segment lengths.
    (np.add.reduceat reduces runs of 8 or more pairwise and would not.)
    """
    cols = values.shape[1]
    cells = (segments[:, None] * cols + np.arange(cols)).ravel()
    out = np.bincount(cells, weights=values.ravel(), minlength=count * cols)
    # with no cells at all bincount returns int64 zeros
    return out.astype(np.float64, copy=False).reshape(count, cols)


class Tape:
    """Records forward primitives for reverse-mode gradient accumulation.

    With record=False the same call surface computes values only, which is
    what evaluation uses. A tape is single-use: build one forward, call
    backward once.

    Row gradients are kept by the arena cell of each row's first element,
    in the order backward reaches their ops, so one unique and one segment
    sum merge every table, each cell adding its terms as a merge per table
    would. A tape's row tables share one width (every model's: `factors`).
    A dense gradient (param, dense, mlp) is set, not summed: no model reads
    one dense parameter twice in a step.
    """

    def __init__(self, store, record=True):
        self.store = store
        self.recording = record
        self._ops = []          # (node, backward_fn(gout)) in forward order
        self._dense_grads = {}
        self._row_chunks = []   # (table, arena cell of each row's first element, row gradients)

    # -- leaf reads ------------------------------------------------------

    def _leaf_rows(self, node, name, ids, pick=None):
        """Record that row k of node's gradient (row pick[k], given `pick`) is row ids[k] of `name`'s."""
        offset, (_, cols) = self.store._layout[name]
        cells = offset + ids * cols
        self._ops.append((node, lambda g: self._row_chunks.append((name, cells, g if pick is None else g[pick]))))

    def param(self, name):
        """Read a full parameter matrix as a float64 leaf node."""
        node = Node(self.store.value(name).astype(np.float64))
        if self.recording:
            self._ops.append((node, lambda g: self._dense_grads.update({name: g})))
        return node

    # -- primitives ------------------------------------------------------

    def embed_lookup(self, name, ids):
        ids = _as_ids(ids)
        table = self.store.value(name)
        check_rows(ids, table.shape[0], name)
        node = Node(table[ids].astype(np.float64))
        if self.recording:
            self._leaf_rows(node, name, ids)
        return node

    def embed_sum(self, name, ragged, ids):
        """Per-entity sum of table rows: output[b] = sum of the rows ragged[ids[b]] lists.

        Ids are summed in the ascending order a Ragged keeps each row in, so
        the result does not depend on the order the rows were given in;
        duplicated ids contribute (and receive gradient) once per occurrence.
        """
        ids = _as_ids(ids)
        flat, segments = ragged.gather(ids)
        table = self.store.value(name)
        check_rows(flat, table.shape[0], name)
        node = Node(segment_sum(table[flat].astype(np.float64), segments, ids.size))
        if self.recording:
            self._leaf_rows(node, name, flat, segments)
        return node

    def _op(self, value, parents, backward):
        """The node of `value`; a recording tape records that, given the node's
        gradient g, each parents[k] gains backward(g)[k] (nothing for None)."""
        node = Node(value)
        if self.recording:
            def back(g):
                for parent, grad in zip(parents, backward(g)):
                    if grad is not None:
                        parent.bump(grad)

            self._ops.append((node, back))
        return node

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
        bounds = np.cumsum([0] + [p.value.shape[1] for p in parts]).tolist()
        return self._op(np.concatenate([p.value for p in parts], axis=1), parts,
                        lambda g: [g[:, a:b] for a, b in zip(bounds, bounds[1:])])

    def _layers(self, x, layers, relu):
        """x through each (weight, bias or None) name pair of `layers` as
        h @ W (+ b), each followed by relu when `relu` is set, as one op.

        Only a recording tape keeps each layer's input and relu mask.
        """
        h, saved = x.value, []
        for weight_name, bias_name in layers:
            w = self.store.value(weight_name).astype(np.float64)
            if h.shape[1] != w.shape[0]:
                raise ShapeError(f"dense input width {h.shape[1]} does not match {weight_name!r} {w.shape}")
            if w.shape[1] == 1:
                y = (h * w[:, 0]).sum(axis=1, keepdims=True)
            else:
                y = h @ w
            if bias_name is not None:
                b = self.store.value(bias_name).astype(np.float64)
                if b.shape != (1, w.shape[1]):
                    raise ShapeError(f"bias {bias_name!r} must have shape (1, {w.shape[1]})")
                y += b
            if self.recording:
                saved.append((weight_name, bias_name, h, w, y > 0.0 if relu else None))
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
        rides in; wider outputs take the fast matmul. Batched evaluation
        relies on every row being independent of the rows batched with it:
        in its side pass, which builds every user's and item's side at once
        for gathering, and in the interaction's matmuls, for which BLAS
        promises nothing; TestChunkedEvaluate.test_matches_per_user_oracle_bitwise
        in tests/test_evaluation.py guards both for every model kind.
        """
        return self._layers(x, [(weight_name, bias_name)], relu=False)

    def mlp(self, x, layers):
        """relu(dense(h, w, b)) for each (w, b) name pair in `layers`, as one op.

        Value and gradients are bitwise the layer-by-layer dense + relu
        chain's, down to the `+ 0.0` of the chain's first bump of each dense
        output.
        """
        return self._layers(x, layers, relu=True)

    def relu(self, x):
        return self._op(np.maximum(x.value, 0.0), (x,), lambda g: (g * (x.value > 0.0),))

    def sigmoid(self, x):
        """1 / (1 + exp(-v)), as exp(v) / (1 + exp(v)) for v < 0 so no exp overflows."""
        v = x.value
        e = np.exp(-np.abs(v))
        out = np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        return self._op(out, (x,), lambda g: (g * out * (1.0 - out),))

    def custom(self, value, parents, backward):
        """Record an op with a caller-supplied rule.

        backward(gout) must return one gradient array (or None) per parent.
        """
        return self._op(value, parents, backward)

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
        tables, cells, chunks = zip(*self._row_chunks) if self._row_chunks else ((), (), ())
        both = set(tables) & self._dense_grads.keys()
        if both:
            raise ShapeError(f"parameter {min(both)!r} has both a dense and a row gradient")
        widths = {chunk.shape[1] for chunk in chunks}
        if len(widths) > 1:
            raise ShapeError(f"row tables of widths {sorted(widths)} on one tape")
        cells, inverse = np.unique(np.concatenate([np.empty(0, dtype=np.int64), *cells]), return_inverse=True)
        g = segment_sum(np.concatenate(chunks) if chunks else np.empty((0, 0)), inverse, cells.size)
        index, flat = [(cells[:, None] + np.arange(g.shape[1])).ravel()], [g.ravel()]
        for name, dense in self._dense_grads.items():
            offset = self.store._layout[name][0]
            index.append(np.arange(offset, offset + dense.size, dtype=np.int64))
            flat.append(dense.ravel())
        buffer = GradientBuffer(self.store, np.concatenate(index), np.concatenate(flat))
        self._ops = []
        self._dense_grads = {}
        self._row_chunks = []
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
    m64 = ADAM_BETA1 * store._m[index].astype(np.float64) + (1.0 - ADAM_BETA1) * g
    v64 = ADAM_BETA2 * store._v[index].astype(np.float64) + (1.0 - ADAM_BETA2) * g * g
    step = lr * (m64 / c1) / (np.sqrt(v64 / c2) + ADAM_EPS)
    store._value[index] = (store._value[index].astype(np.float64) - step).astype(np.float32)
    store._m[index] = m64.astype(np.float32)
    store._v[index] = v64.astype(np.float32)


# -- checkpoints ----------------------------------------------------------


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
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(prefix + tail.encode("utf-8") + payload)
    os.replace(tmp, path)


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
