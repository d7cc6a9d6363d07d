"""The five scoring architectures over a ParameterStore.

gmf     score = sigmoid(h . (p_u * q_i) + b)
mlp     score = sigmoid(out(relu stack over concat(p_u, q_i)))
neumf   independent GMF and MLP branches, fused by a linear layer whose
        weight splits into a GMF half and an MLP half
aadcf   entity embeddings pooled with their attribute embeddings pairwise,
        then an MLP over the pooled element-wise product
camf    gated blend of a shared user vector with the personal embedding,
        crossed against the item embedding and against aggregated item/user
        attribute embeddings, then an MLP over the concatenated products

Each architecture is split in three: a user side that depends on the user
id alone (embedding rows, camf's attribute sum, aadcf's pooled vector), an
item side likewise, and an interaction over row-aligned rows of the two
(camf's gate, merge and crosses, the MLP stacks, the output). `score`
composes them; training builds the sides per batch, evaluation builds them
over chunks of ids and gathers rows. Everything reads the store through a
Tape and mutates nothing; each relu stack is one Tape.mlp op, so a camf
training step records 16 ops. Attribute models additionally take an
AttributeCatalog, whose user and item sides are each one tc.Ragged of
sorted attribute ids; embed_sum and the pairwise pool gather a batch's
rows straight from it. parameter_shapes is the one (name, shape) table of
every kind's parameters, in arena (and so checkpoint) order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensorcore as tc

KINDS = ("gmf", "mlp", "neumf", "aadcf", "camf")

SWEEP_FACTORS = (8, 16, 32)
DEFAULT_LAYERS = (32, 16, 8)


@dataclass
class ModelConfig:
    kind: str
    num_users: int
    num_items: int
    factors: int = 8
    mlp_layers: tuple = DEFAULT_LAYERS
    user_vocab_size: int = 0
    item_vocab_size: int = 0
    include_attr_cross: bool = False

    def __post_init__(self):
        self.mlp_layers = tuple(int(w) for w in self.mlp_layers)
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {KINDS}")
        if self.factors < 1:
            raise ValueError("factors must be positive")
        if self.num_users < 1 or self.num_items < 1:
            raise ValueError("num_users and num_items must be positive")
        if not self.mlp_layers or any(w < 1 for w in self.mlp_layers):
            raise ValueError("mlp_layers must be a non-empty sequence of positive widths")
        if self.uses_attributes and (self.user_vocab_size < 1 or self.item_vocab_size < 1):
            raise ValueError(f"{self.kind} needs user and item attribute vocabularies")

    @property
    def uses_attributes(self):
        return self.kind in ("aadcf", "camf")


def parameter_shapes(config):
    """Ordered (name, shape) pairs for the given architecture: its arena layout.

    The user and item tables (neumf: one pair per branch), aadcf's and
    camf's attribute tables, camf's shared user vector and gate, the h{k}
    relu tower (none for gmf) and the head. Only the *_b biases start at zero.
    """
    d, kind = config.factors, config.kind
    tables = [("user_emb", config.num_users), ("item_emb", config.num_items)]
    if kind == "neumf":
        tables = [(f"{branch}_{name}", rows) for branch in ("gmf", "mlp") for name, rows in tables]
    if config.uses_attributes:
        tables += [("user_attr_emb", config.user_vocab_size), ("item_attr_emb", config.item_vocab_size)]
    shapes = [(name, (rows, d)) for name, rows in tables]
    if kind == "camf":
        shapes += [("u_shared", (1, d)), ("gate_w", (4 * d, 1)), ("gate_b", (1, 1))]
    # columns into the tower (gmf: into the head), in units of d
    width = d * {"gmf": 1, "mlp": 2, "neumf": 2, "aadcf": 1, "camf": 3 + config.include_attr_cross}[kind]
    for k, out in enumerate(() if kind == "gmf" else config.mlp_layers):
        shapes += [(f"h{k}_w", (width, out)), (f"h{k}_b", (1, out))]
        width = out
    head = [("out_w_gmf", (d, 1)), ("out_w_mlp", (width, 1))] if kind == "neumf" else [("out_w", (width, 1))]
    return shapes + head + [("out_b", (1, 1))]


def init_params(config, seed):
    """A fresh ParameterStore: *_b biases zero, the rest ~ N(0, 0.01^2) per named stream."""
    return tc.ParameterStore([
        (name, np.zeros(shape, dtype=np.float32) if name.endswith("_b") else tc.gaussian_init(name, shape, seed))
        for name, shape in parameter_shapes(config)
    ])


# -- shared building blocks --------------------------------------------------


def _mlp_stack(tape, x, layers):
    return tape.mlp(x, [(f"h{k}_w", f"h{k}_b") for k in range(len(layers))])


def _add(tape, a, b):
    return tape.custom(a.value + b.value, (a, b), lambda g: (g, g))


def _pool(tape, entity, table_name, ragged, ids):
    """Batched pairwise pooling of entity rows against embedding-table rows.

    Row b sums all pairwise element-wise products among entity row b and
    the table rows that the tc.Ragged `ragged` lists for ids[b], in O(V d)
    through ((e + s) * (e + s) - e * e - sum_t g_t * g_t) / 2, s = sum_t g_t.
    Ids are summed in the Ragged's ascending order. Every entity lists at
    least one id: an AttributeCatalog rejects one with none, and _side
    pools only a catalog's rows. ShapeError if the table's width is not the
    entity's.
    """
    flat, segments = ragged.gather(ids)
    count = len(ids)
    rows = tape.embed_lookup(table_name, flat)
    e = entity.value
    if rows.value.shape[1] != e.shape[1]:
        raise tc.ShapeError(f"attribute width {rows.value.shape[1]} != entity width {e.shape[1]}")
    s = tc.segment_sum(rows.value, segments, count)
    sq = tc.segment_sum(rows.value * rows.value, segments, count)
    t = e + s
    value = (t * t - e * e - sq) / 2.0

    def backward(g):
        return g * s, g.take(segments, axis=0) * (t.take(segments, axis=0) - rows.value)

    return tape.custom(value, (entity, rows), backward)


def _merge(tape, shared, personal, alpha):
    """CAMF's blend alpha*shared + (1-alpha)*personal: shared (1, d), personal (B, d), alpha (B, 1)."""
    a = alpha.value
    value = a * shared.value + (1.0 - a) * personal.value

    def backward(g):
        return (
            (g * a).sum(axis=0, keepdims=True),
            g * (1.0 - a),
            (g * (shared.value - personal.value)).sum(axis=1, keepdims=True),
        )

    return tape.custom(value, (shared, personal, alpha), backward)


# -- sides and interaction ---------------------------------------------------


def _side(tape, kind, who, ids, catalog):
    """The nodes `who` ("user" or "item") contributes: each row a function of its id alone."""
    if catalog is None and kind in ("aadcf", "camf"):
        raise ValueError(f"{kind} requires an attribute catalog")
    if kind == "neumf":
        return (tape.embed_lookup(f"gmf_{who}_emb", ids), tape.embed_lookup(f"mlp_{who}_emb", ids))
    emb = tape.embed_lookup(f"{who}_emb", ids)
    if kind in ("gmf", "mlp"):
        return (emb,)
    attrs = getattr(catalog, f"{who}_attrs")
    if kind == "aadcf":
        return (_pool(tape, emb, f"{who}_attr_emb", attrs, ids),)
    return (emb, tape.embed_sum(f"{who}_attr_emb", attrs, ids))


def build_sides(tape, config, users, items, catalog=None):
    """(user side, item side): tuples of (B, d) nodes that need no pairing.

    gmf and mlp: the embedding row; neumf: its GMF and MLP rows; aadcf: the
    entity pooled pairwise with its attributes; camf: the embedding row and
    the attribute sum. Every primitive here computes a row from that
    entity's ids alone, so a side built over every id once and gathered by
    row is bitwise the side built over a batch.
    """
    return (_side(tape, config.kind, "user", users, catalog),
            _side(tape, config.kind, "item", items, catalog))


def _camf_gate(tape, user, item):
    (p, a_u), (q, a_i) = user, item
    return tape.sigmoid(tape.dense(tape.concat([p, a_u, q, a_i]), "gate_w", "gate_b"))


def _camf_crosses(tape, config, user, item):
    """CAMF's crosses, concatenated. Built here, so that a tape that does not record frees
    the gate, the merge and each cross before the relu stack runs."""
    (p, a_u), (q, a_i) = user, item
    merged = _merge(tape, tape.param("u_shared"), p, _camf_gate(tape, user, item))
    crosses = [tape.hadamard(merged, q), tape.hadamard(merged, a_i), tape.hadamard(q, a_u)]
    if config.include_attr_cross:
        crosses.append(tape.hadamard(a_u, a_i))
    return tape.concat(crosses)


def interaction(tape, config, user, item):
    """The (B, 1) score node from row-aligned user and item sides.

    neumf fuses its GMF and MLP branches by a linear layer stored as
    out_w_gmf / out_w_mlp halves; zeroing one half reduces the score to the
    other branch exactly. camf crosses the gated user vector with the item
    embedding and the item attribute sum, and the item embedding with the
    user attribute sum; aggregating attributes before the product equals
    summing per-attribute products, since the element-wise product
    distributes over addition.
    """
    kind = config.kind
    if kind == "neumf":
        (pg, pm), (qg, qm) = user, item
        z_gmf = tape.dense(tape.hadamard(pg, qg), "out_w_gmf", "out_b")
        x = _mlp_stack(tape, tape.concat([pm, qm]), config.mlp_layers)
        return tape.sigmoid(_add(tape, z_gmf, tape.dense(x, "out_w_mlp")))
    if kind == "gmf":
        x = tape.hadamard(user[0], item[0])
    elif kind == "mlp":
        x = _mlp_stack(tape, tape.concat([user[0], item[0]]), config.mlp_layers)
    elif kind == "aadcf":
        x = _mlp_stack(tape, tape.hadamard(user[0], item[0]), config.mlp_layers)
    else:
        x = _mlp_stack(tape, _camf_crosses(tape, config, user, item), config.mlp_layers)
    return tape.sigmoid(tape.dense(x, "out_w", "out_b"))


def score(tape, config, users, items, catalog=None, sides=None):
    """The (B, 1) output node for the pairs (users[b], items[b]).

    Without `sides` both sides are built on `tape` from the ids, which is
    what training differentiates. With `sides` (build_sides over every user
    and item id, on a record=False tape) the pairs' rows are gathered from
    it instead; gathered rows carry no gradient, so `tape` must not record.
    """
    if sides is None:
        user, item = build_sides(tape, config, users, items, catalog)
    elif tape.recording:
        raise tc.ShapeError("gathered sides carry no gradient; score them on a record=False tape")
    else:
        user = tuple(tc.Node(node.value.take(users, axis=0)) for node in sides[0])
        item = tuple(tc.Node(node.value.take(items, axis=0)) for node in sides[1])
    return interaction(tape, config, user, item)


def predictions(node):
    """Scores as a flat float64 array."""
    return node.value[:, 0]
