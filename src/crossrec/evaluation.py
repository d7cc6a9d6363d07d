"""Ranking the held-out positive among its 99 negatives: HR@10 and NDCG@10.

Ties count against the positive: its rank is one plus the number of its
negatives scoring at least as high, so a constant scorer earns zero rather
than inflated metrics. evaluate counts that for a whole block of users at
once, as the scores at least the positive's (its own among them); it is
the one ranking rule here. A pass scores on one tape that does not
record, which keeps float64 copies and row tiles of the dense parameters
for the pass (see tensorcore.Tape), so the store must not change during
it; the next pass makes a new tape. A pass builds the models' user and
item sides once, in chunks of SIDE_CHUNK user and item ids written into
whole side arrays, then scores EVAL_USERS_PER_FORWARD users per
models.score call, each user's positive followed by its negatives, from side
rows gathered by id; the block's candidates are put together when it is
reached, from the split's ids at their narrow width (corpus.SplitDataset),
so no (users x 100) table is built. A row's bits need not survive
every block height (BLAS's one-row `h @ w` can differ from a taller block's
row by about 2e-15), but blocks of 100 rows or more agree: a user's scores
are bitwise those of a forward over its 100 rows alone (TestChunkedEvaluate
checks them and the ranks). The averages accumulate in user-id order, which
makes the report independent of any evaluation-side reordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .tensorcore import Node, Tape, check_rows, replacing


# users per score call: 16 x 100 rows keeps the interaction's temporaries small
# next to the corpus while amortising the per-primitive Python overhead
EVAL_USERS_PER_FORWARD = 16
# ids per build_sides call in the side pass: bounds its pooling and segment-sum temporaries,
# and the column pattern tensorcore keeps for the largest segment sum, to the chunk's size
SIDE_CHUNK = 512
TOP_K = 10  # HR@10 and NDCG@10, NCF's leave-one-out protocol


class EvaluationError(RuntimeError):
    pass


@dataclass
class EvalReport:
    hr_at_10: float
    ndcg_at_10: float
    per_user_ranks: np.ndarray  # (num_users,) int64, in user-id order


def hr_at_k(rank):
    return 1 if rank <= TOP_K else 0


def ndcg_at_k(rank):
    """Single-relevant-item NDCG: 1/log2(rank+1) inside the top TOP_K, else 0."""
    return 1.0 / math.log2(rank + 1) if rank <= TOP_K else 0.0


def _sides(tape, config, num_users, catalog):
    """models.build_sides over every user and item id, SIDE_CHUNK ids of each per call,
    written into whole side arrays: a side row is a function of its id alone."""
    counts = (num_users, config.num_items)
    whole = None
    for start in range(0, max(counts), SIDE_CHUNK):
        ids = [np.arange(start, min(start + SIDE_CHUNK, count)) for count in counts]
        built = models.build_sides(tape, config, *ids, catalog)
        whole = whole or [[np.empty((count, node.value.shape[1])) for node in side]
                          for side, count in zip(built, counts)]
        for side, arrays, chunk in zip(built, whole, ids):
            for node, array in zip(side, arrays):
                array[start:start + chunk.size] = node.value
    return tuple(tuple(map(Node, arrays)) for arrays in whole)


def evaluate(config, store, split, catalog=None):
    """Score each user's positive plus pre-drawn negatives and average HR/NDCG."""
    num_users = split.train.num_users
    # side rows are gathered by ndarray.take, which would wrap a negative id
    check_rows(split.test_positives, config.num_items, "candidate items")
    check_rows(split.test_negatives, config.num_items, "candidate items")
    tape = Tape(store, record=False)  # one for the pass: it keeps copies of the store's dense parameters
    sides = _sides(tape, config, num_users, catalog)
    ranks = np.empty(num_users, dtype=np.int64)
    for start in range(0, num_users, EVAL_USERS_PER_FORWARD):
        stop = min(start + EVAL_USERS_PER_FORWARD, num_users)
        block = np.concatenate([split.test_positives[start:stop, None], split.test_negatives[start:stop]], axis=1)
        users = np.repeat(np.arange(start, stop, dtype=np.int64), block.shape[1])
        node = models.score(tape, config, users, block.reshape(-1), catalog, sides)
        scores = models.predictions(node).reshape(block.shape)
        if not np.isfinite(scores).all():
            raise EvaluationError("non-finite score in ranking")
        # pessimistic ties: the positive ranks behind every score equal to it, and counting
        # its own score makes the count its rank (the scores are finite, so none is NaN)
        ranks[start:stop] = (scores >= scores[:, :1]).sum(1)
    hr_total = 0.0
    ndcg_total = 0.0
    for rank in ranks.tolist():
        hr_total += hr_at_k(rank)
        ndcg_total += ndcg_at_k(rank)
    return EvalReport(hr_total / num_users, ndcg_total / num_users, ranks)


def save_ranks(report, path):
    """Per-user rank dump: 'user<TAB>rank' lines, written beside `path` and renamed over it."""
    with replacing(path) as [tmp], open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"{u}\t{rank}\n" for u, rank in enumerate(report.per_user_ranks.tolist())))
