"""Ranking the held-out positive among its 99 negatives: HR@10 and NDCG@10.

Ties count against the positive, so a constant scorer earns zero rather
than inflated metrics. A pass builds the models' user and item sides once,
over every user and item id, then scores EVAL_USERS_PER_FORWARD users per
models.score call, each user's positive followed by its negatives, from
side rows gathered by id. Every primitive computes a row independently of
the other rows in its batch (for matmul see Tape.dense), so a user's
scores are bitwise those of a forward over that user alone; the tests hold
them to that per-user forward and rank_position. The averages accumulate
in user-id order, which makes the report independent of any
evaluation-side reordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .tensorcore import Tape, check_rows


# users per score call: 16 x 100 rows keeps the interaction's temporaries small
# next to the corpus while amortising the per-primitive Python overhead
EVAL_USERS_PER_FORWARD = 16
TOP_K = 10  # HR@10 and NDCG@10, NCF's leave-one-out protocol


class EvaluationError(RuntimeError):
    pass


@dataclass
class EvalReport:
    hr_at_10: float
    ndcg_at_10: float
    per_user_ranks: np.ndarray  # (num_users,) int64, in user-id order


def rank_position(scores, positive_index):
    """1-based rank of the positive, pessimistic: ties rank behind it."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise EvaluationError("non-finite score in ranking")
    pos = scores[positive_index]
    higher = int((scores > pos).sum())
    tied = int((scores == pos).sum()) - 1
    return 1 + higher + tied


def hr_at_k(rank):
    return 1 if rank <= TOP_K else 0


def ndcg_at_k(rank):
    """Single-relevant-item NDCG: 1/log2(rank+1) inside the top TOP_K, else 0."""
    return 1.0 / math.log2(rank + 1) if rank <= TOP_K else 0.0


def evaluate(config, store, split, catalog=None):
    """Score each user's positive plus pre-drawn negatives and average HR/NDCG."""
    num_users = split.train.num_users
    candidates = np.concatenate(
        [np.asarray(split.test_positives)[:, None], split.test_negatives], axis=1
    )
    # side rows are gathered by plain indexing, which would wrap a negative id
    check_rows(candidates, config.num_items, "candidate items")
    sides = models.build_sides(Tape(store, record=False), config, np.arange(num_users),
                               np.arange(config.num_items), catalog)
    width = candidates.shape[1]
    ranks = np.empty(num_users, dtype=np.int64)
    for start in range(0, num_users, EVAL_USERS_PER_FORWARD):
        block = candidates[start:start + EVAL_USERS_PER_FORWARD]
        users = np.repeat(np.arange(start, start + len(block), dtype=np.int64), width)
        tape = Tape(store, record=False)
        node = models.score(tape, config, users, block.reshape(-1), catalog, sides)
        scores = models.predictions(node).reshape(len(block), width)
        if not np.isfinite(scores).all():
            raise EvaluationError("non-finite score in ranking")
        # pessimistic ties, as in rank_position: the positive counts among its ties
        positive = scores[:, :1]
        ranks[start:start + len(block)] = (scores > positive).sum(1) + (scores == positive).sum(1)
    hr_total = 0.0
    ndcg_total = 0.0
    for rank in ranks.tolist():
        hr_total += hr_at_k(rank)
        ndcg_total += ndcg_at_k(rank)
    return EvalReport(hr_total / num_users, ndcg_total / num_users, ranks)


def save_ranks(report, path):
    """Per-user rank dump: 'user<TAB>rank' lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for u, rank in enumerate(report.per_user_ranks):
            fh.write(f"{u}\t{rank}\n")
