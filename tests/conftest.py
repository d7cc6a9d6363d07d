import contextlib
import os
import signal

import numpy as np
import pytest

from crossrec import corpus, evaluation, models
from crossrec import tensorcore as tc

ML1M_ENV = "CROSSREC_ML1M"


def ml1m_dir():
    """Directory holding ratings.dat/users.dat/movies.dat, or None."""
    path = os.environ.get(ML1M_ENV, os.path.join(os.path.dirname(__file__), "..", "data", "ml-1m"))
    if all(os.path.exists(os.path.join(path, f)) for f in ("ratings.dat", "users.dat", "movies.dat")):
        return os.path.abspath(path)
    return None


requires_ml1m = pytest.mark.skipif(
    ml1m_dir() is None,
    reason=f"MovieLens-1M not found; set {ML1M_ENV} to a directory with ratings/users/movies.dat",
)


# wall-time bound for calls that would hang rather than fail when broken;
# a passing call takes well under a second
TIME_BOUND_S = 30.0


class TimeBoundExceeded(BaseException):
    """A call ran past its wall-time bound.

    A BaseException, so neither the code under test nor Hypothesis (which
    would replay and shrink a failing example, each replay as slow) catches it.
    """


@contextlib.contextmanager
def time_bound(seconds=TIME_BOUND_S):
    """Fail the enclosed call with TimeBoundExceeded once it has run `seconds` of wall time."""
    def expire(signum, frame):
        raise TimeBoundExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def pool(entity, attrs):
    """models._pool of one float64 entity row with every row of `attrs`, held
    as the float32 attribute table the models keep; the pooled row."""
    entity = np.asarray(entity, dtype=np.float64)
    tape = tc.Tape(tc.ParameterStore([("attr_emb", np.asarray(attrs, dtype=np.float32))]), record=False)
    ragged = tc.Ragged.from_rows([np.arange(len(attrs))])
    return models._pool(tape, tc.Node(entity[None, :]), "attr_emb", ragged, [0]).value[0]


def rank_position(scores, positive_index):
    """1-based rank of scores[positive_index], pessimistic: ties rank behind it.

    The per-user oracle that evaluation.evaluate's vectorised count is held to.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise evaluation.EvaluationError("non-finite score in ranking")
    pos = scores[positive_index]
    higher = int((scores > pos).sum())
    tied = int((scores == pos).sum()) - 1
    return 1 + higher + tied


def rows_of(ragged):
    """The rows of a tensorcore.Ragged, each a view of its flat ids (none for zero rows)."""
    bounds = ragged.offsets.tolist()
    return [ragged.flat[a:b] for a, b in zip(bounds, bounds[1:])]


def interaction_set(num_users, num_items, users, items):
    """The InteractionSet of the pairs (users[k], items[k]), listed in any order."""
    users, items = np.asarray(users, dtype=np.int64), np.asarray(items, dtype=np.int64)
    offsets = np.concatenate([[0], np.bincount(users, minlength=num_users).cumsum()])
    return corpus.InteractionSet(num_users, num_items, tc.Ragged(offsets, items[np.lexsort((items, users))]))


def pairs_of(iset):
    """The (user, item) pairs of an InteractionSet as Python ints, in (user, item) order: pair k is k-th."""
    rows = iset.per_user_items
    return list(zip(np.arange(len(rows)).repeat(rows.lengths).tolist(), rows.flat.tolist()))


M64 = (1 << 64) - 1


def splitmix64(state):
    """SplitMix64's output for one state, in Python ints."""
    z = (state + 0x9E3779B97F4A7C15) & M64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & M64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & M64
    return z ^ z >> 31


def below(key, bound, slot):
    """Lemire's bounded draw with its exact rejection, in Python ints: the next attempt until accepted."""
    attempt = 0
    while True:
        wide = (splitmix64(key ^ (slot | attempt << 32)) >> 32) * bound
        if wide & 0xFFFFFFFF >= ((1 << 32) - bound) % bound:
            return wide >> 32
        attempt += 1


SPLIT_TAG, EPOCH_TAG = (int.from_bytes(tag, "little") for tag in (b"split", b"epoch"))


def lane_key(seed, lane, *tags):
    """One lane's key in Python ints: SplitMix64 folded over the seed's word count, its
    64-bit words, the tag words and the lane. The split's tags are (SPLIT_TAG,), an
    epoch's (EPOCH_TAG, epoch)."""
    words = [seed >> shift & M64 for shift in range(0, max(seed.bit_length(), 1), 64)]
    key = 0
    for word in (len(words), *words, *tags):
        key = splitmix64(key ^ word)
    return splitmix64(key ^ lane)


# the chi-square distribution's 0.999 quantile by degrees of freedom (tables; no scipy here)
CHI2_999 = {1: 10.828, 2: 13.816, 4: 18.467, 7: 24.322, 18: 42.312, 139: 196.266}


def uniform_chi2(counts, expected, scale=1.0):
    """Pearson's statistic of `counts` against `expected`, times `scale`."""
    counts = np.asarray(counts, dtype=np.float64)
    return float(((counts - expected) ** 2 / expected).sum() * scale)


def gradients(store, dense=None, rows=None):
    """The GradientBuffer of full-shape `dense` gradients and `rows` entries
    of (distinct row ids, per-row gradients), each keyed by parameter name,
    as the production Tape builds it: a param read per dense entry, an
    embed_lookup per row entry and one custom op handing each its gradient.

    A tape merges row tables of one width only, so each width gets its own
    tape (the dense entries ride on the first) and the buffers are joined.
    """
    dense, rows = dense or {}, rows or {}
    widths = sorted({g.shape[1] for _, g in rows.values()}) or [None]
    index, flat = [], []
    for width in widths:
        tape = tc.Tape(store)
        reads = [(tape.param(name), g) for name, g in dense.items()] if width == widths[0] else []
        reads += [(tape.embed_lookup(name, ids), g) for name, (ids, g) in rows.items() if g.shape[1] == width]
        nodes, given = zip(*reads) if reads else ((), ())
        buffer = tape.backward(tape.custom(np.zeros((1, 1)), nodes, lambda g, given=given: given),
                               np.ones((1, 1)))
        index.append(buffer.index)
        flat.append(buffer.g)
    return tc.GradientBuffer(store, np.concatenate(index), np.concatenate(flat))


def as_stored(attrs):
    """The attribute rows as pool's float32 table holds them, back in float64."""
    return [np.asarray(g, dtype=np.float32).astype(np.float64) for g in attrs]


def merge(shared, personal, alpha):
    """models._merge of one row: alpha * shared + (1 - alpha) * personal."""
    def row(x):
        return tc.Node(np.asarray(x, dtype=np.float64).reshape(1, -1))

    tape = tc.Tape(tc.ParameterStore(), record=False)
    return models._merge(tape, row(shared), row(personal), row(alpha)).value[0]


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "desk: desk-scale dataset reproduction (hours of CPU; needs MovieLens-1M)"
    )


def write_generic_dataset(directory, num_users=30, num_items=140, seed=7,
                          min_inter=12, max_inter=30):
    """A small pin-style dataset on disk; returns the three file paths."""
    rng = np.random.default_rng(seed)
    inter = os.path.join(directory, "interactions.tsv")
    uattr = os.path.join(directory, "user_attrs.tsv")
    iattr = os.path.join(directory, "item_attrs.tsv")
    with open(inter, "w", encoding="utf-8") as fh:
        fh.write("# raw_user<TAB>raw_item<TAB>timestamp\n")
        for u in range(num_users):
            n = int(rng.integers(min_inter, max_inter))
            for i in rng.choice(num_items, size=n, replace=False):
                fh.write(f"{u + 100}\t{int(i) + 500}\t{1000 + u + int(i)}\n")
    categories = ["art", "food", "travel", "diy", "tech"]
    with open(uattr, "w", encoding="utf-8") as fh:
        for u in range(num_users):
            for c in rng.choice(categories, size=int(rng.integers(1, 3)), replace=False):
                fh.write(f"{u + 100}\t{c}\n")
    open(iattr, "w", encoding="utf-8").close()
    return inter, uattr, iattr


@pytest.fixture
def generic_dataset(tmp_path):
    return write_generic_dataset(str(tmp_path))


@pytest.fixture
def tiny_catalog():
    return corpus.AttributeCatalog(
        user_attrs=tc.Ragged.from_rows([[0], [1, 2], [0, 1], [2], [1], [0, 2]]),
        item_attrs=tc.Ragged.from_rows([[0], [1], [2, 3], [0, 3], [1, 2], [3], [0]]),
        user_vocab_size=3,
        item_vocab_size=4,
    )
