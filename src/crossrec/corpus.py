"""Dataset ingestion: one read -> index -> encode pipeline, the leave-one-out
split, and the prepared-run files.

Both raw layouts run the same three steps. `_records` is the one line reader,
and so what a raw file means, for the MovieLens-1M "::"-separated trio
(ratings/users/movies, ISO-8859-1) and the generic tab-separated UTF-8 layout
for pin-style data (interactions, per-entity attribute name files, an optional
category consolidation map). A file in a plain form is read whole, to the same
result or error: a ratings or interactions file by `_int_rows`, a generic
attribute file by `_read_attr_file`. `_index` turns the interaction rows into
dense ids: every rating or pin is an implicit positive, a repeated (user, item)
pair counts once, raw ids map to 0-based ids in ascending raw-id order, and
timestamps are checked but not kept. `_encode` numbers each entity's attribute
names over their sorted vocabulary and rejects an entity left with none. Each
parser returns an InteractionSet, one Ragged row of items per user, and an
AttributeCatalog of two Ragged sides: the one form both keep to the tape and
on disk. `SplitDataset.observed` is the one membership rule: a train pair or
a user's test positive, which held-out and sampled negatives avoid. The
sampler looks train pairs up in `InteractionSet.pair_bits`, one bit per (user,
item) cell, built on its first query and kept with the set; `load_split`
checks the same rule a block of users at a time, each block against a bitmap
of its own rows, so `evaluate` never builds the whole grid. `_test_items` is the
one test-id rule, and `seed_key` + `lane_keys` the one key fold of the split's
and the sampler's draws.
"""

from __future__ import annotations

import functools
import math
import os
import tokenize
import zlib
from dataclasses import dataclass, field

import numpy as np

from .tensorcore import Ragged, ShapeError, check_rows, decimal_int, id_dtype, replacing


class CorpusError(Exception):
    """Base for dataset ingestion failures."""


class ParseError(CorpusError):
    """A record that does not match the expected layout (names the line)."""


class LoadError(CorpusError):
    """Structurally valid input that violates a dataset-level requirement."""


class SplitError(CorpusError):
    """Leave-one-out preconditions not met."""


@dataclass
class InteractionSet:
    """(user, item) pairs over dense 0-based ids: row u of per_user_items holds user u's items.

    Each row strictly ascends within [0, num_items), or LoadError, so pair k is
    the k-th pair in (user, item) order. pair_users and pair_bits are built on
    first use and kept, so every epoch's sampler shares them; evaluate builds neither.
    """

    num_users: int
    num_items: int
    per_user_items: Ragged = field(repr=False)

    def __post_init__(self):
        rows = self.per_user_items
        if not 0 < self.num_users == len(rows):
            raise LoadError(f"{self.num_users} users and {len(rows)} rows of items do not fit together")
        if rows.min_id < 0 or rows.max_id >= self.num_items:
            raise LoadError(f"an item lies outside [0, {self.num_items})")
        repeats = np.flatnonzero(rows.flat[1:] == rows.flat[:-1]) + 1  # allowed only where a row starts
        if (rows.offsets[rows.offsets.searchsorted(repeats)] != repeats).any():
            raise LoadError("a user's items do not strictly ascend")

    def __len__(self):
        return self.per_user_items.flat.size

    @functools.cached_property
    def pair_users(self):
        """Each pair's user as id_dtype(num_users), from the row lengths, built on first use:
        2 bytes per pair up to 32,768 users. A key built from it widens it to int64 first."""
        return np.arange(self.num_users, dtype=id_dtype(self.num_users)).repeat(self.per_user_items.lengths)

    @functools.cached_property
    def pair_bits(self):
        """The set as packed bits over the num_users x num_items grid, built on first use.

        Bit k % 8 of byte k // 8 is set for each pair k = user * num_items + item:
        ceil(U * I / 8) bytes, 2.8 MB at MovieLens-1M's shape and 68 MB at
        Pinterest's (55,187 x 9,916). The pairs are set PAIR_CHUNK at a time,
        so the build holds the bitmap and one chunk's keys besides pair_users;
        OR does not depend on order, so the bits are those of one pass over every pair.
        """
        bits = np.zeros(-(-self.num_users * self.num_items // 8), dtype=np.uint8)
        flat = self.per_user_items.flat
        for start in range(0, flat.size, PAIR_CHUNK):
            chunk = slice(start, start + PAIR_CHUNK)
            _set_bits(bits, self.pair_users[chunk].astype(np.int64) * self.num_items + flat[chunk])
        return bits

    def contains(self, users, items):
        """Whether each (user, item), broadcast over the two id arrays, is a pair of this set.

        ShapeError for an id outside [0, num_users) x [0, num_items): pair_bits would read another pair.
        """
        users, items = np.asarray(users, dtype=np.int64), np.asarray(items, dtype=np.int64)
        check_rows(users, self.num_users, "users")
        check_rows(items, self.num_items, "items")
        return _bits_at(self.pair_bits, users * self.num_items + items)


def _set_bits(bits, keys):
    """Set bit k % 8 of byte k // 8 of the uint8 array `bits` for each int64 key k."""
    np.bitwise_or.at(bits, keys >> 3, np.left_shift(1, keys & 7).astype(np.uint8))


def _bits_at(bits, keys):
    """Whether bit k % 8 of byte k // 8 of `bits` is set, for each int64 key k."""
    return bits.take(keys >> 3) >> (keys & 7).astype(np.uint8) & np.uint8(1) != 0


@dataclass
class AttributeCatalog:
    """Per-entity attribute id sets, one Ragged per side, with their vocabulary sizes.

    Every user and item carries at least one attribute and every id lies
    inside its vocabulary (checked at construction).
    """

    user_attrs: Ragged
    item_attrs: Ragged
    user_vocab_size: int
    item_vocab_size: int

    def __post_init__(self):
        _check_rows("user", self.user_attrs, self.user_vocab_size)
        _check_rows("item", self.item_attrs, self.item_vocab_size)


def _check_rows(label, rows, vocab):
    """LoadError naming the first entity of the Ragged `rows` that has no ids
    or an id outside [0, vocab)."""
    lengths = rows.lengths
    segments = np.repeat(np.arange(lengths.size), lengths)
    bad = np.concatenate([np.flatnonzero(lengths == 0), segments[(rows.flat < 0) | (rows.flat >= vocab)]])
    if bad.size:
        first = bad.min()
        if lengths[first] == 0:
            raise LoadError(f"{label} {first} has zero attributes")
        raise LoadError(f"{label} {first} attribute id outside vocabulary ({vocab})")


@dataclass
class SplitDataset:
    """Leave-one-out split: train set plus one positive and 99 negatives per user, both
    test arrays checked and held as id_dtype(num_items) by _test_items, whatever their dtype."""

    train: InteractionSet
    test_positives: np.ndarray       # (num_users,)
    test_negatives: np.ndarray       # (num_users, 99)

    def __post_init__(self):
        self.test_positives, self.test_negatives = (
            _test_items(a, self.train.num_items) for a in (self.test_positives, self.test_negatives))

    def observed(self, users, items):
        """Whether each (user, item) is a train pair or the user's test positive: never a negative."""
        return self.train.contains(users, items) | (self.test_positives[users] == items)


def _test_items(ids, num_items, where=""):
    """`ids` as id_dtype(num_items), checked first: LoadError (after `where`) for an id
    outside [0, num_items), which the narrowing cast would wrap onto a real item."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= num_items):
        raise LoadError(f"{where}a test item lies outside [0, {num_items})")
    return ids.astype(id_dtype(num_items), copy=False)


NUM_TEST_NEGATIVES = 99
PAIR_CHUNK = 1 << 14  # (user, item) pairs per block of a pair_bits build or a membership check
SPLIT_CHECK_USERS = PAIR_CHUNK // NUM_TEST_NEGATIVES  # users per block of load_split's (users x 99) checks
MIN_USER_INTERACTIONS = 10  # generic layout: sparser users are dropped
USER_BUCKET_SIZE = 40       # generic layout: interactions per user-activity bucket
ITEM_BUCKET_SIZE = 50       # generic layout: pins per item-exposure bucket
_NOT_DELIMITERS = bytes(set(range(256)) - set(b"\t\n"))


def _records(path, sep, width, encoding):
    """(line number, fields) of each line of `path` that is neither blank nor a `#` comment.

    A line that does not decode or does not split on `sep` into exactly
    `width` fields raises ParseError naming path:line.
    """
    with open(path, "rb") as fh:  # bytes, decoded per line, so a decode error names its line
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode(encoding).rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: not {encoding} text ({exc.reason})") from None
            if not line or line.startswith("#"):
                continue
            fields = line.split(sep)
            if len(fields) != width:
                layout = "tab-separated" if sep == "\t" else repr(sep)
                raise ParseError(
                    f"{path}:{lineno}: expected {width} {layout} fields, got {len(fields)}")
            yield lineno, fields


def _parse_int(text, path, lineno, what):
    # ids and timestamps are read as int64; "1_0" or "+10" would merge distinct raw ids
    try:
        return decimal_int(text, 64)
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: {what} {exc}: {text!r}") from None


def _plain_int_table(data, sep, width):
    """The (n, width) int64 table of a raw file's bytes if they are in the plain form, else None.

    Plain: every line (the last may lack its "\n") is `width` fields split by
    `sep` ("\t", or "::" read as one tab in a file with none), each an optional
    "-" and ASCII digits, 1-18 bytes in all (so it fits int64); lines may end in
    "\r\n", which `_records` strips as it does "\n". Files of that form are a subset
    of what `_records` + `_parse_int` accept, and they read them to the same table.
    """
    if b"\r" in data:  # one memchr; counting "\r\n" would cost a slower pass over every file
        data = data.replace(b"\r\n", b"\n")
    if sep != "\t":
        if b"\t" in data:  # one memchr: a tab would pass for a separator
            return None
        data = data.replace(sep.encode(), b"\t")  # np.fromstring splits on whitespace only
    if data.translate(None, b"\t0123456789-\n"):
        return None  # a "#", any other "\r", a lone ":", non-ASCII or foreign separator byte
    data = b"\n" + data + b"\n"[data.endswith(b"\n"):]  # every field between two delimiters
    buf = np.frombuffer(data, dtype=np.uint8)
    delims = np.flatnonzero(buf <= ord("\n"))
    lengths, closers = np.diff(delims) - 1, buf[delims[1:]]
    if closers.size % width or (closers.reshape(-1, width) != [ord("\t")] * (width - 1) + [ord("\n")]).any():
        return None
    minus = np.flatnonzero(buf == ord("-"))
    if (lengths.min() < 1 or lengths.max() > 18
            or (buf[minus - 1] > ord("\n")).any() or (buf[minus + 1] < ord("0")).any()):
        return None  # an empty or 19-byte field, or a "-" inside one
    # only now: fromstring stops silently at a token it cannot parse
    return np.fromstring(data, dtype=np.int64, sep=" ").reshape(-1, width)


def _int_rows(path, sep, width, encoding, labels):
    """The (n, width) int64 table of a raw file whose fields are all integers.

    A file in the plain form is converted whole; any other is read by
    `_records` and `_parse_int` (field k named labels[k]) to the same table
    or the same ParseError.
    """
    with open(path, "rb") as fh:
        table = _plain_int_table(fh.read(), sep, width)
    if table is None:
        rows = [[_parse_int(text, path, n, what) for text, what in zip(fields, labels)]
                for n, fields in _records(path, sep, width, encoding)]
        table = np.array(rows, dtype=np.int64).reshape(-1, width)
    return table


def _index(path, table, min_user_interactions=1):
    """(InteractionSet, raw user ids, raw item ids) from an int64 table of raw rows, user and item ids first.

    Each distinct (user, item) pair is kept once, users left with fewer than
    `min_user_interactions` pairs are dropped, and the remaining raw ids map to
    dense ids in ascending raw-id order: each one's rank among the survivors
    of the one sort of all raw ids. The sorted pair keys are the rows, in
    order; the other columns are not kept.
    """
    if not table.size:
        raise LoadError(f"{path}: no interactions")
    (raw_users, users), (raw_items, items) = (np.unique(raw, return_inverse=True) for raw in table.T[:2])
    width = items.max() + 1
    keys = np.sort(users * width + items)  # not np.unique: without return_* it imports numpy.ma on first use
    keys = keys[np.diff(keys, prepend=-1) != 0]  # each pair once, in (user, item) order
    counts = np.bincount(keys // width)  # each raw user's pairs, in raw-id order
    kept = counts >= min_user_interactions
    if not kept.any():
        raise LoadError(f"{path}: empty dataset after the >= {min_user_interactions} filter")
    items = keys[kept.repeat(counts)] % width
    present = np.zeros(raw_items.size, dtype=bool)  # each surviving item's rank among the survivors
    present[items] = True
    rows = Ragged(np.concatenate([[0], counts[kept].cumsum()]), (present.cumsum() - 1)[items])
    return InteractionSet(int(kept.sum()), int(present.sum()), rows), raw_users[kept], raw_items[present]


def _encode(path, label, listed, raw_ids, counts=None, width=None):
    """(Ragged of per-entity attribute ids, vocabulary size) from `listed` = (entity raw ids, name ids, names).

    Entity e holds each name listed beside raw_ids[e] (ascending, distinct)
    once; the names held by `raw_ids` are numbered in sorted order, and the
    rows built from (entity, id) arrays. Given per-entity `counts`, a count c
    falls in bucket b = (c - 1) // width, which adds the id (name count + b),
    so the vocabulary runs on to the largest bucket. An entity left with no
    ids raises LoadError naming `path`.
    """
    ents, codes, names = listed
    rows = np.searchsorted(raw_ids, ents)
    held = raw_ids.take(rows, mode="clip") == ents
    rows, codes = rows[held], codes[held]
    order = sorted(np.flatnonzero(np.bincount(codes, minlength=len(names))).tolist(), key=names.__getitem__)
    ids = np.zeros(len(names), dtype=np.int64)
    ids[order] = np.arange(len(order))
    ids, size = ids[codes], len(order)
    if counts is not None:
        buckets = (counts - 1) // width
        rows, ids = np.concatenate([rows, np.arange(raw_ids.size)]), np.concatenate([ids, size + buckets])
        size += int(buckets.max()) + 1
    keys = np.sort(rows * size + ids)  # not np.unique: without return_* it imports numpy.ma on first use
    keys = keys[np.diff(keys, prepend=-1) != 0]  # each (entity, id) once, in that order
    lengths = np.bincount(keys // size, minlength=raw_ids.size)
    if not lengths.all():
        raise LoadError(f"{path}: {label} {raw_ids[lengths.argmin()]} has zero attributes")
    return Ragged(np.concatenate([[0], np.cumsum(lengths)]), keys % size), size


def _numbered(names):
    """(codes, distinct): each of `names` as an index into `distinct`, its names in order of first listing."""
    code_of = {}
    return np.array([code_of.setdefault(name, len(code_of)) for name in names], dtype=np.int64), list(code_of)


def _listed(named):
    """The (entity raw ids, name ids, names) `_encode` takes, of a raw id -> set of names dict."""
    pairs = [(raw, name) for raw, names in named.items() for name in names]
    return np.array([raw for raw, _ in pairs], dtype=np.int64), *_numbered([name for _, name in pairs])


def parse_movielens(ratings_path, users_path, items_path):
    """(InteractionSet, AttributeCatalog) of the MovieLens-1M trio.

    Any rating value counts as an implicit positive. User attributes are the
    {gender, age, occupation} triple, each value keyed by its field; item
    attributes are the movie's genres. Files are ISO-8859-1; titles and zip
    codes are discarded. A user or movie listed twice must list the same
    attributes each time, or LoadError names the later line.
    """
    ratings = _int_rows(ratings_path, "::", 4, "iso-8859-1", ("user id", "movie id", "rating", "timestamp"))
    interactions, user_ids, item_ids = _index(ratings_path, ratings)

    profiles = {}  # users.dat: UserID::Gender::Age::Occupation::Zip
    for n, (user, gender, age, occupation, _) in _records(users_path, "::", 5, "iso-8859-1"):
        user = _parse_int(user, users_path, n, "user id")
        profile = {(0, gender), (1, _parse_int(age, users_path, n, "age")),
                   (2, _parse_int(occupation, users_path, n, "occupation"))}
        if profiles.setdefault(user, profile) != profile:
            raise LoadError(f"{users_path}:{n}: user {user} listed twice with another gender, age or occupation")
    user_attrs, user_vocab = _encode(users_path, "user", _listed(profiles), user_ids)

    genres = {}  # movies.dat: MovieID::Title::Genre|Genre|...
    for n, (item, _, names) in _records(items_path, "::", 3, "iso-8859-1"):
        item, names = _parse_int(item, items_path, n, "movie id"), set(names.split("|")) - {""}
        if genres.setdefault(item, names) != names:
            raise LoadError(f"{items_path}:{n}: movie {item} listed twice with other genres")
    item_attrs, item_vocab = _encode(items_path, "item", _listed(genres), item_ids)

    return interactions, AttributeCatalog(user_attrs, item_attrs, user_vocab, item_vocab)


def _plain_attr_lines(data):
    """(int64 ids, names) of an attribute file's bytes in the plain form, else None. Plain: UTF-8 lines
    without "\r" of an id in `_plain_int_table`'s form (so no blank or "#" line), a tab and a name."""
    if b"\r" in data:
        return None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    closers = data.translate(None, _NOT_DELIMITERS) + b"\n"[data.endswith(b"\n"):]
    if closers != b"\t\n" * (len(closers) // 2):
        return None
    fields = text.removesuffix("\n").replace("\n", "\t").split("\t")
    ids = _plain_int_table("\n".join(fields[::2]).encode(), "\t", 1)
    return None if ids is None else (ids[:, 0], fields[1::2])


def _read_attr_file(path, category_map):
    """The (entity raw ids, name ids, names) of an attribute file's lines, names mapped through `category_map`.

    A plain file whose names are all mapped is read whole; any other by `_records`
    and `_parse_int`, each line's id and then its category checked in turn, to the
    same result or the first fault in line order.
    """
    with open(path, "rb") as fh:
        lines = _plain_attr_lines(fh.read())
    if lines is None or category_map is not None and not category_map.keys() >= set(lines[1]):
        ents, names = [], []
        for n, (raw, name) in _records(path, "\t", 2, "utf-8"):
            ents.append(_parse_int(raw, path, n, "entity id"))
            if category_map is not None and name not in category_map:
                raise LoadError(f"{path}:{n}: unmapped category {name!r}")
            names.append(name)
        lines = np.array(ents, dtype=np.int64), names
    ents, (codes, names) = lines[0], _numbered(lines[1])
    if category_map is not None:
        mapped, names = _numbered([category_map[name] for name in names])
        codes = mapped[codes]
    return ents, codes, names


def parse_generic(
    interactions_path,
    user_attr_path,
    item_attr_path,
    category_map_path=None,
):
    """(InteractionSet, AttributeCatalog) of tab-separated UTF-8 interaction and attribute files.

    Users with fewer than MIN_USER_INTERACTIONS interactions are dropped
    before ids are remapped. File-listed attribute names (collapsed through
    the category map when one is given) are encoded first; each user then
    gets a bucket of its interaction count and each item one of its exposure
    (the summed counts of its users), so entities without listed attributes
    still carry one.
    """
    rows = _int_rows(interactions_path, "\t", 3, "utf-8", ("user id", "item id", "timestamp"))
    interactions, user_ids, item_ids = _index(interactions_path, rows, MIN_USER_INTERACTIONS)

    category_map = None
    if category_map_path:
        category_map = {}
        for n, (raw, main) in _records(category_map_path, "\t", 2, "utf-8"):
            if category_map.setdefault(raw, main) != main:
                raise LoadError(f"{category_map_path}:{n}: category {raw!r} mapped twice")
    user_named = _read_attr_file(user_attr_path, category_map)
    item_named = _read_attr_file(item_attr_path, category_map)

    counts = interactions.per_user_items.lengths
    exposure = np.zeros(interactions.num_items, dtype=np.int64)  # > 0: every item keeps a pin
    np.add.at(exposure, interactions.per_user_items.flat, counts.repeat(counts))
    user_attrs, user_vocab = _encode(user_attr_path, "user", user_named, user_ids, counts, USER_BUCKET_SIZE)
    item_attrs, item_vocab = _encode(item_attr_path, "item", item_named, item_ids, exposure, ITEM_BUCKET_SIZE)
    return interactions, AttributeCatalog(user_attrs, item_attrs, user_vocab, item_vocab)


_GAMMA, _MIX1, _MIX2 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_U32, _LOW32, _2_32 = np.uint64(32), np.uint64(0xFFFFFFFF), np.uint64(1 << 32)
_BITS = np.left_shift(1, np.arange(8)).astype(np.uint8)
_SPLIT_TAG = int.from_bytes(b"split", "little")
SPLIT_TABLE_BYTES = 1 << 22  # Floyd's taken bits per chunk of users: a few MB stays in cache


def splitmix64(states):
    """SplitMix64's output for each state of a uint64 array: the state plus the golden gamma, mixed.

    States 0, gamma and 2 * gamma give the generator's first three outputs from
    state 0. Every operand is uint64, so the products wrap without a warning
    (and no operand is promoted to float64, as uint64 mixed with int64 would be).
    """
    z = states + _GAMMA
    z = (z ^ z >> np.uint64(30)) * _MIX1
    z = (z ^ z >> np.uint64(27)) * _MIX2
    return z ^ z >> np.uint64(31)


def seed_key(seed, *tags):
    """SplitMix64 folded over the seed's word count, its 64-bit words (low first; a seed
    may pass 64 bits) and the tag words, as a 1-element uint64 array: the prefix that
    lane_keys folds each lane into."""
    seed = int(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> shift & 0xFFFFFFFFFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 64)]
    key = np.zeros(1, dtype=np.uint64)
    for word in (len(words), *words, *tags):
        key = splitmix64(key ^ np.array([word], dtype=np.uint64))
    return key


def lane_keys(prefix, lanes):
    """Each lane's uint64 key, the seed_key `prefix` with the lane folded in: a user under (seed,
    the split's tag) for the split, a negative slot under (seed, the epoch tag, epoch) for the sampler."""
    return splitmix64(prefix ^ lanes.astype(np.uint64))


def uniform_below(keys, bounds, slot):
    """One exactly uniform draw from [0, bound) per lane of the uint64 arrays (1 <= bound < 2**32).

    Lemire's method on the high 32 bits of SplitMix64(key ^ (slot | attempt << 32)):
    a lane whose low product word falls under (2**32 - bound) % bound is
    rejected and draws again at the next attempt (only a low word below bound can be).
    """
    draws = np.empty_like(bounds)
    lanes, attempt = slice(None), 0
    while True:
        n = bounds[lanes]
        wide = (splitmix64(keys[lanes] ^ np.uint64(slot | attempt << 32)) >> _U32) * n
        draws[lanes] = wide >> _U32
        near = np.flatnonzero(wide & _LOW32 < n)  # the threshold (2**32 - n) % n is below n
        rejected = near[wide[near] & _LOW32 < (_2_32 - n[near]) % n[near]]
        if not rejected.size:
            return draws
        lanes, attempt = np.arange(bounds.size)[lanes][rejected], attempt + 1


def _floyd_slots(keys, pools, out):
    """Fill `out` (rows, 99) with 99 distinct uniform slots of [0, pool) per row, unsorted.

    Floyd's algorithm, one vectorised round per column: round r draws t from
    [0, last] with last = pool - 99 + r, at slot 1 + r, and keeps t, or last
    when t is already taken; one bit per (row, slot) records what is taken.
    """
    width = -(-int(pools.max()) // 8)
    taken = np.zeros(pools.size * width, dtype=np.uint8)
    base = np.arange(pools.size, dtype=np.int64) * (8 * width)
    top = pools - NUM_TEST_NEGATIVES
    for r in range(NUM_TEST_NEGATIVES):
        last = top + r
        pick = uniform_below(keys, (last + 1).astype(np.uint64), 1 + r).astype(np.int64)
        cell = base + pick
        pick = np.where(taken[cell >> 3] & _BITS[cell & 7], last, pick)
        cell = base + pick
        taken[cell >> 3] |= _BITS[cell & 7]
        out[:, r] = pick


def _split_draws(seed, lengths, num_items):
    """(picks, slots): each user's held-out index into its items, drawn at slot 0, and its
    99 distinct unobserved-pool slots, drawn by Floyd's algorithm in chunks of users."""
    keys = lane_keys(seed_key(seed, _SPLIT_TAG), np.arange(lengths.size))
    picks = uniform_below(keys, lengths.astype(np.uint64), 0).astype(np.int64)
    slots = np.empty((lengths.size, NUM_TEST_NEGATIVES), dtype=np.int64)
    pools = num_items - lengths
    budget = min(SPLIT_TABLE_BYTES, slots.nbytes)  # no larger than the slots it fills, or one user's row
    chunk = max(1, budget * 8 // int(pools.max(initial=1)))
    for lo in range(0, lengths.size, chunk):
        _floyd_slots(keys[lo:lo + chunk], pools[lo:lo + chunk], slots[lo:lo + chunk])
    return picks, slots


def leave_one_out_split(data, seed):
    """Hold out one uniform interaction per user plus 99 uniform distinct unobserved items.

    Every draw is integer arithmetic on a counter hash, SplitMix64 keyed by
    (seed, user, slot, attempt): slot 0 picks the held-out interaction among
    the user's items, slots 1-99 run Floyd's algorithm over the user's pool of
    untouched items (uniform_below, _floyd_slots). A user's draws depend only
    on the seed, the user, its item count and num_items: not on the order
    users are visited in, nor on numpy's sampling algorithms, so split.npy is
    a function of the raw files and the seed alone. Slot j of the ascending
    pool is item j + #{t : mine[t] - t <= j}, counted by one search of the
    sorted keys into the sorted slots. Train rows are the full rows less the held-out item.
    """
    offsets, flat, lengths = data.per_user_items.offsets, data.per_user_items.flat, data.per_user_items.lengths
    bad = np.flatnonzero((lengths < 2) | (data.num_items - lengths < NUM_TEST_NEGATIVES))
    if bad.size:
        u, n = bad[0], lengths[bad[0]]
        if n < 2:
            raise SplitError(f"user {u} has {n} interaction(s); need at least 2")
        raise SplitError(f"user {u} has only {data.num_items - n} unobserved items; need {NUM_TEST_NEGATIVES}")
    picks, slots = _split_draws(seed, lengths, data.num_items)
    row_keys = np.arange(data.num_users, dtype=np.int64) * data.num_items  # keeps rows apart
    keys = flat - np.arange(flat.size) + np.repeat(row_keys + offsets[:-1], lengths)
    slots.sort(axis=1)
    # keys <= each needle: both sorted, so each key's place among the needles, counted and summed
    below = np.bincount(np.searchsorted((slots + row_keys[:, None]).ravel(), keys), minlength=slots.size + 1)
    negatives = slots + below[:-1].cumsum().reshape(slots.shape) - offsets[:-1, None]
    held = offsets[:-1] + picks
    positives = flat[held]

    train = Ragged(offsets - np.arange(offsets.size), np.delete(flat, held))
    return SplitDataset(InteractionSet(data.num_users, data.num_items, train), positives, negatives)


# -- prepared run ----------------------------------------------------------
# Three files of little-endian int64 .npy (v1.0) records, counts first, read in
# order by numpy.load(fh, allow_pickle=False): train.npy [U, I], then the train
# rows as offsets (U + 1,) and flat items (n,); split.npy [U, I], positives (U,),
# negatives (U, 99); attributes.npy [user_vocab, item_vocab], then each side's
# rows the same way. Ids ascend within each row, and the loaders wrap them as is.

TRAIN_FILE, SPLIT_FILE, ATTRS_FILE = PREPARED_FILES = "train.npy", "split.npy", "attributes.npy"


def _write_records(path, records):
    with open(path, "wb") as fh:  # a handle: np.save given a name appends ".npy"
        for record in records:
            np.save(fh, np.ascontiguousarray(record, dtype="<i8"), allow_pickle=False)


def _read_records(path, shapes, read_last=None):
    """One int64 record per expected shape (None: any length) from `path`.

    Headers are checked before data is read: no claimed shape outgrows the file.
    Given read_last, the last record is read_last(fh, shape), which reads its data.
    """
    records = []
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        for k, want in enumerate(shapes):
            try:
                if np.lib.format.read_magic(fh) != (1, 0):
                    raise ValueError("not a version 1.0 .npy record")
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            except (ValueError, TypeError, SyntaxError, tokenize.TokenError) as exc:  # header text
                raise LoadError(f"{path}: record {k}: {exc}") from None
            count = math.prod(shape)
            if (dtype != "<i8" or fortran or len(shape) != len(want) or count * 8 > size - fh.tell()
                    or any(n < 0 or (w is not None and n != w) for n, w in zip(shape, want))):
                raise LoadError(f"{path}: record {k} is {dtype} {shape}, expected C-order "
                                f"int64 {want} within the file")
            if read_last is not None and k == len(shapes) - 1:
                records.append(read_last(fh, shape))
            else:
                records.append(np.fromfile(fh, dtype="<i8", count=count).reshape(shape))
        if fh.tell() != size:
            raise LoadError(f"{path}: {size - fh.tell()} bytes after the last record")
    return records


def _write_rows(path, counts, *sides):
    """Write the counts record, then each Ragged side's offsets and flat ids."""
    _write_records(path, [counts, *(ids for rows in sides for ids in (rows.offsets, rows.flat))])


def _read_rows(path, sides, build):
    """build(*counts, *one Ragged per side) of a file _write_rows wrote; its ShapeError or LoadError names `path`."""
    counts, *csr = _read_records(path, [(2,)] + [(None,)] * (2 * sides))
    try:
        return build(*counts.tolist(), *(Ragged(offsets, flat) for offsets, flat in zip(csr[::2], csr[1::2])))
    except (ShapeError, LoadError) as exc:
        raise LoadError(f"{path}: {exc}") from None


def save_interactions(iset, path):
    _write_rows(path, [iset.num_users, iset.num_items], iset.per_user_items)


def load_interactions(path):
    return _read_rows(path, 1, InteractionSet)


def save_split(split, path):
    counts = [split.train.num_users, split.train.num_items]
    _write_records(path, [counts, split.test_positives, split.test_negatives])


def load_split(path, train):
    """The split of `train`, checked for what sampling and evaluation rely on.

    Users are read and checked in blocks of SPLIT_CHECK_USERS: each block of int64
    negatives goes through _test_items into one array of id_dtype(num_items) as it is
    read, and a block's test items are looked up in a bitmap of that block's rows of
    the train set alone, so train.pair_bits is not built.
    """
    num_users, num_items = train.num_users, train.num_items
    blocks = [slice(start, min(start + SPLIT_CHECK_USERS, num_users))
              for start in range(0, num_users, SPLIT_CHECK_USERS)]

    def read_negatives(fh, shape):
        negatives = np.empty(shape, dtype=id_dtype(num_items))
        for b in blocks:
            block = np.fromfile(fh, dtype="<i8", count=negatives[b].size)
            negatives[b] = _test_items(block, num_items, f"{path}: ").reshape(-1, NUM_TEST_NEGATIVES)
        return negatives

    counts, positives, negatives = _read_records(
        path, [(2,), (num_users,), (num_users, NUM_TEST_NEGATIVES)], read_negatives)
    if counts.tolist() != [num_users, num_items]:
        raise LoadError(f"{path}: split counts do not match the train set")
    positives = _test_items(positives, num_items, f"{path}: ")
    if any((negatives[b, 1:] <= negatives[b, :-1]).any() for b in blocks):
        raise LoadError(f"{path}: test negatives are not strictly increasing per user")
    offsets, flat, lengths = train.per_user_items.offsets, train.per_user_items.flat, train.per_user_items.lengths
    grid = np.arange(SPLIT_CHECK_USERS, dtype=np.int64) * num_items  # each row's first key in a block's own grid
    for b in blocks:
        rows, mine, n = grid[:b.stop - b.start], flat[offsets[b.start]:offsets[b.stop]], lengths[b]
        bits = np.zeros(-(-rows.size * num_items // 8), dtype=np.uint8)
        _set_bits(bits, rows.repeat(n) + mine)
        if ((positives[b].repeat(n) == mine).any() or (negatives[b] == positives[b, None]).any()
                or _bits_at(bits, rows[:, None] + negatives[b]).any()):
            raise LoadError(f"{path}: a test item is already an observed item of its user")
    return SplitDataset(train, positives, negatives)


def save_catalog(catalog, path):
    _write_rows(path, [catalog.user_vocab_size, catalog.item_vocab_size], catalog.user_attrs, catalog.item_attrs)


def load_catalog(path):
    return _read_rows(path, 2, _catalog)


def _catalog(user_vocab, item_vocab, user_attrs, item_attrs):
    for rows, size in ((user_attrs, user_vocab), (item_attrs, item_vocab)):
        if rows.max_id + 1 != size:  # prepare writes no unused (table-inflating) ids
            raise LoadError(f"vocabulary size {size} is not the largest attribute id + 1")
    return AttributeCatalog(user_attrs, item_attrs, user_vocab, item_vocab)


def save_prepared(out_dir, split, catalog):
    """Write the prepared run (train set, split, attribute catalog) into out_dir, each file beside
    its path first: none is renamed over an earlier run's file until all three are complete."""
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name in PREPARED_FILES]
    with replacing(*paths) as [train_path, split_path, attrs_path]:
        save_interactions(split.train, train_path)
        save_split(split, split_path)
        save_catalog(catalog, attrs_path)


def prepared_fingerprint(out_dir):
    """crc32 of the prepared run's three files, chained in save_prepared's order, as 8 hex digits."""
    crc = 0
    for name in PREPARED_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                crc = zlib.crc32(chunk, crc)
    return f"{crc:08x}"


def load_prepared(out_dir):
    """The (SplitDataset, AttributeCatalog) that save_prepared wrote into out_dir."""
    train = load_interactions(os.path.join(out_dir, TRAIN_FILE))
    split = load_split(os.path.join(out_dir, SPLIT_FILE), train)
    catalog = load_catalog(os.path.join(out_dir, ATTRS_FILE))
    if (len(catalog.user_attrs), len(catalog.item_attrs)) != (train.num_users, train.num_items):
        raise LoadError(f"{out_dir}: the catalog rows do not match the {train.num_users} users "
                        f"and {train.num_items} items")
    return split, catalog
