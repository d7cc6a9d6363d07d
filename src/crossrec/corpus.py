"""Dataset ingestion: parsing, attribute encoding, and the leave-one-out split.

Two on-disk layouts are understood: the MovieLens-1M "::"-separated trio
(ratings/users/movies) and a generic UTF-8 tab-separated layout for
pin-style data (interactions plus per-entity attribute name files, with an
optional category consolidation map). Every rating or pin becomes an
implicit positive; raw ids are remapped to dense 0-based indices sorted by
raw id so the mapping is reproducible.
"""

from __future__ import annotations

import math
import os
import tokenize
from dataclasses import dataclass, field

import numpy as np

from .tensorcore import Ragged, ShapeError, seeded_rng


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
    """Deduplicated (user, item, timestamp) triples over dense 0-based ids.

    per_user_items is a Ragged with one row per user: its items, ascending.
    """

    num_users: int
    num_items: int
    users: np.ndarray
    items: np.ndarray
    timestamps: np.ndarray
    per_user_items: Ragged = field(repr=False)

    @classmethod
    def from_arrays(cls, num_users, num_items, users, items, timestamps):
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        timestamps = np.asarray(timestamps, dtype=np.int64)
        if not (len(users) == len(items) == len(timestamps)):
            raise LoadError("interaction columns have mismatched lengths")
        if len(users) and (users.min() < 0 or users.max() >= num_users):
            raise LoadError("user id out of range")
        if len(items) and (items.min() < 0 or items.max() >= num_items):
            raise LoadError("item id out of range")
        encoded = users * num_items + items
        order = np.argsort(encoded, kind="stable")
        encoded = encoded[order]
        if (encoded[1:] == encoded[:-1]).any():
            raise LoadError("duplicate (user, item) pair")
        bounds = np.searchsorted(encoded, np.arange(num_users + 1) * num_items)
        return cls(num_users, num_items, users, items, timestamps, Ragged(bounds, items[order]))

    def __len__(self):
        return len(self.users)


@dataclass
class AttributeCatalog:
    """Per-entity attribute id sets, one Ragged per side, with their vocabulary sizes.

    Either side may be given as per-entity id lists, which are sorted into a
    Ragged here; every user and item carries at least one attribute and
    every id lies inside its vocabulary (checked at construction).
    """

    user_attrs: Ragged
    item_attrs: Ragged
    user_vocab_size: int
    item_vocab_size: int

    def __post_init__(self):
        self.user_attrs = _checked_rows("user", self.user_attrs, self.user_vocab_size)
        self.item_attrs = _checked_rows("item", self.item_attrs, self.item_vocab_size)


def _checked_rows(label, rows, vocab):
    """`rows` as a Ragged (built from them if they are id lists).

    Raises LoadError naming the first entity that has no ids or an id
    outside [0, vocab).
    """
    if not isinstance(rows, Ragged):
        rows = Ragged.from_rows(rows)
    lengths = np.diff(rows.offsets)
    segments = np.repeat(np.arange(lengths.size), lengths)
    bad = np.concatenate([np.flatnonzero(lengths == 0), segments[(rows.flat < 0) | (rows.flat >= vocab)]])
    if bad.size:
        first = bad.min()
        if lengths[first] == 0:
            raise LoadError(f"{label} {first} has zero attributes")
        raise LoadError(f"{label} {first} attribute id outside vocabulary ({vocab})")
    return rows


@dataclass
class SplitDataset:
    """Leave-one-out split: train set plus one positive and 99 negatives per user."""

    train: InteractionSet
    test_positives: np.ndarray       # (num_users,)
    test_negatives: np.ndarray       # (num_users, 99)


def full_membership(split):
    """Sorted encodings of every observed (user, item) pair, train and test."""
    train = split.train
    enc = train.users * train.num_items + train.items
    pos = np.arange(train.num_users, dtype=np.int64) * train.num_items + split.test_positives
    return np.sort(np.concatenate([enc, pos]))


@dataclass
class ParsedData:
    interactions: InteractionSet
    catalog: AttributeCatalog
    raw_user_ids: np.ndarray   # raw_user_ids[k] is the raw id mapped to dense id k
    raw_item_ids: np.ndarray


NUM_TEST_NEGATIVES = 99


def _read_lines(path, encoding="utf-8"):
    with open(path, "r", encoding=encoding) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def _parse_int(text, path, lineno, what):
    # ASCII decimal only: int() also takes "1_0", " 10 ", "+10" and non-ASCII
    # digits, which would merge distinct raw ids into one (tensorcore._is_count
    # with the minus stripped, inlined: this runs once per raw field)
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ParseError(f"{path}:{lineno}: {what} is not an integer: {text!r}")
    value = int(text)
    if not -2**63 <= value < 2**63:  # ids and timestamps are stored as int64
        raise ParseError(f"{path}:{lineno}: {what} does not fit in 64 bits: {text!r}")
    return value


def _dedupe_triples(raw_users, raw_items, timestamps):
    """Keep the first occurrence of each (user, item) pair, preserving order."""
    seen = set()
    keep = []
    for idx, pair in enumerate(zip(raw_users, raw_items)):
        if pair not in seen:
            seen.add(pair)
            keep.append(idx)
    keep = np.asarray(keep, dtype=np.int64)
    return (
        np.asarray(raw_users, dtype=np.int64)[keep],
        np.asarray(raw_items, dtype=np.int64)[keep],
        np.asarray(timestamps, dtype=np.int64)[keep],
    )


def _remap(raw_values):
    """Dense 0-based ids assigned in ascending raw-id order."""
    uniq = np.unique(raw_values)
    lookup = {int(raw): idx for idx, raw in enumerate(uniq)}
    return uniq, lookup


def parse_movielens(ratings_path, users_path, items_path):
    """Parse the MovieLens-1M trio into interactions and attributes.

    Any rating value counts as an implicit positive. User attributes are the
    {gender, age bucket, occupation} triple encoded against per-field
    vocabularies; item attributes are the movie's genres. Titles may be
    ISO-8859-1 and are discarded.
    """
    raw_users, raw_items, stamps = [], [], []
    for lineno, line in _read_lines(ratings_path, encoding="iso-8859-1"):
        fields = line.split("::")
        if len(fields) != 4:
            raise ParseError(f"{ratings_path}:{lineno}: expected 4 '::' fields, got {len(fields)}")
        u = _parse_int(fields[0], ratings_path, lineno, "user id")
        i = _parse_int(fields[1], ratings_path, lineno, "movie id")
        _parse_int(fields[2], ratings_path, lineno, "rating")
        t = _parse_int(fields[3], ratings_path, lineno, "timestamp")
        raw_users.append(u)
        raw_items.append(i)
        stamps.append(t)
    if not raw_users:
        raise LoadError(f"{ratings_path}: no interactions")
    raw_users, raw_items, stamps = _dedupe_triples(raw_users, raw_items, stamps)

    user_ids, user_map = _remap(raw_users)
    item_ids, item_map = _remap(raw_items)

    # users.dat: UserID::Gender::Age::Occupation::Zip
    user_fields = {}
    for lineno, line in _read_lines(users_path, encoding="iso-8859-1"):
        fields = line.split("::")
        if len(fields) != 5:
            raise ParseError(f"{users_path}:{lineno}: expected 5 '::' fields, got {len(fields)}")
        raw = _parse_int(fields[0], users_path, lineno, "user id")
        if raw in user_map:
            user_fields[raw] = (fields[1], fields[2], fields[3])
    missing = [int(raw) for raw in user_ids if int(raw) not in user_fields]
    if missing:
        raise LoadError(f"{users_path}: user {missing[0]} has zero attributes (no record)")

    genders = sorted({v[0] for v in user_fields.values()})
    ages = sorted({v[1] for v in user_fields.values()}, key=int)
    occupations = sorted({v[2] for v in user_fields.values()}, key=int)
    age_base = len(genders)
    occ_base = age_base + len(ages)
    user_vocab = occ_base + len(occupations)
    user_attrs = []
    for raw in user_ids:
        g, a, o = user_fields[int(raw)]
        user_attrs.append(
            [genders.index(g), age_base + ages.index(a), occ_base + occupations.index(o)]
        )

    # movies.dat: MovieID::Title::Genre|Genre|...
    item_genres = {}
    for lineno, line in _read_lines(items_path, encoding="iso-8859-1"):
        fields = line.split("::")
        if len(fields) != 3:
            raise ParseError(f"{items_path}:{lineno}: expected 3 '::' fields, got {len(fields)}")
        raw = _parse_int(fields[0], items_path, lineno, "movie id")
        if raw in item_map:
            item_genres[raw] = sorted({g for g in fields[2].split("|") if g})
    missing = [int(raw) for raw in item_ids if int(raw) not in item_genres or not item_genres[int(raw)]]
    if missing:
        raise LoadError(f"{items_path}: item {missing[0]} has zero attributes")

    genre_vocab = sorted({g for gs in item_genres.values() for g in gs})
    genre_index = {g: idx for idx, g in enumerate(genre_vocab)}
    item_attrs = [[genre_index[g] for g in item_genres[int(raw)]] for raw in item_ids]

    interactions = InteractionSet.from_arrays(
        len(user_ids), len(item_ids),
        [user_map[int(u)] for u in raw_users],
        [item_map[int(i)] for i in raw_items],
        stamps,
    )
    catalog = AttributeCatalog(user_attrs, item_attrs, user_vocab, len(genre_vocab))
    return ParsedData(interactions, catalog, user_ids, item_ids)


def bucketize(count, bucket_size):
    """The 0-based group of a count under fixed-size grouping: floor((count-1)/size)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if bucket_size < 1:
        raise ValueError(f"bucket_size must be >= 1, got {bucket_size}")
    return (count - 1) // bucket_size


def item_pin_attribute(interactions, bucket_size):
    """Per-item popularity bucket from interaction-weighted exposure.

    An item's exposure is the sum, over every user who interacted with it,
    of that user's total interaction count; items nobody touched land in
    bucket 0.
    """
    user_counts = np.diff(interactions.per_user_items.offsets)
    pins = np.zeros(interactions.num_items, dtype=np.int64)
    np.add.at(pins, interactions.items, user_counts[interactions.users])
    buckets = np.zeros(interactions.num_items, dtype=np.int64)
    touched = pins > 0
    buckets[touched] = (pins[touched] - 1) // bucket_size
    return buckets


def _read_attr_file(path, category_map):
    attrs = {}
    for lineno, line in _read_lines(path):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(f"{path}:{lineno}: expected 2 tab-separated fields, got {len(fields)}")
        raw = _parse_int(fields[0], path, lineno, "entity id")
        name = fields[1]
        if category_map is not None:
            if name not in category_map:
                raise LoadError(f"{path}:{lineno}: unmapped category {name!r}")
            name = category_map[name]
        attrs.setdefault(raw, set()).add(name)
    return attrs


def _read_category_map(path):
    mapping = {}
    for lineno, line in _read_lines(path):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(f"{path}:{lineno}: expected 2 tab-separated fields, got {len(fields)}")
        raw, main = fields
        if raw in mapping and mapping[raw] != main:
            raise LoadError(f"{path}:{lineno}: category {raw!r} mapped twice")
        mapping[raw] = main
    return mapping


def parse_generic(
    interactions_path,
    user_attr_path,
    item_attr_path,
    category_map_path=None,
    min_user_interactions=10,
    user_bucket_size=40,
    item_bucket_size=50,
):
    """Parse tab-separated interaction and attribute files.

    Users with fewer than `min_user_interactions` interactions are dropped
    before ids are remapped. File-listed attribute names (collapsed through
    the category map when one is given) are encoded first; each user then
    gets an interaction-count bucket and each item an exposure bucket, so
    entities without listed attributes still carry one.
    """
    raw_users, raw_items, stamps = [], [], []
    for lineno, line in _read_lines(interactions_path):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(
                f"{interactions_path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        raw_users.append(_parse_int(fields[0], interactions_path, lineno, "user id"))
        raw_items.append(_parse_int(fields[1], interactions_path, lineno, "item id"))
        stamps.append(_parse_int(fields[2], interactions_path, lineno, "timestamp"))
    if not raw_users:
        raise LoadError(f"{interactions_path}: no interactions")
    raw_users, raw_items, stamps = _dedupe_triples(raw_users, raw_items, stamps)

    uniq, counts = np.unique(raw_users, return_counts=True)
    kept = {int(u) for u, c in zip(uniq, counts) if c >= min_user_interactions}
    if not kept:
        raise LoadError(f"{interactions_path}: empty dataset after the >= {min_user_interactions} filter")
    mask = np.fromiter((int(u) in kept for u in raw_users), dtype=bool, count=len(raw_users))
    raw_users, raw_items, stamps = raw_users[mask], raw_items[mask], stamps[mask]

    user_ids, user_map = _remap(raw_users)
    item_ids, item_map = _remap(raw_items)
    interactions = InteractionSet.from_arrays(
        len(user_ids), len(item_ids),
        [user_map[int(u)] for u in raw_users],
        [item_map[int(i)] for i in raw_items],
        stamps,
    )

    category_map = _read_category_map(category_map_path) if category_map_path else None
    user_named = _read_attr_file(user_attr_path, category_map)
    item_named = _read_attr_file(item_attr_path, category_map)

    user_names = sorted({n for raw, names in user_named.items() if raw in user_map for n in names})
    item_names = sorted({n for raw, names in item_named.items() if raw in item_map for n in names})
    user_name_index = {n: i for i, n in enumerate(user_names)}
    item_name_index = {n: i for i, n in enumerate(item_names)}

    user_buckets = np.array(
        [bucketize(n, user_bucket_size) for n in np.diff(interactions.per_user_items.offsets).tolist()],
        dtype=np.int64,
    )
    item_buckets = item_pin_attribute(interactions, item_bucket_size)

    user_bucket_base = len(user_names)
    item_bucket_base = len(item_names)
    user_vocab = user_bucket_base + int(user_buckets.max()) + 1
    item_vocab = item_bucket_base + int(item_buckets.max()) + 1

    user_attrs = []
    for dense, raw in enumerate(user_ids):
        ids = [user_name_index[n] for n in user_named.get(int(raw), ())]
        ids.append(user_bucket_base + int(user_buckets[dense]))
        user_attrs.append(ids)
    item_attrs = []
    for dense, raw in enumerate(item_ids):
        ids = [item_name_index[n] for n in item_named.get(int(raw), ())]
        ids.append(item_bucket_base + int(item_buckets[dense]))
        item_attrs.append(ids)

    catalog = AttributeCatalog(user_attrs, item_attrs, user_vocab, item_vocab)
    return ParsedData(interactions, catalog, user_ids, item_ids)


def leave_one_out_split(data, seed):
    """Hold out one seeded-random interaction per user plus 99 fresh negatives.

    Each user draws from an independent stream derived from (seed, user), so
    the split does not depend on iteration order. Negatives are sampled
    without replacement from items the user never touched anywhere.
    """
    positives = np.empty(data.num_users, dtype=np.int64)
    negatives = np.empty((data.num_users, NUM_TEST_NEGATIVES), dtype=np.int64)
    all_items = np.arange(data.num_items, dtype=np.int64)
    for u, mine in enumerate(data.per_user_items):
        if len(mine) < 2:
            raise SplitError(f"user {u} has {len(mine)} interaction(s); need at least 2")
        candidates = data.num_items - len(mine)
        if candidates < NUM_TEST_NEGATIVES:
            raise SplitError(
                f"user {u} has only {candidates} unobserved items; need {NUM_TEST_NEGATIVES}"
            )
        rng = seeded_rng(seed, "split", u)
        positives[u] = mine[rng.integers(len(mine))]
        pool = np.setdiff1d(all_items, mine, assume_unique=True)
        negatives[u] = np.sort(rng.choice(pool, size=NUM_TEST_NEGATIVES, replace=False))

    held = positives[data.users] == data.items
    keep = ~held
    train = InteractionSet.from_arrays(
        data.num_users, data.num_items,
        data.users[keep], data.items[keep], data.timestamps[keep],
    )
    return SplitDataset(train, positives, negatives)


# -- prepared run ----------------------------------------------------------
# Three files of little-endian int64 .npy (v1.0) records, counts first, read in
# order by numpy.load(fh, allow_pickle=False): train.npy [U, I], (3, n) users/
# items/timestamps; split.npy [U, I], positives (U,), negatives (U, 99);
# attributes.npy [user_vocab, item_vocab], then each side's Ragged as its
# offsets and flat ids (sorted within each row), which load_catalog wraps as is.

TRAIN_FILE, SPLIT_FILE, ATTRS_FILE = "train.npy", "split.npy", "attributes.npy"


def _write_records(path, records):
    with open(path, "wb") as fh:  # a handle: np.save given a name appends ".npy"
        for record in records:
            np.save(fh, np.ascontiguousarray(record, dtype="<i8"), allow_pickle=False)


def _read_records(path, shapes):
    """One int64 record per expected shape (None: any length) from `path`.

    Headers are checked before data is read: no claimed shape outgrows the file.
    """
    records = []
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        for k, want in enumerate(shapes):
            try:
                if np.lib.format.read_magic(fh) != (1, 0):
                    raise ValueError("not a version 1.0 .npy record")
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            except (ValueError, SyntaxError, tokenize.TokenError) as exc:  # header text
                raise LoadError(f"{path}: record {k}: {exc}") from None
            count = math.prod(shape)
            if (dtype != "<i8" or fortran or len(shape) != len(want) or count * 8 > size - fh.tell()
                    or any(n < 0 or (w is not None and n != w) for n, w in zip(shape, want))):
                raise LoadError(f"{path}: record {k} is {dtype} {shape}, expected C-order "
                                f"int64 {want} within the file")
            records.append(np.fromfile(fh, dtype="<i8", count=count).reshape(shape))
        if fh.tell() != size:
            raise LoadError(f"{path}: {size - fh.tell()} bytes after the last record")
    return records


def save_interactions(iset, path):
    _write_records(path, [[iset.num_users, iset.num_items], [iset.users, iset.items, iset.timestamps]])


def load_interactions(path):
    counts, columns = _read_records(path, [(2,), (3, None)])
    num_users, num_items = counts.tolist()
    if not 0 < num_users <= columns.shape[1] or num_items < 0:  # each user keeps a train item
        raise LoadError(f"{path}: {num_users} users, {num_items} items and "
                        f"{columns.shape[1]} interactions do not fit together")
    return InteractionSet.from_arrays(num_users, num_items, *columns)


def save_split(split, path):
    counts = [split.train.num_users, split.train.num_items]
    _write_records(path, [counts, split.test_positives, split.test_negatives])


def load_split(path, train):
    """The split of `train`, checked for what sampling and evaluation rely on."""
    counts, positives, negatives = _read_records(
        path, [(2,), (train.num_users,), (train.num_users, NUM_TEST_NEGATIVES)])
    if counts.tolist() != [train.num_users, train.num_items]:
        raise LoadError(f"{path}: split counts do not match the train set")
    if any(ids.size and (ids.min() < 0 or ids.max() >= train.num_items) for ids in (positives, negatives)):
        raise LoadError(f"{path}: a test item lies outside [0, {train.num_items})")
    if (negatives[:, 1:] <= negatives[:, :-1]).any():
        raise LoadError(f"{path}: test negatives are not strictly increasing per user")
    split = SplitDataset(train, positives, negatives)
    observed = full_membership(split)  # train pairs are unique: a repeat is a positive in train
    enc = np.arange(train.num_users, dtype=np.int64)[:, None] * train.num_items + negatives
    found = np.minimum(np.searchsorted(observed, enc), observed.size - 1)
    if (observed[1:] == observed[:-1]).any() or (observed[found] == enc).any():
        raise LoadError(f"{path}: a test item is already an observed item of its user")
    return split


def save_catalog(catalog, path):
    records = [[catalog.user_vocab_size, catalog.item_vocab_size]]
    for attrs in (catalog.user_attrs, catalog.item_attrs):
        records += [attrs.offsets, attrs.flat]
    _write_records(path, records)


def load_catalog(path):
    vocab, *csr = _read_records(path, [(2,)] + [(None,)] * 4)
    sides = []
    for offsets, flat, size in zip(csr[::2], csr[1::2], vocab.tolist()):
        try:
            sides.append(Ragged(offsets, flat))
        except ShapeError as exc:
            raise LoadError(f"{path}: attribute {exc}") from None
        if flat.max(initial=-1) + 1 != size:  # prepare writes no unused (table-inflating) ids
            raise LoadError(f"{path}: vocabulary size {size} is not the largest attribute id + 1")
    return AttributeCatalog(*sides, *vocab.tolist())


def save_prepared(out_dir, split, catalog):
    """Write the prepared run (train set, split, attribute catalog) into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    save_interactions(split.train, os.path.join(out_dir, TRAIN_FILE))
    save_split(split, os.path.join(out_dir, SPLIT_FILE))
    save_catalog(catalog, os.path.join(out_dir, ATTRS_FILE))


def load_prepared(out_dir):
    """The (SplitDataset, AttributeCatalog) that save_prepared wrote into out_dir."""
    train = load_interactions(os.path.join(out_dir, TRAIN_FILE))
    split = load_split(os.path.join(out_dir, SPLIT_FILE), train)
    catalog = load_catalog(os.path.join(out_dir, ATTRS_FILE))
    if (len(catalog.user_attrs), len(catalog.item_attrs)) != (train.num_users, train.num_items):
        raise LoadError(f"{out_dir}: the catalog rows do not match the {train.num_users} users "
                        f"and {train.num_items} items")
    return split, catalog
