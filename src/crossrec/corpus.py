"""Dataset ingestion: one read -> index -> encode pipeline, the leave-one-out
split, and the prepared-run files.

Both raw layouts run the same three steps. `_records` is the one line reader
for the MovieLens-1M "::"-separated trio (ratings/users/movies, ISO-8859-1)
and the generic tab-separated UTF-8 layout for pin-style data (interactions,
per-entity attribute name files, an optional category consolidation map);
`_int_rows` converts a ratings or interactions file in the plain all-integer
form whole, with the same result. `_index` turns the interaction rows into
dense ids: every rating or pin is an implicit positive, the first occurrence
of a repeated (user, item) pair wins, and raw ids map to 0-based ids in
ascending raw-id order, so the mapping is reproducible. `_encode` numbers each
entity's attribute names over their sorted vocabulary and rejects an entity
left with none.
"""

from __future__ import annotations

import math
import os
import tokenize
import zlib
from dataclasses import dataclass, field

import numpy as np

from .tensorcore import Ragged, ShapeError, decimal_int, seeded_rng


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


NUM_TEST_NEGATIVES = 99
MIN_USER_INTERACTIONS = 10  # generic layout: sparser users are dropped
USER_BUCKET_SIZE = 40       # generic layout: interactions per user-activity bucket
ITEM_BUCKET_SIZE = 50       # generic layout: pins per item-exposure bucket


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
    # ids and timestamps are stored as int64; "1_0" or "+10" would merge distinct raw ids
    try:
        return decimal_int(text, 64)
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: {what} {exc}: {text!r}") from None


def _plain_int_table(data, sep, width):
    """The (n, width) int64 table of a raw file's bytes if they are in the plain form, else None.

    Plain: every line (the last may lack its "\n") is `width` fields split by
    `sep`, each an optional "-" and ASCII digits, 1-18 bytes in all (so it fits
    int64). Files of that form are a subset of what `_records` + `_parse_int`
    accept, and they read them to the same table.
    """
    sep = sep.encode()
    tabbed = data.replace(sep, b"\t")  # leftmost first, as str.split
    if data.translate(None, sep + b"0123456789-\n") or tabbed.translate(None, b"\t0123456789-\n"):
        return None  # a "#", "\r", non-ASCII or stray separator byte
    tabbed = b"\n" + tabbed + b"\n"[tabbed.endswith(b"\n"):]  # every field between two delimiters
    buf = np.frombuffer(tabbed, dtype=np.uint8)
    delims = np.flatnonzero(buf <= ord("\n"))
    lengths, closers = np.diff(delims) - 1, buf[delims[1:]]  # closers: the byte after each field
    minus = np.flatnonzero(buf == ord("-"))
    if (closers.size % width or lengths.min() < 1 or lengths.max() > 18
            or (closers.reshape(-1, width) != [ord("\t")] * (width - 1) + [ord("\n")]).any()
            or (buf[minus - 1] > ord("\n")).any() or (buf[minus + 1] < ord("0")).any()):
        return None
    # only now: fromstring stops silently at a token it cannot parse
    return np.fromstring(tabbed, dtype=np.int64, sep=" ").reshape(-1, width)


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


def _index(path, rows, min_user_interactions=1):
    """(InteractionSet, raw user ids, raw item ids) from raw (user, item, timestamp) rows.

    The first occurrence of each (user, item) pair is kept, users left with
    fewer than `min_user_interactions` pairs are dropped, and the remaining
    raw ids map to dense ids in ascending raw-id order.
    """
    table = np.array(rows, dtype=np.int64).reshape(-1, 3)
    if not table.size:
        raise LoadError(f"{path}: no interactions")
    (_, users), (_, items) = (np.unique(raw, return_inverse=True) for raw in table.T[:2])
    _, first = np.unique(users * (items.max() + 1) + items, return_index=True)  # first occurrences
    keep = np.sort(first)
    keep = keep[np.bincount(users[keep])[users[keep]] >= min_user_interactions]
    if not keep.size:
        raise LoadError(f"{path}: empty dataset after the >= {min_user_interactions} filter")
    table = table[keep]
    (raw_users, users), (raw_items, items) = (np.unique(raw, return_inverse=True)
                                              for raw in table.T[:2])
    interactions = InteractionSet.from_arrays(
        len(raw_users), len(raw_items), users, items, table[:, 2])
    return interactions, raw_users, raw_items


def _encode(path, label, named, raw_ids, counts=None, width=None):
    """(per-entity attribute ids, vocabulary size) from each entity's set of names.

    `named` maps a raw id to its names; the names held by `raw_ids` are
    numbered in sorted order. Given per-entity `counts`, a count c falls in
    bucket b = (c - 1) // width, which adds the id (name count + b), so the
    vocabulary runs on to the largest bucket. An entity left with no ids
    raises LoadError naming `path`.
    """
    raw_ids = raw_ids.tolist()
    sets = [named.get(raw, ()) for raw in raw_ids]
    index = {name: k for k, name in enumerate(sorted(set().union(*sets)))}
    rows = [[index[name] for name in names] for names in sets]
    size = len(index)
    if counts is not None:
        buckets = (counts - 1) // width
        for row, bucket in zip(rows, buckets.tolist()):
            row.append(size + bucket)
        size += int(buckets.max()) + 1
    empty = [raw for raw, row in zip(raw_ids, rows) if not row]
    if empty:
        raise LoadError(f"{path}: {label} {empty[0]} has zero attributes")
    return rows, size


def parse_movielens(ratings_path, users_path, items_path):
    """Parse the MovieLens-1M trio into interactions and attributes.

    Any rating value counts as an implicit positive. User attributes are the
    {gender, age, occupation} triple, each value keyed by its field; item
    attributes are the movie's genres. Files are ISO-8859-1; titles are
    discarded.
    """
    ratings = _int_rows(ratings_path, "::", 4, "iso-8859-1", ("user id", "movie id", "rating", "timestamp"))
    interactions, user_ids, item_ids = _index(ratings_path, ratings[:, [0, 1, 3]])

    profiles = {}  # users.dat: UserID::Gender::Age::Occupation::Zip
    for n, (user, gender, age, occupation, _) in _records(users_path, "::", 5, "iso-8859-1"):
        profiles[_parse_int(user, users_path, n, "user id")] = {
            (0, gender), (1, _parse_int(age, users_path, n, "age")),
            (2, _parse_int(occupation, users_path, n, "occupation"))}
    user_attrs, user_vocab = _encode(users_path, "user", profiles, user_ids)

    genres = {}  # movies.dat: MovieID::Title::Genre|Genre|...
    for n, (item, _, names) in _records(items_path, "::", 3, "iso-8859-1"):
        genres[_parse_int(item, items_path, n, "movie id")] = set(names.split("|")) - {""}
    item_attrs, item_vocab = _encode(items_path, "item", genres, item_ids)

    catalog = AttributeCatalog(user_attrs, item_attrs, user_vocab, item_vocab)
    return ParsedData(interactions, catalog)


def _read_attr_file(path, category_map):
    """Raw entity id -> its set of attribute names (mapped through `category_map`)."""
    named = {}
    for n, (raw, name) in _records(path, "\t", 2, "utf-8"):
        raw = _parse_int(raw, path, n, "entity id")
        if category_map is not None:
            if name not in category_map:
                raise LoadError(f"{path}:{n}: unmapped category {name!r}")
            name = category_map[name]
        named.setdefault(raw, set()).add(name)
    return named


def parse_generic(
    interactions_path,
    user_attr_path,
    item_attr_path,
    category_map_path=None,
):
    """Parse tab-separated UTF-8 interaction and attribute files.

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

    counts = np.diff(interactions.per_user_items.offsets)
    exposure = np.zeros(interactions.num_items, dtype=np.int64)  # > 0: every item keeps a pin
    np.add.at(exposure, interactions.items, counts[interactions.users])
    user_attrs, user_vocab = _encode(user_attr_path, "user", user_named, user_ids, counts, USER_BUCKET_SIZE)
    item_attrs, item_vocab = _encode(item_attr_path, "item", item_named, item_ids, exposure, ITEM_BUCKET_SIZE)
    catalog = AttributeCatalog(user_attrs, item_attrs, user_vocab, item_vocab)
    return ParsedData(interactions, catalog)


def leave_one_out_split(data, seed):
    """Hold out one seeded-random interaction per user plus 99 fresh negatives.

    Each user draws from an independent stream derived from (seed, user), so
    the split does not depend on iteration order. Negatives are sampled
    without replacement from items the user never touched anywhere; slot j of
    that ascending pool is item j + #{t : mine[t] - t <= j}.
    """
    offsets, flat = data.per_user_items.offsets, data.per_user_items.flat
    lengths = np.diff(offsets)
    bad = np.flatnonzero((lengths < 2) | (data.num_items - lengths < NUM_TEST_NEGATIVES))
    if bad.size:
        u, n = bad[0], lengths[bad[0]]
        if n < 2:
            raise SplitError(f"user {u} has {n} interaction(s); need at least 2")
        raise SplitError(f"user {u} has only {data.num_items - n} unobserved items; need {NUM_TEST_NEGATIVES}")
    picks = np.empty(data.num_users, dtype=np.int64)
    slots = np.empty((data.num_users, NUM_TEST_NEGATIVES), dtype=np.int64)
    for u, n in enumerate(lengths.tolist()):
        rng = seeded_rng(seed, "split", u)
        picks[u] = rng.integers(n)
        slots[u] = rng.choice(data.num_items - n, NUM_TEST_NEGATIVES, replace=False)
    row_keys = np.arange(data.num_users, dtype=np.int64) * data.num_items  # keeps rows apart
    keys = flat - np.arange(flat.size) + np.repeat(row_keys + offsets[:-1], lengths)
    slots.sort(axis=1)
    negatives = slots + np.searchsorted(keys, slots + row_keys[:, None], side="right") - offsets[:-1, None]
    positives = flat[offsets[:-1] + picks]

    keep = positives[data.users] != data.items
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


def prepared_fingerprint(out_dir):
    """crc32 of the prepared run's three files, chained in save_prepared's order, as 8 hex digits."""
    crc = 0
    for name in (TRAIN_FILE, SPLIT_FILE, ATTRS_FILE):
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
