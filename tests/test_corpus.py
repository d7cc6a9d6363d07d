import collections
import importlib.util
import os
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crossrec import corpus


# -- MovieLens parsing -------------------------------------------------------


RATINGS = """\
1::1193::5::978300760
1::661::3::978302109
2::1193::4::978298413
2::914::3::978301968
5::914::1::978244100
5::661::2::978244222
"""

USERS = """\
1::F::1::10::48067
2::M::56::16::70072
5::M::25::15::55117
9::F::45::3::00000
"""

MOVIES = """\
661::James and the Giant Peach (1996)::Animation|Children's|Musical
914::My Fair Lady (1964)::Musical|Romance
1193::One Flew Over the Cuckoo's Nest (1975)::Drama
2000::Unrated Movie (1999)::Comedy
"""


@pytest.fixture
def ml_files(tmp_path):
    paths = {}
    for name, body in (("ratings.dat", RATINGS), ("users.dat", USERS), ("movies.dat", MOVIES)):
        p = tmp_path / name
        p.write_text(body, encoding="iso-8859-1")
        paths[name] = str(p)
    return paths


class TestParseMovielens:
    def test_triples_remap_and_label_semantics(self, ml_files):
        parsed = corpus.parse_movielens(ml_files["ratings.dat"], ml_files["users.dat"], ml_files["movies.dat"])
        data = parsed.interactions
        # raw ids 1,2,5 -> 0,1,2 and 661,914,1193 -> 0,1,2 (sorted by raw id), in file order:
        # (1,1193) (1,661) (2,1193) (2,914) (5,914) (5,661)
        assert list(zip(data.users.tolist(), data.items.tolist())) == [(0, 2), (0, 0), (1, 2), (1, 1), (2, 1), (2, 0)]
        assert data.num_users == 3 and data.num_items == 3
        # the "1::1193::5::978300760" line: user map[1]=0, item map[1193]=2
        assert (data.users[0], data.items[0], data.timestamps[0]) == (0, 2, 978300760)
        # every rating value became a positive, rating magnitude ignored
        assert len(data) == 6

    def test_user_attribute_triple(self, ml_files):
        parsed = corpus.parse_movielens(ml_files["ratings.dat"], ml_files["users.dat"], ml_files["movies.dat"])
        cat = parsed.catalog
        # genders F,M -> 0,1; ages 1,25,56 -> 2,3,4; occupations 10,15,16 -> 5,6,7
        assert cat.user_vocab_size == 8
        for ids in cat.user_attrs:
            assert len(ids) == 3
        assert list(cat.user_attrs[0]) == [0, 2, 5]      # F, age 1, occupation 10
        assert list(cat.user_attrs[1]) == [1, 4, 7]      # M, age 56, occupation 16
        assert list(cat.user_attrs[2]) == [1, 3, 6]      # M, age 25, occupation 15

    def test_genre_sets(self, ml_files):
        parsed = corpus.parse_movielens(ml_files["ratings.dat"], ml_files["users.dat"], ml_files["movies.dat"])
        cat = parsed.catalog
        # rated movies only: genres Animation, Children's, Drama, Musical, Romance
        assert cat.item_vocab_size == 5
        assert len(cat.item_attrs[0]) == 3               # 661 spans three genres
        assert len(cat.item_attrs[2]) == 1               # 1193 is Drama only
        distinct = {tuple(ids) for ids in cat.item_attrs}
        assert len(distinct) == 3

    def test_deterministic_reruns(self, ml_files):
        a = corpus.parse_movielens(ml_files["ratings.dat"], ml_files["users.dat"], ml_files["movies.dat"])
        b = corpus.parse_movielens(ml_files["ratings.dat"], ml_files["users.dat"], ml_files["movies.dat"])
        assert np.array_equal(a.interactions.users, b.interactions.users)
        assert np.array_equal(a.interactions.items, b.interactions.items)
        assert all(np.array_equal(x, y) for x, y in zip(a.catalog.user_attrs, b.catalog.user_attrs))

    def test_malformed_line_names_line_number(self, ml_files, tmp_path):
        bad = tmp_path / "bad_ratings.dat"
        bad.write_text("1::1193::5::978300760\n1::661::3\n", encoding="iso-8859-1")
        with pytest.raises(corpus.ParseError, match="bad_ratings.dat:2"):
            corpus.parse_movielens(str(bad), ml_files["users.dat"], ml_files["movies.dat"])

    def test_non_numeric_id(self, ml_files, tmp_path):
        bad = tmp_path / "bad2.dat"
        bad.write_text("x::1193::5::978300760\n", encoding="iso-8859-1")
        with pytest.raises(corpus.ParseError, match="bad2.dat:1"):
            corpus.parse_movielens(str(bad), ml_files["users.dat"], ml_files["movies.dat"])

    @pytest.mark.parametrize("raw", ["1_0", " 10 ", "+10", "1e1"])
    def test_non_decimal_id_names_line(self, ml_files, tmp_path, raw):
        odd = tmp_path / "odd_ratings.dat"
        odd.write_text(RATINGS + f"{raw}::1193::5::978300761\n", encoding="iso-8859-1")
        with pytest.raises(corpus.ParseError, match="odd_ratings.dat:7: user id is not an integer"):
            corpus.parse_movielens(str(odd), ml_files["users.dat"], ml_files["movies.dat"])

    def test_user_without_attributes_fails(self, ml_files, tmp_path):
        partial = tmp_path / "partial_users.dat"
        partial.write_text("1::F::1::10::48067\n2::M::56::16::70072\n", encoding="iso-8859-1")
        with pytest.raises(corpus.LoadError, match="zero attributes"):
            corpus.parse_movielens(ml_files["ratings.dat"], str(partial), ml_files["movies.dat"])

    def test_duplicate_pairs_collapse(self, ml_files, tmp_path):
        dup = tmp_path / "dup.dat"
        dup.write_text(RATINGS + "1::1193::4::999999999\n", encoding="iso-8859-1")
        parsed = corpus.parse_movielens(str(dup), ml_files["users.dat"], ml_files["movies.dat"])
        data = parsed.interactions
        assert len(data) == 6                            # first occurrence wins
        pair = (data.users == 0) & (data.items == 2)     # raw user 1, raw movie 1193
        assert data.timestamps[pair].tolist() == [978300760]

    @pytest.mark.parametrize("line, what", [
        ("1::F::x1::10::48067", "age"), ("1::F::1::1e1::48067", "occupation"),
    ])
    def test_non_integer_age_or_occupation_names_line(self, ml_files, tmp_path, line, what):
        users = tmp_path / "users.dat"
        users.write_text(line + "\n", encoding="iso-8859-1")
        with pytest.raises(corpus.ParseError, match=f"users.dat:1: {what} is not an integer"):
            corpus.parse_movielens(ml_files["ratings.dat"], str(users), ml_files["movies.dat"])

    def test_ages_and_occupations_are_integers(self, ml_files, tmp_path):
        catalogs = []
        for name, profile in (("plain.dat", "5::M::1::10"), ("padded.dat", "5::M::01::010")):
            users = tmp_path / name
            users.write_text(USERS.replace("5::M::25::15", profile), encoding="iso-8859-1")
            parsed = corpus.parse_movielens(ml_files["ratings.dat"], str(users), ml_files["movies.dat"])
            catalogs.append(parsed.catalog)
        # 01 is age 1 and 010 occupation 10: F, M; ages 1, 56; occupations 10, 16
        assert [c.user_vocab_size for c in catalogs] == [6, 6]
        assert np.array_equal(catalogs[0].user_attrs.flat, catalogs[1].user_attrs.flat)

    def test_rated_movie_without_genres_fails(self, ml_files, tmp_path):
        movies = tmp_path / "genreless.dat"
        movies.write_text(
            "661::James and the Giant Peach (1996)::Animation\n"
            "914::My Fair Lady (1964)::\n"
            "1193::One Flew Over the Cuckoo's Nest (1975)::Drama\n",
            encoding="iso-8859-1",
        )
        with pytest.raises(corpus.LoadError, match="zero attributes"):
            corpus.parse_movielens(ml_files["ratings.dat"], ml_files["users.dat"], str(movies))


# -- generic parsing ---------------------------------------------------------


def _write(path, body):
    path.write_text(body, encoding="utf-8")
    return str(path)


class TestParseGeneric:
    def _files(self, tmp_path, counts):
        lines = []
        item = 0
        for user, n in counts.items():
            for k in range(n):
                lines.append(f"{user}\t{(item + k) % 37}\t{100 + k}")
            item += n
        inter = _write(tmp_path / "inter.tsv", "\n".join(lines) + "\n")
        uattr = _write(tmp_path / "ua.tsv", "\n".join(f"{u}\tcat{u % 3}" for u in counts) + "\n")
        iattr = _write(tmp_path / "ia.tsv", "")
        return inter, uattr, iattr

    def test_minimum_interaction_filter(self, tmp_path):
        inter, uattr, iattr = self._files(tmp_path, {50: 9, 60: 10, 70: 12})
        parsed = corpus.parse_generic(inter, uattr, iattr)
        # user 50 has 9 interactions -> dropped; 10 is the retained boundary. Users 60 and 70
        # pinned raw items 9..18 and 19..30, which become dense users 0, 1 and items 0..21
        data = parsed.interactions
        assert data.num_users == 2 and data.num_items == 22
        assert data.users.tolist() == [0] * 10 + [1] * 12 and data.items.tolist() == list(range(22))

    @pytest.mark.parametrize("raw", ["1_0", " 10 ", "+10", "\u0661\u0660"])
    def test_non_decimal_id_names_line(self, tmp_path, raw):
        inter, uattr, iattr = self._files(tmp_path, {10: 10, -3: 10})
        with open(inter, "a", encoding="utf-8") as fh:
            fh.write(f"{raw}\t5\t100\n")
        with pytest.raises(corpus.ParseError, match="inter.tsv:21: user id is not an integer"):
            corpus.parse_generic(inter, uattr, iattr)

    def test_negative_ids_parse(self, tmp_path):
        parsed = corpus.parse_generic(*self._files(tmp_path, {10: 10, -3: 10}))
        assert parsed.interactions.num_users == 2

    def test_all_filtered_is_an_error(self, tmp_path):
        inter, uattr, iattr = self._files(tmp_path, {50: 3, 60: 4})
        with pytest.raises(corpus.LoadError, match="empty dataset"):
            corpus.parse_generic(inter, uattr, iattr)

    def test_category_map_collapses_vocabulary(self, tmp_path):
        inter, _, iattr = self._files(tmp_path, {60: 10, 70: 12})
        raw_cats = [f"raw{k}" for k in range(12)]
        uattr = _write(
            tmp_path / "ua2.tsv",
            "\n".join(f"{u}\t{raw_cats[(u + k) % 12]}" for u in (60, 70) for k in range(4)) + "\n",
        )
        cmap = _write(
            tmp_path / "cmap.tsv",
            "\n".join(f"{raw}\tmain{k % 3}" for k, raw in enumerate(raw_cats)) + "\n",
        )
        parsed = corpus.parse_generic(inter, uattr, iattr, cmap)
        # 12 raw categories collapse to 3 mains (+1 pin-count bucket id)
        assert parsed.catalog.user_vocab_size == 3 + 1

    def test_468_categories_consolidate_to_45(self, tmp_path):
        rng = np.random.default_rng(0)
        raw_cats = [f"page_cat_{k:03d}" for k in range(468)]
        lines = []
        for u in (60, 70):
            for k in rng.choice(468, size=300, replace=False):
                lines.append(f"{u}\t{raw_cats[k]}")
        inter, _, iattr = self._files(tmp_path, {60: 10, 70: 12})
        uattr = _write(tmp_path / "ua3.tsv", "\n".join(lines) + "\n")
        cmap = _write(
            tmp_path / "cmap45.tsv",
            "\n".join(f"{raw}\tmain_{k % 45:02d}" for k, raw in enumerate(raw_cats)) + "\n",
        )
        parsed = corpus.parse_generic(inter, uattr, iattr, cmap)
        assert parsed.catalog.user_vocab_size == 45 + 1  # mains + pin-count bucket

    def test_unmapped_category_fails(self, tmp_path):
        inter, uattr, iattr = self._files(tmp_path, {60: 10, 70: 12})
        cmap = _write(tmp_path / "cmap.tsv", "othercat\tmain0\n")
        with pytest.raises(corpus.LoadError, match="unmapped category"):
            corpus.parse_generic(inter, uattr, iattr, cmap)

    def test_every_entity_has_attributes(self, tmp_path):
        # item attribute file is empty: exposure buckets must cover all items
        inter, uattr, iattr = self._files(tmp_path, {60: 10, 70: 12})
        parsed = corpus.parse_generic(inter, uattr, iattr)
        assert all(len(ids) >= 1 for ids in parsed.catalog.item_attrs)
        assert all(len(ids) >= 2 for ids in parsed.catalog.user_attrs)  # category + bucket

    @pytest.mark.parametrize("which, line", [
        ("inter.tsv", b"70\t\xe9\t5\n"), ("ua.tsv", b"70\tcaf\xe9\n"), ("cmap.tsv", b"caf\xe9\tmain\n"),
    ])
    def test_non_utf8_line_names_file_and_line(self, tmp_path, which, line):
        inter, uattr, iattr = self._files(tmp_path, {60: 10, 70: 12})
        cmap = _write(tmp_path / "cmap.tsv", "cat0\tmain\ncat1\tmain\ncat2\tmain\n")
        with open(tmp_path / which, "ab") as fh:
            fh.write(line)  # ISO-8859-1 e-acute: not a UTF-8 sequence
        lineno = (tmp_path / which).read_bytes().count(b"\n")
        with pytest.raises(corpus.ParseError, match=f"{which}:{lineno}: not utf-8 text"):
            corpus.parse_generic(inter, uattr, iattr, cmap)

    def test_comment_lines_skipped(self, tmp_path):
        inter, uattr, iattr = self._files(tmp_path, {60: 10})
        with open(inter, "r+", encoding="utf-8") as fh:
            body = fh.read()
            fh.seek(0)
            fh.write("# comment line\n" + body)
        parsed = corpus.parse_generic(inter, uattr, iattr)
        assert parsed.interactions.num_users == 1


# -- integer table reader ----------------------------------------------------


def _reference_int_rows(path, sep, width, encoding, labels):
    """The per-line reader: `_records`, then `_parse_int` on each field in turn."""
    rows = []
    for n, fields in corpus._records(path, sep, width, encoding):
        rows.append([corpus._parse_int(text, path, n, what) for text, what in zip(fields, labels)])
    return np.array(rows, dtype=np.int64).reshape(-1, width)


_LAYOUTS = {  # sep -> (width, encoding, labels, a non-ASCII digit the encoding holds)
    "::": (4, "iso-8859-1", ("user id", "movie id", "rating", "timestamp"), "²"),
    "\t": (3, "utf-8", ("user id", "item id", "timestamp"), "٣"),
}
_FIELDS = st.one_of(st.integers(-99, 999), st.integers(-(10**17) + 1, 10**18 - 1)).map(str)
_WIDE = {  # perturbation -> the field texts it may put in
    "18 bytes": ["9" * 18, "-" + "9" * 17, "0" * 17 + "7"],
    "19 bytes": ["9" * 19, "-" + "9" * 18, "0" * 18 + "5"],
    "int64 bounds": [str(2**63 - 1), str(-(2**63 - 1)), str(-(2**63)), str(2**63)],
}


def _perturbed(lines, how, k, f, digit):
    """Lines of `width` field texts with one change `how` at line k, field f."""
    line, field = lines[k], lines[k][f]
    if how == "comment":
        lines.insert(k, ["# a note"])
    elif how == "blank":
        lines.insert(k, [""])
    elif how == "field dropped":
        del line[f]
    elif how == "field moved":
        lines[(k + 1) % len(lines)].append(line.pop(f))
    elif how == "tab":  # in place of the separator after field f, or after the last field
        line[f:f + 2] = ["\t".join(line[f:f + 2]) + "\t" * (f + 1 == len(line))]
    else:
        line[f] = {
            "lone minus": "-", "double minus": "--" + field.lstrip("-"), "inner minus": field + "-1",
            "triple colon": field + ":", "lone colon": field + ":1", "carriage return": field + "\r",
            "non-ASCII digit": digit + field, "empty field": "", "non-UTF-8 byte": field + "\udce9",
        }.get(how, how)  # any other `how` is the new field text
    return lines


@st.composite
def _raw_files(draw):
    """(sep, file bytes): a valid integer file of either layout with one perturbation."""
    sep = draw(st.sampled_from(sorted(_LAYOUTS)))
    width, encoding, _, digit = _LAYOUTS[sep]
    lines = draw(st.lists(st.lists(_FIELDS, min_size=width, max_size=width), min_size=2, max_size=6))
    how = draw(st.sampled_from([
        None, "comment", "blank", "crlf", "no final newline", "lone minus", "double minus",
        "inner minus", "triple colon", "lone colon", "tab", "carriage return", *_WIDE,
        "non-ASCII digit", "empty field", "field dropped", "field moved", "non-UTF-8 byte"]))
    if how in _WIDE:
        how = draw(st.sampled_from(_WIDE[how]))
    if how is not None:
        lines = _perturbed(lines, how, draw(st.integers(0, len(lines) - 1)),
                           draw(st.integers(0, width - 1)), digit)
    end = "\r\n" if how == "crlf" else "\n"
    text = "".join(sep.join(line) + end for line in lines)
    if how == "no final newline":
        text = text[:-1]
    return sep, text.encode(encoding, "surrogateescape")


def _int_rows_args(path, sep):
    width, encoding, labels, _ = _LAYOUTS[sep]
    return str(path), sep, width, encoding, labels


def _load_corpus_gen():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "corpus_gen.py")
    spec = importlib.util.spec_from_file_location("corpus_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def generated_interactions(tmp_path_factory):
    """sep -> the synthetic ratings.dat (600 users) or interactions file (8,000 users)."""
    corpus_gen = _load_corpus_gen()
    ml, generic = tmp_path_factory.mktemp("ml600"), tmp_path_factory.mktemp("generic8000")
    corpus_gen.write_movielens(str(ml), 600, 1)
    corpus_gen.write_generic(str(generic), 8000, 2000, 1)
    return {"::": ml / "ratings.dat", "\t": generic / "interactions.tsv"}


class TestIntRows:
    @settings(max_examples=300, deadline=None)
    @given(_raw_files())
    @example(("::", b""))
    @example(("\t", b"-7\t0\t-0\n"))
    @example(("::", b"1::2::3::999999999999999999\n-1::2::3::-99999999999999999"))
    @example(("\t", b"1\t2\t9223372036854775808\n"))             # 19 bytes, past int64
    @example(("\t", b"1\t2\n3\t4\t5\t6\n"))                       # 6 fields, but 2 + 4
    @example(("::", b"1::2::3::4\n5::6::7::-\n"))
    @example(("\t", b"1\t2-3\t4\n"))
    @example(("\t", b"1\t2\r\t3\n"))
    @example(("::", b"1\t2::3::4\n"))
    @example(("::", b"1::2::3:::4\n"))
    def test_matches_per_line_reader(self, tmp_path_factory, sep_body):
        sep, body = sep_body
        path = tmp_path_factory.getbasetemp() / "int_rows.txt"
        path.write_bytes(body)
        args = _int_rows_args(path, sep)
        try:
            expected = _reference_int_rows(*args)
        except corpus.ParseError as exc:
            with pytest.raises(corpus.ParseError) as got:
                corpus._int_rows(*args)
            assert str(got.value) == str(exc)
        else:
            got = corpus._int_rows(*args)
            assert got.dtype == np.int64 and got.shape == expected.shape
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("sep", ["::", "\t"])
    def test_plain_file_is_read_whole(self, generated_interactions, sep, monkeypatch, tmp_path):
        path = generated_interactions[sep]
        expected = _reference_int_rows(*_int_rows_args(path, sep))
        commented = tmp_path / "commented"
        commented.write_bytes(b"# generated\n" + path.read_bytes())

        def per_line(*args):
            raise AssertionError("read line by line")

        monkeypatch.setattr(corpus, "_records", per_line)
        assert np.array_equal(corpus._int_rows(*_int_rows_args(path, sep)), expected)
        with pytest.raises(AssertionError, match="read line by line"):
            corpus._int_rows(*_int_rows_args(commented, sep))
        monkeypatch.undo()
        assert np.array_equal(corpus._int_rows(*_int_rows_args(commented, sep)), expected)


# -- interaction indexer -----------------------------------------------------


def _reference_index(triples, min_user_interactions):
    """The set/dict indexer: first occurrence of each pair, the count filter, a sorted remap."""
    seen, kept = set(), []
    for user, item, stamp in triples:
        if (user, item) not in seen:
            seen.add((user, item))
            kept.append((user, item, stamp))
    counts = collections.Counter(user for user, _, _ in kept)
    kept = [row for row in kept if counts[row[0]] >= min_user_interactions]
    raw_users = sorted({user for user, _, _ in kept})
    raw_items = sorted({item for _, item, _ in kept})
    user_map = {raw: k for k, raw in enumerate(raw_users)}
    item_map = {raw: k for k, raw in enumerate(raw_items)}
    return raw_users, raw_items, [(user_map[u], item_map[i], t) for u, i, t in kept]


# few users (so some keep 10 distinct items), among them negative and 19-digit ids
_RAW_USERS = st.sampled_from([-(2**63), -7, 0, 3, 10**18, 2**63 - 1])
_RAW_ITEMS = st.one_of(st.integers(-12, 12), st.sampled_from([-(2**63), 10**18 + 1, 2**63 - 1]))
_STAMPS = st.integers(-(2**63), 2**63 - 1)


class TestIndexer:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_RAW_USERS, _RAW_ITEMS, _STAMPS), min_size=1, max_size=80),
           st.sampled_from([1, 10]))
    @example([(5, 9, 300), (5, 9, 100), (-2, 9, 200), (5, 9, 50)], 1)   # repeats, later stamps
    @example([(10**18, k, k) for k in range(9)] * 2, 10)                # every user filtered
    def test_matches_set_and_dict_reference(self, triples, min_user_interactions):
        raw_users, raw_items, expected = _reference_index(triples, min_user_interactions)
        flat = [value for row in triples for value in row]
        if not expected:
            with pytest.raises(corpus.LoadError, match=r"^inter\.tsv: empty dataset after the >= 10"):
                corpus._index("inter.tsv", flat, min_user_interactions)
            return
        data, users, items = corpus._index("inter.tsv", flat, min_user_interactions)
        assert users.tolist() == raw_users and items.tolist() == raw_items
        assert (data.num_users, data.num_items) == (len(raw_users), len(raw_items))
        got = list(zip(data.users.tolist(), data.items.tolist(), data.timestamps.tolist()))
        assert got == expected

    def test_no_rows_is_an_error(self):
        with pytest.raises(corpus.LoadError, match=r"^inter\.tsv: no interactions$"):
            corpus._index("inter.tsv", [], 1)


# -- attribute catalog -------------------------------------------------------


class TestAttributeCatalog:
    def test_unsorted_lists_stored_sorted(self):
        catalog = corpus.AttributeCatalog(
            user_attrs=[[2, 0, 1], np.array([1]), (3, 0, 3)],
            item_attrs=[[4, 1], [0]],
            user_vocab_size=4, item_vocab_size=5,
        )
        assert [a.tolist() for a in catalog.user_attrs] == [[0, 1, 2], [1], [0, 3, 3]]
        assert [a.tolist() for a in catalog.item_attrs] == [[1, 4], [0]]
        assert catalog.user_attrs.flat.dtype == catalog.item_attrs.flat.dtype == np.int64

    @pytest.mark.parametrize("user_attrs, item_attrs, message", [
        ([[0], [], [9]], [[0]], "user 1 has zero attributes"),
        ([[0], [9], []], [[0]], r"user 1 attribute id outside vocabulary \(3\)"),
        ([[0], [1, -1], [2]], [[0]], r"user 1 attribute id outside vocabulary \(3\)"),
        ([[0], [1], [2]], [[1], [0, 1], []], "item 2 has zero attributes"),
        ([[0], [1], [2]], [[1], [0, 2, 2]], r"item 1 attribute id outside vocabulary \(2\)"),
        ([[0], [1], []], [[], [7]], "user 2 has zero attributes"),
    ], ids=["empty-user", "user-id-past-vocab", "negative-user-id", "empty-item",
            "item-id-past-vocab", "users-checked-first"])
    def test_first_offending_entity_named(self, user_attrs, item_attrs, message):
        with pytest.raises(corpus.LoadError, match=f"^{message}$"):
            corpus.AttributeCatalog(user_attrs, item_attrs, user_vocab_size=3, item_vocab_size=2)


# -- count buckets -------------------------------------------------------------


class TestCountBuckets:
    def test_buckets_match_double_loop(self, tmp_path):
        """parse_generic's bucket ids against the rule, a count c in bucket (c - 1) // width,
        with each user's count and each item's exposure counted by a double loop over the rows."""
        for seed in range(5):
            rng = np.random.default_rng(seed)
            # users 100/101 hold 40/41 pins (the user boundary); 100+102 and 101+104 are the
            # only users of items 1000 and 1001, exposures 50 and 51 (the item boundary);
            # user 103 is dropped, and with it item 1002, which only it pinned
            counts = {100: 40, 101: 41, 102: 10, 103: 9, 104: 10}
            counts.update({200 + u: int(rng.integers(10, 130)) for u in range(8)})
            special = {100: [1000], 102: [1000], 101: [1001], 104: [1001], 103: [1002]}
            rows = []
            for u, n in counts.items():
                mine = special.get(u, [])
                rows += [(u, i) for i in mine + rng.choice(400, n - len(mine), replace=False).tolist()]
            rng.shuffle(rows)
            path = tmp_path / str(seed)
            path.mkdir()
            inter = _write(path / "inter.tsv", "".join(f"{u}\t{i}\t{k}\n" for k, (u, i) in enumerate(rows)))
            uattr = _write(path / "ua.tsv", "".join(f"{u}\tg{u % 4}\n" for u in counts if u % 3))
            iattr = _write(path / "ia.tsv", "".join(f"{i}\tc{i % 5}\n" for i in range(0, 1003, 3)))
            catalog = corpus.parse_generic(inter, uattr, iattr).catalog

            kept = {u: n for u, n in counts.items() if n >= corpus.MIN_USER_INTERACTIONS}
            exposure = {i: 0 for u, i in rows if u in kept}
            for i in exposure:
                for u, j in rows:
                    if u in kept and j == i:
                        exposure[i] += kept[u]
            assert 1002 not in exposure and (exposure[1000], exposure[1001]) == (50, 51)
            sides = {
                "user": (kept, {u: f"g{u % 4}" for u in kept if u % 3}, corpus.USER_BUCKET_SIZE,
                         catalog.user_attrs),
                "item": (exposure, {i: f"c{i % 5}" for i in exposure if i % 3 == 0}, corpus.ITEM_BUCKET_SIZE,
                         catalog.item_attrs),
            }
            buckets = {}
            for label, (count_of, name_of, width, got) in sides.items():
                vocab = sorted(set(name_of.values()))
                assert len(got) == len(count_of)
                for dense, raw in enumerate(sorted(count_of)):  # dense ids in ascending raw-id order
                    bucket = buckets[label, raw] = (count_of[raw] - 1) // width
                    names = [vocab.index(name_of[raw])] if raw in name_of else []
                    assert got[dense].tolist() == names + [len(vocab) + bucket], (seed, label, raw)
            assert [buckets["user", u] for u in (100, 101)] == [0, 1]
            assert [buckets["item", i] for i in (1000, 1001)] == [0, 1]



def _bucket(count, width):
    """The bucket `_encode` gives one entity of `count` and no listed names."""
    rows, _ = corpus._encode("counts.tsv", "user", {}, np.array([7]), np.array([count]), width)
    return rows[0][0]


def _item_buckets(tmp_path, pins):
    """parse_generic's item buckets, raw item id -> bucket, for `pins` (raw user -> raw items).

    No kept entity has a listed attribute, so each item's row is its bucket alone.
    """
    rows = [(u, i) for u, items in pins.items() for i in items]
    inter = _write(tmp_path / "inter.tsv", "".join(f"{u}\t{i}\t{k}\n" for k, (u, i) in enumerate(rows)))
    attr = _write(tmp_path / "attr.tsv", "999999\tnone\n")
    parsed = corpus.parse_generic(inter, attr, attr)
    kept = sorted({i for u, i in rows if len(pins[u]) >= corpus.MIN_USER_INTERACTIONS})
    assert parsed.interactions.num_items == len(kept)
    return {raw: row.tolist()[0] for raw, row in zip(kept, parsed.catalog.item_attrs)}


class TestBucketize:
    def test_worked_examples(self):
        assert _bucket(35, 40) == 0
        assert _bucket(41, 40) == 1
        assert _bucket(40, 40) == 0

    @given(st.integers(1, 10_000), st.integers(1, 500))
    def test_monotone_and_interval_constant(self, count, size):
        here = _bucket(count, size)
        assert _bucket(count + 1, size) >= here
        # constant on [k*size+1, (k+1)*size]
        k = here
        assert _bucket(k * size + 1, size) == k
        assert _bucket((k + 1) * size, size) == k


class TestItemPinAttribute:
    def test_two_user_toy_sum(self, tmp_path):
        # item 0 pinned by users with total pin counts 30 and 25 -> exposure 55, one past
        # the first bucket, which neither user's count reaches alone
        pins = {0: [0] + list(range(1, 30)), 1: [0] + list(range(30, 54))}
        buckets = _item_buckets(tmp_path, pins)
        assert buckets[0] == _bucket(55, corpus.ITEM_BUCKET_SIZE) == 1
        assert buckets[1] == _bucket(30, corpus.ITEM_BUCKET_SIZE) == 0

    def test_bucket_boundary_from_bucketize_oracle(self, tmp_path):
        # one item reached by users whose pin counts sum to 51; a second by counts summing to 50
        pins = {0: list(range(1, 26)) + [0], 1: list(range(26, 50)) + [0],
                2: list(range(50, 74)) + [100], 3: list(range(74, 98)) + [100]}
        buckets = _item_buckets(tmp_path, pins)
        assert buckets[0] == _bucket(51, corpus.ITEM_BUCKET_SIZE) == 1
        assert buckets[100] == _bucket(50, corpus.ITEM_BUCKET_SIZE) == 0

    def test_matches_brute_force_double_loop(self, tmp_path):
        rng = np.random.default_rng(123)
        for trial in range(20):
            num_users, num_items = 6, 40
            # sizes from 8 so that some users fall under the minimum and are dropped
            pins = {u: sorted(rng.choice(num_items, int(rng.integers(8, 36)), replace=False).tolist())
                    for u in range(num_users)}
            path = tmp_path / str(trial)
            path.mkdir()
            got = _item_buckets(path, pins)
            counts = {u: len(items) for u, items in pins.items() if len(items) >= corpus.MIN_USER_INTERACTIONS}
            for i, bucket in got.items():
                exposure = sum(counts[u] for u in counts for it in pins[u] if it == i)
                assert bucket == (exposure - 1) // corpus.ITEM_BUCKET_SIZE, (trial, i)


# -- leave-one-out split -------------------------------------------------------


def _random_interactions(rng, num_users=12, num_items=130, lo=2, hi=12):
    users, items, stamps = [], [], []
    for u in range(num_users):
        n = int(rng.integers(lo, hi))
        for i in rng.choice(num_items, size=n, replace=False):
            users.append(u)
            items.append(int(i))
            stamps.append(int(rng.integers(1_000_000)))
    return corpus.InteractionSet.from_arrays(num_users, num_items, users, items, stamps)


def _reference_split(data, seed):
    """The split as a per-user loop: set difference, choice over the pool, sort."""
    positives = np.empty(data.num_users, dtype=np.int64)
    negatives = np.empty((data.num_users, 99), dtype=np.int64)
    all_items = np.arange(data.num_items, dtype=np.int64)
    for u, mine in enumerate(data.per_user_items):
        rng = corpus.seeded_rng(seed, "split", u)
        positives[u] = mine[rng.integers(len(mine))]
        pool = np.setdiff1d(all_items, mine, assume_unique=True)
        negatives[u] = np.sort(rng.choice(pool, size=99, replace=False))
    keep = positives[data.users] != data.items
    return positives, negatives, (data.users[keep], data.items[keep], data.timestamps[keep])


class TestLeaveOneOut:
    @pytest.mark.parametrize("seed", [0, 42, 2**32, 2**64 + 3])
    def test_matches_reference_loop(self, seed):
        rng = np.random.default_rng(seed % 1000)
        data = _random_interactions(rng, num_users=30, num_items=140, lo=2, hi=40)
        # pools of exactly 99 and of 100 unobserved items, next to ordinary users
        users = np.concatenate([data.users, [30] * 41, [31] * 40])
        items = np.concatenate([data.items, rng.choice(140, 41, replace=False), rng.choice(140, 40, replace=False)])
        stamps = np.arange(users.size)
        data = corpus.InteractionSet.from_arrays(32, 140, users, items, stamps)
        assert (140 - np.diff(data.per_user_items.offsets)[30:]).tolist() == [99, 100]
        split = corpus.leave_one_out_split(data, seed)
        positives, negatives, train = _reference_split(data, seed)
        assert np.array_equal(split.test_positives, positives)
        assert np.array_equal(split.test_negatives, negatives)
        for got, want in zip((split.train.users, split.train.items, split.train.timestamps), train):
            assert np.array_equal(got, want)

    def test_first_failing_user_names_the_error(self):
        # user 1 is one unobserved item short of 99, user 2 has one interaction
        users = [0, 0] + [1] * 22 + [2]
        items = [0, 1] + list(range(22)) + [5]
        data = corpus.InteractionSet.from_arrays(3, 120, users, items, np.zeros(len(users)))
        with pytest.raises(corpus.SplitError, match=r"^user 1 has only 98 unobserved items; need 99$"):
            corpus.leave_one_out_split(data, seed=0)

    def test_count_check_precedes_pool_check(self):
        # one interaction in a 99-item catalog fails both checks: the count one is named
        data = corpus.InteractionSet.from_arrays(2, 99, [0, 1, 1], [3, 0, 1], np.zeros(3))
        with pytest.raises(corpus.SplitError, match=r"^user 0 has 1 interaction\(s\); need at least 2$"):
            corpus.leave_one_out_split(data, seed=0)

    def test_two_item_user_forced_partition(self):
        users = [0, 0, 1, 1]
        items = [0, 1, 2, 3]
        data = corpus.InteractionSet.from_arrays(2, 105, users, items, np.zeros(len(users)))
        split = corpus.leave_one_out_split(data, seed=9)
        pos = split.test_positives[0]
        assert pos in (0, 1)
        assert list(split.train.per_user_items[0]) == [1 - pos]

    def test_forced_negative_set(self):
        # 101-item catalog, user touches exactly 2: negatives must be the other 99
        users = [0, 0, 1, 1]
        items = [7, 42, 0, 1]
        data = corpus.InteractionSet.from_arrays(2, 101, users, items, np.zeros(4))
        split = corpus.leave_one_out_split(data, seed=4)
        expected = np.setdiff1d(np.arange(101), [7, 42])
        assert np.array_equal(np.sort(split.test_negatives[0]), expected)

    def test_negative_invariants(self):
        rng = np.random.default_rng(5)
        data = _random_interactions(rng)
        split = corpus.leave_one_out_split(data, seed=77)
        for u in range(data.num_users):
            negs = split.test_negatives[u]
            assert len(negs) == 99 and len(set(negs.tolist())) == 99
            assert not set(negs.tolist()) & set(data.per_user_items[u].tolist())
            assert split.test_positives[u] in data.per_user_items[u]
            assert split.test_positives[u] not in split.train.per_user_items[u]

    def test_train_plus_positives_partition_original(self):
        rng = np.random.default_rng(6)
        data = _random_interactions(rng)
        split = corpus.leave_one_out_split(data, seed=1)
        held = {(u, int(split.test_positives[u])) for u in range(data.num_users)}
        train_pairs = set(zip(split.train.users.tolist(), split.train.items.tolist()))
        original = set(zip(data.users.tolist(), data.items.tolist()))
        assert train_pairs | held == original
        assert not train_pairs & held
        assert len(split.train) + data.num_users == len(data)

    def test_serialization_is_byte_identical_across_reruns(self, tmp_path):
        rng = np.random.default_rng(8)
        data = _random_interactions(rng)
        blobs = []
        for run in range(2):
            split = corpus.leave_one_out_split(data, seed=33)
            path = tmp_path / f"split{run}.npy"
            corpus.save_split(split, str(path))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_frozen_split_regression(self):
        # anchors the rng derivation: any change to the per-user stream or
        # draw order shows up as a golden-value mismatch
        users = [0, 0, 0, 1, 1, 2, 2, 2, 2]
        items = [3, 7, 120, 5, 44, 0, 1, 2, 100]
        data = corpus.InteractionSet.from_arrays(3, 130, users, items, list(range(9)))
        split = corpus.leave_one_out_split(data, seed=2024)
        assert split.test_positives.tolist() == [3, 44, 100]
        assert split.test_negatives[0][:5].tolist() == [0, 1, 2, 4, 5]
        assert split.test_negatives[1][:5].tolist() == [1, 3, 4, 7, 9]
        assert [int(split.test_negatives[u].sum()) for u in range(3)] == [6300, 6725, 6586]

    def test_single_interaction_user_errors_by_name(self):
        users = [0] + [1] * 3
        items = [5] + [0, 1, 2]
        data = corpus.InteractionSet.from_arrays(2, 120, users, items, np.zeros(4))
        with pytest.raises(corpus.SplitError, match="user 0"):
            corpus.leave_one_out_split(data, seed=0)

    def test_insufficient_negative_pool_errors(self):
        users = [0, 0, 1, 1]
        items = [0, 1, 2, 3]
        data = corpus.InteractionSet.from_arrays(2, 50, users, items, np.zeros(4))
        with pytest.raises(corpus.SplitError, match="unobserved"):
            corpus.leave_one_out_split(data, seed=0)

    def test_round_trips(self, tmp_path):
        rng = np.random.default_rng(10)
        data = _random_interactions(rng)
        split = corpus.leave_one_out_split(data, seed=2)
        corpus.save_interactions(split.train, str(tmp_path / "train.npy"))
        corpus.save_split(split, str(tmp_path / "split.npy"))
        train = corpus.load_interactions(str(tmp_path / "train.npy"))
        loaded = corpus.load_split(str(tmp_path / "split.npy"), train)
        assert np.array_equal(loaded.test_positives, split.test_positives)
        assert np.array_equal(loaded.test_negatives, split.test_negatives)
        assert np.array_equal(train.users, split.train.users)
        assert np.array_equal(train.timestamps, split.train.timestamps)

    def test_catalog_round_trip(self, tmp_path, tiny_catalog):
        corpus.save_catalog(tiny_catalog, str(tmp_path / "attrs.npy"))
        loaded = corpus.load_catalog(str(tmp_path / "attrs.npy"))
        assert loaded.user_vocab_size == tiny_catalog.user_vocab_size
        assert loaded.item_vocab_size == tiny_catalog.item_vocab_size
        assert all(np.array_equal(a, b) for a, b in zip(loaded.user_attrs, tiny_catalog.user_attrs))
        assert all(np.array_equal(a, b) for a, b in zip(loaded.item_attrs, tiny_catalog.item_attrs))

    def test_prepared_fingerprint_chains_the_three_files(self, tmp_path):
        files = {corpus.TRAIN_FILE: b"train", corpus.SPLIT_FILE: bytes(range(256)) * 5000,
                 corpus.ATTRS_FILE: b"attributes"}   # split.npy spans more than one read
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        crc = zlib.crc32(files[corpus.ATTRS_FILE], zlib.crc32(files[corpus.SPLIT_FILE],
                                                              zlib.crc32(files[corpus.TRAIN_FILE])))
        assert corpus.prepared_fingerprint(str(tmp_path)) == f"{crc:08x}"
        (tmp_path / corpus.SPLIT_FILE).write_bytes(files[corpus.SPLIT_FILE][:-1] + b"\x00")
        assert corpus.prepared_fingerprint(str(tmp_path)) != f"{crc:08x}"


class TestInteractionSetInvariants:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(corpus.LoadError, match="duplicate"):
            corpus.InteractionSet.from_arrays(2, 2, [0, 0], [1, 1], [0, 1])
        # the repeated (1, 0) pair is first and last in input order
        with pytest.raises(corpus.LoadError, match=r"^duplicate \(user, item\) pair$"):
            corpus.InteractionSet.from_arrays(2, 2, [1, 0, 0, 1, 1], [0, 1, 0, 1, 0], range(5))

    def test_out_of_range_rejected(self):
        with pytest.raises(corpus.LoadError):
            corpus.InteractionSet.from_arrays(2, 2, [0, 2], [1, 0], [0, 1])

    def test_per_user_items_sorted_and_complete(self):
        data = corpus.InteractionSet.from_arrays(2, 5, [0, 1, 0, 1], [4, 3, 1, 0], [0, 0, 0, 0])
        assert list(data.per_user_items[0]) == [1, 4]
        assert list(data.per_user_items[1]) == [0, 3]
