import collections
import dataclasses
import importlib.util
import io
import os
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (CHI2_999, EPOCH_TAG, M64, SPLIT_TAG, below, interaction_set, lane_key, pairs_of, rows_of,
                      splitmix64, uniform_chi2)
from crossrec import corpus, training
from crossrec import tensorcore as tc


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
        data, _ = corpus.parse_movielens(ml_files["ratings.dat"], ml_files["users.dat"], ml_files["movies.dat"])
        # raw ids 1,2,5 -> 0,1,2 and 661,914,1193 -> 0,1,2 (sorted by raw id), in (user, item) order:
        # (1,661) (1,1193) (2,914) (2,1193) (5,661) (5,914)
        assert pairs_of(data) == [(0, 0), (0, 2), (1, 1), (1, 2), (2, 0), (2, 1)]
        assert data.num_users == 3 and data.num_items == 3
        # every rating value became a positive, rating magnitude ignored; timestamps are not kept
        assert len(data) == 6
        assert [f.name for f in dataclasses.fields(data)] == ["num_users", "num_items", "per_user_items"]

    def test_user_attribute_triple(self, ml_files):
        _, cat = corpus.parse_movielens(ml_files["ratings.dat"], ml_files["users.dat"], ml_files["movies.dat"])
        # genders F,M -> 0,1; ages 1,25,56 -> 2,3,4; occupations 10,15,16 -> 5,6,7
        assert cat.user_vocab_size == 8
        rows = rows_of(cat.user_attrs)
        assert [ids.tolist() for ids in rows] == [
            [0, 2, 5],                                   # F, age 1, occupation 10
            [1, 4, 7],                                   # M, age 56, occupation 16
            [1, 3, 6],                                   # M, age 25, occupation 15
        ]

    def test_genre_sets(self, ml_files):
        _, cat = corpus.parse_movielens(ml_files["ratings.dat"], ml_files["users.dat"], ml_files["movies.dat"])
        rows = rows_of(cat.item_attrs)
        # rated movies only: genres Animation, Children's, Drama, Musical, Romance
        assert cat.item_vocab_size == 5
        assert len(rows[0]) == 3                         # 661 spans three genres
        assert len(rows[2]) == 1                         # 1193 is Drama only
        distinct = {tuple(ids) for ids in rows}
        assert len(distinct) == 3

    def test_deterministic_reruns(self, ml_files):
        a, a_cat = corpus.parse_movielens(ml_files["ratings.dat"], ml_files["users.dat"], ml_files["movies.dat"])
        b, b_cat = corpus.parse_movielens(ml_files["ratings.dat"], ml_files["users.dat"], ml_files["movies.dat"])
        assert np.array_equal(a.per_user_items.offsets, b.per_user_items.offsets)
        assert np.array_equal(a.per_user_items.flat, b.per_user_items.flat)
        assert np.array_equal(a_cat.user_attrs.offsets, b_cat.user_attrs.offsets)
        assert np.array_equal(a_cat.user_attrs.flat, b_cat.user_attrs.flat)

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
        data, _ = corpus.parse_movielens(str(dup), ml_files["users.dat"], ml_files["movies.dat"])
        assert len(data) == 6                            # the pair counts once
        assert pairs_of(data).count((0, 2)) == 1         # raw user 1, raw movie 1193

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
            _, catalog = corpus.parse_movielens(ml_files["ratings.dat"], str(users), ml_files["movies.dat"])
            catalogs.append(catalog)
        # 01 is age 1 and 010 occupation 10: F, M; ages 1, 56; occupations 10, 16
        assert [c.user_vocab_size for c in catalogs] == [6, 6]
        assert np.array_equal(catalogs[0].user_attrs.flat, catalogs[1].user_attrs.flat)

    @pytest.mark.parametrize("name, line, message", [
        ("users.dat", "1::M::56::20::48067",
         "users.dat:5: user 1 listed twice with another gender, age or occupation"),
        ("movies.dat", "2000::Unrated Movie (1999)::Horror",
         "movies.dat:5: movie 2000 listed twice with other genres"),
    ], ids=["user", "movie"])
    def test_id_listed_again_with_other_fields_names_line(self, ml_files, tmp_path, name, line, message):
        # the first listing would otherwise lose its attributes to the second, even F from the vocabulary
        path = tmp_path / "again" / name
        path.parent.mkdir()
        path.write_text({"users.dat": USERS, "movies.dat": MOVIES}[name] + line + "\n", encoding="iso-8859-1")
        files = dict(ml_files, **{name: str(path)})
        with pytest.raises(corpus.LoadError, match=f"{message}$"):
            corpus.parse_movielens(files["ratings.dat"], files["users.dat"], files["movies.dat"])

    def test_id_listed_again_with_the_same_fields_parses_as_once(self, ml_files, tmp_path):
        users = tmp_path / "users_again.dat"
        users.write_text(USERS + "1::F::01::10::99999\n", encoding="iso-8859-1")  # another zip only
        movies = tmp_path / "movies_again.dat"
        movies.write_text(MOVIES + "661::Retitled::Musical|Animation|Children's\n", encoding="iso-8859-1")
        want = corpus.parse_movielens(ml_files["ratings.dat"], ml_files["users.dat"], ml_files["movies.dat"])
        got = corpus.parse_movielens(ml_files["ratings.dat"], str(users), str(movies))
        for side in ("user", "item"):
            a, b = getattr(got[1], f"{side}_attrs"), getattr(want[1], f"{side}_attrs")
            assert np.array_equal(a.offsets, b.offsets) and np.array_equal(a.flat, b.flat)
            assert getattr(got[1], f"{side}_vocab_size") == getattr(want[1], f"{side}_vocab_size")
        assert np.array_equal(got[0].per_user_items.flat, want[0].per_user_items.flat)

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
        data, _ = corpus.parse_generic(inter, uattr, iattr)
        # user 50 has 9 interactions -> dropped; 10 is the retained boundary. Users 60 and 70
        # pinned raw items 9..18 and 19..30, which become dense users 0, 1 and items 0..21
        assert data.num_users == 2 and data.num_items == 22
        assert pairs_of(data) == [(0, i) for i in range(10)] + [(1, i) for i in range(10, 22)]

    @pytest.mark.parametrize("raw", ["1_0", " 10 ", "+10", "\u0661\u0660"])
    def test_non_decimal_id_names_line(self, tmp_path, raw):
        inter, uattr, iattr = self._files(tmp_path, {10: 10, -3: 10})
        with open(inter, "a", encoding="utf-8") as fh:
            fh.write(f"{raw}\t5\t100\n")
        with pytest.raises(corpus.ParseError, match="inter.tsv:21: user id is not an integer"):
            corpus.parse_generic(inter, uattr, iattr)

    def test_negative_ids_parse(self, tmp_path):
        data, _ = corpus.parse_generic(*self._files(tmp_path, {10: 10, -3: 10}))
        assert data.num_users == 2

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
        _, catalog = corpus.parse_generic(inter, uattr, iattr, cmap)
        # 12 raw categories collapse to 3 mains (+1 pin-count bucket id)
        assert catalog.user_vocab_size == 3 + 1

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
        _, catalog = corpus.parse_generic(inter, uattr, iattr, cmap)
        assert catalog.user_vocab_size == 45 + 1  # mains + pin-count bucket

    def test_unmapped_category_fails(self, tmp_path):
        inter, uattr, iattr = self._files(tmp_path, {60: 10, 70: 12})
        cmap = _write(tmp_path / "cmap.tsv", "othercat\tmain0\n")
        with pytest.raises(corpus.LoadError, match="unmapped category"):
            corpus.parse_generic(inter, uattr, iattr, cmap)

    def test_every_entity_has_attributes(self, tmp_path):
        # item attribute file is empty: exposure buckets must cover all items
        inter, uattr, iattr = self._files(tmp_path, {60: 10, 70: 12})
        _, catalog = corpus.parse_generic(inter, uattr, iattr)
        assert catalog.item_attrs.lengths.min() >= 1
        assert catalog.user_attrs.lengths.min() >= 2  # category + bucket

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
        data, _ = corpus.parse_generic(inter, uattr, iattr)
        assert data.num_users == 1


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
    elif how == "one crlf line":  # this line ends in "\r\n", the others in "\n"
        line[-1] += "\r"
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
        None, "comment", "blank", "crlf", "one crlf line", "cr crlf", "crlf, no final newline",
        "crlf, final cr only", "no final newline", "lone minus", "double minus",
        "inner minus", "triple colon", "lone colon", "tab", "carriage return", *_WIDE,
        "non-ASCII digit", "empty field", "field dropped", "field moved", "non-UTF-8 byte"]))
    if how in _WIDE:
        how = draw(st.sampled_from(_WIDE[how]))
    if how is not None:
        lines = _perturbed(lines, how, draw(st.integers(0, len(lines) - 1)),
                           draw(st.integers(0, width - 1)), digit)
    end = {"cr crlf": "\r\r\n"}.get(how, "\r\n" if str(how).startswith("crlf") else "\n")
    text = "".join(sep.join(line) + end for line in lines)
    if how in ("no final newline", "crlf, final cr only"):
        text = text[:-1]
    elif how == "crlf, no final newline":
        text = text[:-2]
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
    @example(("\t", b"1\t2\t3\r\n4\t5\t6\r\n"))
    @example(("::", b"1::2::3::4\r\r\n"))
    @example(("\t", b"1\t2\t3\r\n4\t5\t6\n"))
    @example(("\t", b"1\t2\t3\r\n4\t5\t6\r"))
    @example(("\t", b"1\t2\t3\r\n\r\n"))
    @example(("\t", b"1\t2\r\n\t3\n"))
    @example(("::", b"1\t2::3::4\n"))
    @example(("::", b"1::2::3:::4\n"))
    @example(("::", b"1::2::::3\n"))                             # an empty field once each "::" is a tab
    @example(("::", b"1::2::3::4::\n"))                          # a fifth, empty field
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
        copies = {"commented": b"# generated\n" + path.read_bytes(),
                  "crlf": path.read_bytes().replace(b"\n", b"\r\n"),
                  "cr crlf": path.read_bytes().replace(b"\n", b"\r\r\n")}
        for name, data in copies.items():
            (tmp_path / name).write_bytes(data)

        def per_line(*args):
            raise AssertionError("read line by line")

        monkeypatch.setattr(corpus, "_records", per_line)
        for name in (path, tmp_path / "crlf"):
            assert np.array_equal(corpus._int_rows(*_int_rows_args(name, sep)), expected)
        for name in ("commented", "cr crlf"):
            with pytest.raises(AssertionError, match="read line by line"):
                corpus._int_rows(*_int_rows_args(tmp_path / name, sep))
        monkeypatch.undo()
        for name in ("commented", "cr crlf"):
            assert np.array_equal(corpus._int_rows(*_int_rows_args(tmp_path / name, sep)), expected)


# -- attribute file reader --------------------------------------------------


def _reference_attr_file(path, category_map):
    """The per-line reader: raw id -> its set of (mapped) names, each line checked in turn."""
    named = {}
    for n, (raw, name) in corpus._records(path, "\t", 2, "utf-8"):
        raw = corpus._parse_int(raw, path, n, "entity id")
        if category_map is not None:
            if name not in category_map:
                raise corpus.LoadError(f"{path}:{n}: unmapped category {name!r}")
            name = category_map[name]
        named.setdefault(raw, set()).add(name)
    return named


def _as_named(listed):
    """The raw id -> set of names dict of _read_attr_file's (entity raw ids, name ids, names)."""
    ents, codes, names = listed
    named = {}
    for raw, code in zip(ents.tolist(), codes.tolist()):
        named.setdefault(raw, set()).add(names[code])
    return named


def _outcome(read):
    """read()'s value, or the class and text of the CorpusError it raised."""
    try:
        return read()
    except corpus.CorpusError as exc:
        return type(exc), str(exc)


_ATTR_IDS = ["1", "2", "100", "105", "109", "7"]  # user 1 is kept, user 2 dropped by the >= 10 filter
_ATTR_BAD_IDS = ["-0", "+5", "1_0", "0" * 16 + "105", "١", "", "1 "]  # "-0" and 19 digits are ids
_ATTR_NAMES = ["art", "tech", "food", "", "café", "art ", "zzz", "105"]
_ATTR_MAP = {"art": "A", "tech": "A", "food": "F", "": "E", "café": "F", "105": "E"}  # "art ", "zzz" unmapped


@st.composite
def _attr_files(draw):
    """(file bytes, whether the category map applies): attribute lines, a few damaged."""
    lines = ["\t".join(line) for line in draw(st.lists(
        st.tuples(st.sampled_from(_ATTR_IDS), st.sampled_from(_ATTR_NAMES)), min_size=1, max_size=8))]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["comment", "blank", "3 fields", "non-UTF-8", "bad id"]))
        if how == "comment":
            lines.insert(k, "# a note\tx")
        elif how == "blank":
            lines.insert(k, "")
        elif how == "3 fields":
            lines[k] += "\t" + draw(st.sampled_from(_ATTR_NAMES))
        elif how == "non-UTF-8":
            lines[k] += "\udce9"
        else:
            lines[k] = draw(st.sampled_from(_ATTR_BAD_IDS)) + "\t" + lines[k].partition("\t")[2]
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r\r\n"])) for line in lines)
    if draw(st.booleans()):
        text = text[:-1]  # no final "\n"
    return text.encode("utf-8", "surrogateescape"), draw(st.booleans())


_ATTR_INTERACTIONS = "".join(f"1\t{item}\t{item}\n" for item in range(100, 110)) + "2\t100\t5\n2\t101\t6\n"


class TestAttrFile:
    @settings(max_examples=300, deadline=None)
    @given(_attr_files())
    @example((b"1\tart\r\n100\tfood\r\n", True))
    @example((b"1\tart\r\r\n100\tfood\r\r\n", False))
    @example((b"1\tart\n# a note\n100\tfood\n", False))
    @example((b"1\tart\n\n100\tfood\n", True))
    @example((b"1\tart\n100\tf\xe9\n", False))
    @example((b"1\tart\n100\tfood\textra\n", False))
    @example((b"1\t105\t1\n105\n", False))         # 3 fields, then 1: two id-name pairs if not split by line
    @example((b"+5\tart\n", False))
    @example((b"1_0\tart\n", False))
    @example((b"0000000000000000105\tart\n1\ttech\n", True))
    @example((b"-0\tart\n1\tfood", False))
    @example((b"1\tart\n2\tzzz\n", True))             # unmapped, on a user the >= 10 filter drops
    @example((b"1\tzzz\n+5\tart\n", True))            # unmapped before a bad id
    @example((b"+5\tart\n1\tzzz\n", True))            # and after it
    @example((b"1\tart\n1\tart\n100\t\n100\t\n", True))  # duplicate lines, an empty name
    @example((b"1\tart\n100\t\n", False))
    def test_matches_per_line_reader(self, tmp_path_factory, case):
        body, mapped = case
        directory = tmp_path_factory.getbasetemp()
        attrs, inter, cmap = directory / "attrs.tsv", directory / "inter.tsv", directory / "cmap.tsv"
        attrs.write_bytes(body)
        inter.write_text(_ATTR_INTERACTIONS, encoding="utf-8")
        cmap.write_text("".join(f"{raw}\t{main}\n" for raw, main in _ATTR_MAP.items()), encoding="utf-8")
        category_map = _ATTR_MAP if mapped else None
        expected = _outcome(lambda: _reference_attr_file(str(attrs), category_map))
        assert _outcome(lambda: _as_named(corpus._read_attr_file(str(attrs), category_map))) == expected
        if isinstance(expected, dict):  # parse's catalog: each side's kept entities' sets and one bucket
            named, expected = expected, ([], [])
            for raws in ([1], range(100, 110)):
                vocab = sorted(set().union(*(named.get(raw, set()) for raw in raws)))
                expected[0].append([sorted(map(vocab.index, named.get(raw, ()))) + [len(vocab)] for raw in raws])
                expected[1].append(len(vocab) + 1)

        def parse():
            _, catalog = corpus.parse_generic(str(inter), str(attrs), str(attrs), str(cmap) if mapped else None)
            sides = (catalog.user_attrs, catalog.item_attrs)
            return [[row.tolist() for row in rows_of(side)] for side in sides], \
                [catalog.user_vocab_size, catalog.item_vocab_size]

        assert _outcome(parse) == expected
        with pytest.MonkeyPatch.context() as patch:  # every file read line by line
            patch.setattr(corpus, "_plain_attr_lines", lambda data: None)
            assert _outcome(parse) == expected

    @pytest.mark.parametrize("mapped", [False, True])
    def test_plain_file_is_read_whole(self, generated_interactions, mapped, monkeypatch, tmp_path):
        directory = generated_interactions["\t"].parent
        with open(directory / "category_map.tsv", encoding="utf-8") as fh:
            category_map = dict(line.rstrip("\n").split("\t") for line in fh) if mapped else None
        path, commented = directory / "user_attrs.tsv", tmp_path / "commented.tsv"
        commented.write_bytes(b"# generated\n" + path.read_bytes())
        expected = corpus._read_attr_file(str(commented), category_map)
        assert _as_named(expected) == _reference_attr_file(str(path), category_map)

        def per_line(*args):
            raise AssertionError("read line by line")

        monkeypatch.setattr(corpus, "_records", per_line)
        got = corpus._read_attr_file(str(path), category_map)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)
        with pytest.raises(AssertionError, match="read line by line"):
            corpus._read_attr_file(str(commented), category_map)


# -- interaction indexer -----------------------------------------------------


def _reference_index(triples, min_user_interactions):
    """The set/dict indexer: each pair once, the count filter, a sorted remap; each kept user's
    row of dense items, ascending."""
    pairs = {(user, item) for user, item, _ in triples}
    counts = collections.Counter(user for user, _ in pairs)
    kept = {(user, item) for user, item in pairs if counts[user] >= min_user_interactions}
    raw_users = sorted({user for user, _ in kept})
    raw_items = sorted({item for _, item in kept})
    item_map = {raw: k for k, raw in enumerate(raw_items)}
    return raw_users, raw_items, [sorted(item_map[i] for u, i in kept if u == user) for user in raw_users]


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
        table = np.array(triples, dtype=np.int64).reshape(-1, 3)  # the parsers' (n, 3) table
        if not raw_users:
            with pytest.raises(corpus.LoadError, match=r"^inter\.tsv: empty dataset after the >= 10"):
                corpus._index("inter.tsv", table, min_user_interactions)
            return
        data, users, items = corpus._index("inter.tsv", table, min_user_interactions)
        assert users.tolist() == raw_users and items.tolist() == raw_items
        assert (data.num_users, data.num_items) == (len(raw_users), len(raw_items))
        assert [row.tolist() for row in rows_of(data.per_user_items)] == expected

    def test_no_rows_is_an_error(self):
        with pytest.raises(corpus.LoadError, match=r"^inter\.tsv: no interactions$"):
            corpus._index("inter.tsv", np.empty((0, 3), dtype=np.int64), 1)


# -- attribute catalog -------------------------------------------------------


class TestAttributeCatalog:
    def test_unsorted_lists_stored_sorted(self):
        catalog = corpus.AttributeCatalog(
            user_attrs=tc.Ragged.from_rows([[2, 0, 1], np.array([1]), (3, 0, 3)]),
            item_attrs=tc.Ragged.from_rows([[4, 1], [0]]),
            user_vocab_size=4, item_vocab_size=5,
        )
        assert [a.tolist() for a in rows_of(catalog.user_attrs)] == [[0, 1, 2], [1], [0, 3, 3]]
        assert [a.tolist() for a in rows_of(catalog.item_attrs)] == [[1, 4], [0]]
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
            corpus.AttributeCatalog(tc.Ragged.from_rows(user_attrs), tc.Ragged.from_rows(item_attrs),
                                    user_vocab_size=3, item_vocab_size=2)


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
            _, catalog = corpus.parse_generic(inter, uattr, iattr)

            kept = {u: n for u, n in counts.items() if n >= corpus.MIN_USER_INTERACTIONS}
            exposure = {i: 0 for u, i in rows if u in kept}
            for i in exposure:
                for u, j in rows:
                    if u in kept and j == i:
                        exposure[i] += kept[u]
            assert 1002 not in exposure and (exposure[1000], exposure[1001]) == (50, 51)
            sides = {
                "user": (kept, {u: f"g{u % 4}" for u in kept if u % 3}, corpus.USER_BUCKET_SIZE,
                         rows_of(catalog.user_attrs)),
                "item": (exposure, {i: f"c{i % 5}" for i in exposure if i % 3 == 0}, corpus.ITEM_BUCKET_SIZE,
                         rows_of(catalog.item_attrs)),
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
    ragged, _ = corpus._encode("counts.tsv", "user", corpus._listed({}), np.array([7]), np.array([count]), width)
    return ragged.flat.item()


def _item_buckets(tmp_path, pins):
    """parse_generic's item buckets, raw item id -> bucket, for `pins` (raw user -> raw items).

    No kept entity has a listed attribute, so each item's row is its bucket alone.
    """
    rows = [(u, i) for u, items in pins.items() for i in items]
    inter = _write(tmp_path / "inter.tsv", "".join(f"{u}\t{i}\t{k}\n" for k, (u, i) in enumerate(rows)))
    attr = _write(tmp_path / "attr.tsv", "999999\tnone\n")
    data, catalog = corpus.parse_generic(inter, attr, attr)
    kept = sorted({i for u, i in rows if len(pins[u]) >= corpus.MIN_USER_INTERACTIONS})
    assert data.num_items == len(kept)
    return {raw: row.tolist()[0] for raw, row in zip(kept, rows_of(catalog.item_attrs))}


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
    users, items = [], []
    for u in range(num_users):
        n = int(rng.integers(lo, hi))
        users += [u] * n
        items += rng.choice(num_items, size=n, replace=False).tolist()
    return interaction_set(num_users, num_items, users, items)


def _with_edge_pools(seed):
    """TestLeaveOneOut's corpus: 30 random users beside two whose pools are exactly 99 and 100 items."""
    rng = np.random.default_rng(seed % 1000)
    users, items = np.array(pairs_of(_random_interactions(rng, num_users=30, num_items=140, lo=2, hi=40))).T
    users = np.concatenate([users, [30] * 41, [31] * 40])
    items = np.concatenate([items, rng.choice(140, 41, replace=False), rng.choice(140, 40, replace=False)])
    data = interaction_set(32, 140, users, items)
    assert (140 - data.per_user_items.lengths[30:]).tolist() == [99, 100]
    return data


def _reference_split(data, seed):
    """The split as a per-user loop in Python ints: hash, Lemire, Floyd with a set, setdiff1d."""
    positives = np.empty(data.num_users, dtype=np.int64)
    negatives = np.empty((data.num_users, 99), dtype=np.int64)
    all_items = np.arange(data.num_items, dtype=np.int64)
    for u, mine in enumerate(rows_of(data.per_user_items)):
        key = lane_key(seed, u, SPLIT_TAG)
        positives[u] = mine[below(key, len(mine), 0)]
        pool = np.setdiff1d(all_items, mine, assume_unique=True)
        chosen = set()
        for r, last in enumerate(range(len(pool) - 99, len(pool))):
            t = below(key, last + 1, 1 + r)
            chosen.add(last if t in chosen else t)
        negatives[u] = pool[sorted(chosen)]
    return positives, negatives, [(u, i) for u, i in pairs_of(data) if i != positives[u]]


class TestSplitHash:
    GAMMA = 0x9E3779B97F4A7C15

    def test_splitmix64_from_state_zero_gives_the_standard_outputs(self):
        states = np.array([0, self.GAMMA, 2 * self.GAMMA & M64], dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = corpus.splitmix64(states)
        assert got.dtype == np.uint64
        assert got.tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_splitmix64_matches_python_ints_where_every_step_wraps(self):
        states = [0, 1, 2**63, M64, M64 - self.GAMMA, 0x0123456789ABCDEF]
        assert corpus.splitmix64(np.array(states, dtype=np.uint64)).tolist() == [
            splitmix64(state) for state in states]

    @pytest.mark.parametrize("bound", [1, 2, 3, 2**31 + 1, 2**32 - 1])
    def test_uniform_below_stays_in_range_and_matches_python_ints(self, bound):
        # at 2**31 + 1 the threshold is 2**31 - 1: about half the first attempts are rejected
        keys = corpus.splitmix64(np.arange(2000, dtype=np.uint64))
        bounds = np.full(keys.size, bound, dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = corpus.uniform_below(keys, bounds, 5)
        assert draws.dtype == np.uint64
        assert int(draws.max()) < bound
        assert draws.tolist() == [below(key, bound, 5) for key in keys.tolist()]

    def test_uniform_below_mixed_bounds_per_lane(self):
        # lanes redrawn at attempts 1, 2, ... sit between lanes accepted at attempt 0
        keys = corpus.splitmix64(np.arange(600, dtype=np.uint64) + np.uint64(7))
        bounds = np.resize(np.array([1, 2, 2**32 - 1, 2**31 + 1, 99, 2**31 + 3], dtype=np.uint64), 600)
        draws = corpus.uniform_below(keys, bounds, 0)
        assert draws.tolist() == [below(k, b, 0) for k, b in zip(keys.tolist(), bounds.tolist())]

    def test_split_keys_take_every_seed_word(self):
        # seed_key + lane_keys, under the split's prefix and under the sampler's (epoch tag, epoch) one
        lanes = np.arange(3)
        keys = [corpus.lane_keys(corpus.seed_key(seed, SPLIT_TAG), lanes).tolist()
                for seed in (42, 2**64 + 42, 2**127 - 1)]
        assert keys[0] != keys[1] and keys[1] != keys[2]
        assert keys[1] == [lane_key(2**64 + 42, u, SPLIT_TAG) for u in range(3)]
        assert keys[2] == [lane_key(2**127 - 1, u, SPLIT_TAG) for u in range(3)]
        untagged = corpus.lane_keys(corpus.seed_key(42), lanes).tolist()
        assert untagged != keys[0] and untagged == [lane_key(42, u) for u in range(3)]
        epochs = {epoch: corpus.lane_keys(corpus.seed_key(2**64 + 42, EPOCH_TAG, epoch), lanes).tolist()
                  for epoch in (19, 20)}
        assert epochs[20] == [lane_key(2**64 + 42, j, EPOCH_TAG, 20) for j in range(3)]
        assert epochs[19] != epochs[20] and epochs[20] != keys[1]
        with pytest.raises(ValueError, match="non-negative"):
            corpus.seed_key(-1, SPLIT_TAG)


class TestLeaveOneOut:
    @pytest.mark.parametrize("seed", [0, 42, 2**32, 2**64 + 3])
    def test_matches_reference_loop(self, seed):
        data = _with_edge_pools(seed)
        split = corpus.leave_one_out_split(data, seed)
        positives, negatives, train = _reference_split(data, seed)
        assert np.array_equal(split.test_positives, positives)
        assert np.array_equal(split.test_negatives, negatives)
        assert pairs_of(split.train) == train

    def test_first_failing_user_names_the_error(self):
        # user 1 is one unobserved item short of 99, user 2 has one interaction
        users = [0, 0] + [1] * 22 + [2]
        items = [0, 1] + list(range(22)) + [5]
        data = interaction_set(3, 120, users, items)
        with pytest.raises(corpus.SplitError, match=r"^user 1 has only 98 unobserved items; need 99$"):
            corpus.leave_one_out_split(data, seed=0)

    def test_count_check_precedes_pool_check(self):
        # one interaction in a 99-item catalog fails both checks: the count one is named
        data = interaction_set(2, 99, [0, 1, 1], [3, 0, 1])
        with pytest.raises(corpus.SplitError, match=r"^user 0 has 1 interaction\(s\); need at least 2$"):
            corpus.leave_one_out_split(data, seed=0)

    def test_two_item_user_forced_partition(self):
        users = [0, 0, 1, 1]
        items = [0, 1, 2, 3]
        data = interaction_set(2, 105, users, items)
        split = corpus.leave_one_out_split(data, seed=9)
        pos = split.test_positives[0]
        assert pos in (0, 1)
        assert rows_of(split.train.per_user_items)[0].tolist() == [1 - pos]

    def test_forced_negative_set(self):
        # 101-item catalog, user touches exactly 2: negatives must be the other 99
        users = [0, 0, 1, 1]
        items = [7, 42, 0, 1]
        data = interaction_set(2, 101, users, items)
        split = corpus.leave_one_out_split(data, seed=4)
        expected = np.setdiff1d(np.arange(101), [7, 42])
        assert np.array_equal(np.sort(split.test_negatives[0]), expected)

    def test_negative_invariants(self):
        rng = np.random.default_rng(5)
        data = _random_interactions(rng)
        split = corpus.leave_one_out_split(data, seed=77)
        train_rows = rows_of(split.train.per_user_items)
        for u, mine in enumerate(rows_of(data.per_user_items)):
            negs = split.test_negatives[u]
            assert len(negs) == 99 and len(set(negs.tolist())) == 99
            assert not set(negs.tolist()) & set(mine.tolist())
            assert split.test_positives[u] in mine
            assert split.test_positives[u] not in train_rows[u]

    def test_train_plus_positives_partition_original(self):
        rng = np.random.default_rng(6)
        data = _random_interactions(rng)
        split = corpus.leave_one_out_split(data, seed=1)
        held = {(u, int(split.test_positives[u])) for u in range(data.num_users)}
        train_pairs = set(pairs_of(split.train))
        original = set(pairs_of(data))
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
        # integer arithmetic only: these values hold on every numpy version
        users = [0, 0, 0, 1, 1, 2, 2, 2, 2]
        items = [3, 7, 120, 5, 44, 0, 1, 2, 100]
        data = interaction_set(3, 130, users, items)
        split = corpus.leave_one_out_split(data, seed=2024)
        assert split.test_positives.tolist() == [7, 44, 0]
        assert split.test_negatives[0][:5].tolist() == [1, 2, 4, 6, 8]
        assert split.test_negatives[1][:5].tolist() == [1, 2, 3, 8, 9]
        assert [int(split.test_negatives[u].sum()) for u in range(3)] == [6316, 6649, 6525]

    def test_appending_a_user_leaves_earlier_draws_unchanged(self):
        rng = np.random.default_rng(12)
        data = _random_interactions(rng, num_users=40, num_items=150, lo=2, hi=30)
        extra = rng.choice(150, 17, replace=False)
        users, items = np.array(pairs_of(data)).T
        grown = interaction_set(41, 150, np.concatenate([users, [40] * 17]), np.concatenate([items, extra]))
        before, after = (corpus.leave_one_out_split(d, seed=5) for d in (data, grown))
        assert np.array_equal(after.test_positives[:40], before.test_positives)
        assert np.array_equal(after.test_negatives[:40], before.test_negatives)

    def test_chunks_of_one_user_give_the_same_split(self, monkeypatch):
        rng = np.random.default_rng(13)
        data = _random_interactions(rng, num_users=20, num_items=300, lo=2, hi=40)
        whole = corpus.leave_one_out_split(data, seed=6)
        monkeypatch.setattr(corpus, "SPLIT_TABLE_BYTES", 1)  # one user per chunk
        chunked = corpus.leave_one_out_split(data, seed=6)
        assert np.array_equal(chunked.test_positives, whole.test_positives)
        assert np.array_equal(chunked.test_negatives, whole.test_negatives)

    def test_seed_words_past_64_bits_change_the_split(self):
        rng = np.random.default_rng(14)
        data = _random_interactions(rng)
        low, high = (corpus.leave_one_out_split(data, seed) for seed in (42, 2**64 + 42))
        assert not np.array_equal(low.test_negatives, high.test_negatives)
        assert not np.array_equal(low.test_positives, high.test_positives)

    def test_no_generator_on_the_split_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Generator was built on the split path")
        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(tc, "seeded_rng", refuse)
        monkeypatch.setattr(corpus, "seeded_rng", refuse, raising=False)
        rng = np.random.RandomState(15)  # the legacy generator builds no Generator
        users = np.repeat(np.arange(6), 12)
        items = np.concatenate([rng.choice(140, 12, replace=False) for _ in range(6)])
        data = interaction_set(6, 140, users, items)
        split = corpus.leave_one_out_split(data, seed=3)
        assert split.test_negatives.shape == (6, 99)

    def test_held_out_picks_are_uniform_over_each_users_items(self):
        # 3,000 users at each of 2, 3, 5 and 8 items; the pick's index among the user's items
        counts = (2, 3, 5, 8)
        users = np.repeat(np.arange(3000 * len(counts)), np.repeat(counts, 3000))
        items = np.concatenate([np.arange(n) for n in np.repeat(counts, 3000)])
        data = interaction_set(users[-1] + 1, 200, users, items)
        for seed in (0, 2**64 + 1):
            picks = corpus.leave_one_out_split(data, seed).test_positives.reshape(len(counts), 3000)
            for n, row in zip(counts, picks):
                stat = uniform_chi2(np.bincount(row, minlength=n), 3000 / n)
                assert stat < CHI2_999[n - 1], (seed, n, stat)

    def test_each_pool_item_is_a_negative_at_the_same_rate(self):
        # 3,000 users with 10 random items of 150 each: pools of 140, of which 99 are drawn.
        # A slot's inclusion count is Binomial(N, p = 99/140); the fixed total leaves 139
        # degrees of freedom and scales the sum by m / (m - 1), undone here.
        rng = np.random.default_rng(16)
        num_users, num_items, pool = 3000, 150, 140
        items = np.argsort(rng.random((num_users, num_items)), axis=1)[:, :10]
        data = interaction_set(num_users, num_items, np.repeat(np.arange(num_users), 10), items.ravel())
        mine = np.sort(items, axis=1)
        for seed in (1, 77):
            negatives = corpus.leave_one_out_split(data, seed).test_negatives
            ranks = negatives - (mine[:, None, :] < negatives[:, :, None]).sum(axis=2)  # pool positions
            p = 99 / pool
            stat = uniform_chi2(np.bincount(ranks.ravel(), minlength=pool), num_users * p,
                                 scale=(pool - 1) / pool / (1 - p))
            assert stat < CHI2_999[pool - 1], (seed, stat)

    def test_single_interaction_user_errors_by_name(self):
        users = [0] + [1] * 3
        items = [5] + [0, 1, 2]
        data = interaction_set(2, 120, users, items)
        with pytest.raises(corpus.SplitError, match="user 0"):
            corpus.leave_one_out_split(data, seed=0)

    def test_insufficient_negative_pool_errors(self):
        users = [0, 0, 1, 1]
        items = [0, 1, 2, 3]
        data = interaction_set(2, 50, users, items)
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
        assert pairs_of(train) == pairs_of(split.train)
        # train.npy: the counts, then the rows' offsets and flat items
        with open(tmp_path / "train.npy", "rb") as fh:
            records = [np.load(fh, allow_pickle=False) for _ in range(3)]
            assert fh.read() == b""
        assert [r.dtype.str for r in records] == ["<i8"] * 3
        assert records[0].tolist() == [data.num_users, data.num_items]
        assert records[1].tobytes() == split.train.per_user_items.offsets.tobytes()
        assert records[2].tobytes() == split.train.per_user_items.flat.tobytes()

    def _held_and_saved_as_int64(self, data, tmp_path, dtype):
        """Split `data`, save and load it: both sides hold their test ids as `dtype`, equal, and
        split.npy is the int64 records, byte for byte."""
        split = corpus.leave_one_out_split(data, seed=2)
        path = str(tmp_path / "split.npy")
        corpus.save_split(split, path)
        loaded = corpus.load_split(path, split.train)
        for got in (split, loaded):
            assert got.test_positives.dtype == got.test_negatives.dtype == dtype
        assert loaded.test_positives.tobytes() == split.test_positives.tobytes()
        assert loaded.test_negatives.tobytes() == split.test_negatives.tobytes()
        records = io.BytesIO()
        for record in ([data.num_users, data.num_items], split.test_positives, split.test_negatives):
            np.save(records, np.asarray(record, dtype="<i8"), allow_pickle=False)
        assert (tmp_path / "split.npy").read_bytes() == records.getvalue()
        return split

    def test_negatives_are_int32_and_saved_as_the_int64_record(self, tmp_path):
        # 40,000 items are past 16-bit ids, so the (users x 99) table is held at int32, half
        # int64's bytes; every train item and so every positive lies past 2**15, where int16 wraps
        users = np.repeat(np.arange(4), 3)
        items = np.array([2**15, 2**15 + 1, 39_999] * 2 + [35_000, 36_000, 37_000] * 2)
        split = self._held_and_saved_as_int64(interaction_set(4, 40_000, users, items), tmp_path, np.int32)
        assert split.test_positives.min() >= 2**15 and split.test_negatives.max() >= 2**15

    def test_test_ids_are_int16_up_to_32768_items(self, tmp_path):
        # every id fits 16 bits: the negatives take 198 bytes per user where int64 took 792
        self._held_and_saved_as_int64(_random_interactions(np.random.default_rng(10)), tmp_path, np.int16)
        users = np.repeat(np.arange(3), 2)
        edge = interaction_set(3, 2**15, users, [0, 2**15 - 1, 7, 2**15 - 2, 2**15 - 1, 100])
        self._held_and_saved_as_int64(edge, tmp_path, np.int16)

    @pytest.mark.parametrize("num_items, bad", [(130, 2**32 + 101), (130, 2**16 + 5), (130, -1), (130, 130),
                                                (40_000, 2**32 + 101), (40_000, 40_000)])
    @pytest.mark.parametrize("where", ["positive", "negative"])
    def test_split_refuses_a_test_id_it_would_wrap(self, num_items, bad, where):
        # narrowing 2**32 + 101 to 32 bits, or 2**16 + 5 to 16, would turn it into a real item
        train = interaction_set(2, num_items, [0, 0, 1], [0, 1, 2])
        positives = np.array([5, 6], dtype=np.int64)
        negatives = np.tile(np.arange(10, 109, dtype=np.int64), (2, 1))
        if where == "positive":
            positives[1] = bad
        else:
            negatives[1, 98] = bad
        with pytest.raises(corpus.LoadError, match=rf"^a test item lies outside \[0, {num_items}\)$"):
            corpus.SplitDataset(train, positives, negatives)

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    @pytest.mark.parametrize("where", ["positive", "negative"])
    def test_split_checks_ids_already_at_their_width(self, dtype, where):
        # id_dtype(200) is int16: an array already that narrow is checked like any other
        train = interaction_set(2, 200, [0, 0, 1], [0, 1, 2])
        positives = np.array([5, 6], dtype=dtype)
        negatives = np.tile(np.arange(10, 109, dtype=dtype), (2, 1))
        if where == "positive":
            positives[0] = 250
        else:
            negatives[0, 98] = 250
        with pytest.raises(corpus.LoadError, match=r"^a test item lies outside \[0, 200\)$"):
            corpus.SplitDataset(train, positives, negatives)

    def test_catalog_round_trip(self, tmp_path, tiny_catalog):
        corpus.save_catalog(tiny_catalog, str(tmp_path / "attrs.npy"))
        loaded = corpus.load_catalog(str(tmp_path / "attrs.npy"))
        assert loaded.user_vocab_size == tiny_catalog.user_vocab_size
        assert loaded.item_vocab_size == tiny_catalog.item_vocab_size
        for side in ("user_attrs", "item_attrs"):
            got, want = getattr(loaded, side), getattr(tiny_catalog, side)
            assert np.array_equal(got.offsets, want.offsets) and np.array_equal(got.flat, want.flat)

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


class TestSplitTrainRows:
    @pytest.mark.parametrize("seed", [0, 42, 2**32, 2**64 + 3])
    def test_train_rows_equal_an_index_of_the_train_columns(self, seed):
        # the train rows are the full rows less each held-out item, built without a sort; on
        # TestLeaveOneOut's corpora: random users beside pools of exactly 99 and 100 items, and seed 5's
        for data in (_with_edge_pools(seed), _random_interactions(np.random.default_rng(5))):
            train = corpus.leave_one_out_split(data, seed).train
            _, _, pairs = _reference_split(data, seed)
            fresh = interaction_set(train.num_users, train.num_items, *zip(*pairs))
            assert train.per_user_items.offsets.tobytes() == fresh.per_user_items.offsets.tobytes()
            assert train.per_user_items.flat.tobytes() == fresh.per_user_items.flat.tobytes()


class TestInteractionSetInvariants:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(corpus.LoadError, match=r"^a user's items do not strictly ascend$"):
            corpus.InteractionSet(2, 2, tc.Ragged([0, 2, 2], [1, 1]))
        # the repeated (1, 0) pair is first and last in input order
        with pytest.raises(corpus.LoadError, match="strictly ascend"):
            interaction_set(2, 2, [1, 0, 0, 1, 1], [0, 1, 0, 1, 0])
        # one item in two rows is two pairs
        assert pairs_of(corpus.InteractionSet(2, 2, tc.Ragged([0, 1, 2], [1, 1]))) == [(0, 1), (1, 1)]

    def test_out_of_range_rejected(self):
        for num_users, offsets, flat, message in [
            (2, [0, 1, 2, 2], [1, 0], "2 users and 3 rows of items do not fit together"),  # a user past num_users
            (2, [0, 1], [1], "2 users and 1 rows of items do not fit together"),  # a user's row missing
            (0, [0], [], "0 users and 0 rows of items do not fit together"),
            (2, [0, 1, 2], [1, 2], r"an item lies outside \[0, 2\)"),
            (2, [0, 1, 2], [-1, 0], r"an item lies outside \[0, 2\)"),
        ]:
            with pytest.raises(corpus.LoadError, match=f"^{message}$"):
                corpus.InteractionSet(num_users, 2, tc.Ragged(offsets, flat))

    def test_per_user_items_sorted_and_complete(self):
        data = interaction_set(2, 5, [0, 1, 0, 1], [4, 3, 1, 0])
        assert [ids.tolist() for ids in rows_of(data.per_user_items)] == [[1, 4], [0, 3]]
        assert pairs_of(data) == [(0, 1), (0, 4), (1, 0), (1, 3)] and len(data) == 4


@st.composite
def _membership_cases(draw):
    """(num_users, num_items, train pairs, test positives, (user, item) queries), all small."""
    num_users, num_items = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    pair = st.tuples(st.integers(0, num_users - 1), st.integers(0, num_items - 1))
    pairs = draw(st.sets(pair, max_size=num_users * num_items))
    positives = draw(st.lists(st.integers(0, num_items - 1), min_size=num_users, max_size=num_users))
    return num_users, num_items, pairs, positives, draw(st.lists(pair, max_size=20))


class TestMembership:
    @settings(max_examples=200, deadline=None)
    @given(_membership_cases())
    @example((3, 4, set(), [0, 3, 1], [(2, 3), (0, 0)]))          # an empty train set
    @example((3, 5, {(1, 0), (1, 4)}, [4, 4, 2], [(0, 4), (2, 0)]))  # users 0 and 2 have no rows
    def test_contains_and_observed_agree_with_a_set_of_pairs(self, case):
        num_users, num_items, pairs, positives, queries = case
        users, items = (list(column) for column in zip(*pairs)) if pairs else ([], [])
        train = interaction_set(num_users, num_items, users, items)
        split = corpus.SplitDataset(train, np.array(positives, dtype=np.int64),
                                    np.zeros((num_users, 0), dtype=np.int64))
        observed = pairs | set(enumerate(positives))
        # every user against every item, 0 and num_items - 1 included: (U, 1) x (U, k)
        rows = np.arange(num_users)[:, None]
        grid = np.tile(np.arange(num_items), (num_users, 1))
        assert train.contains(rows, grid).tolist() == [
            [(u, i) in pairs for i in range(num_items)] for u in range(num_users)]
        assert split.observed(rows, grid).tolist() == [
            [(u, i) in observed for i in range(num_items)] for u in range(num_users)]
        # a flat query in any order, repeats allowed
        q_users = np.array([u for u, _ in queries], dtype=np.int64)
        q_items = np.array([i for _, i in queries], dtype=np.int64)
        assert train.contains(q_users, q_items).tolist() == [pair in pairs for pair in queries]
        assert split.observed(q_users, q_items).tolist() == [pair in observed for pair in queries]

    def _set(self):
        return interaction_set(3, 5, [0, 1, 2, 0], [4, 0, 2, 1])

    # (1, -1) would read bit 4, pair (0, 4); (0, 5) bit 5, pair (1, 0); (3, 0) bit 15, past the grid
    @pytest.mark.parametrize("user, item", [(3, 0), (0, 5), (1, -1), (-1, 4)],
                             ids=["user-num_users", "item-num_items", "item-minus-1", "user-minus-1"])
    def test_query_outside_the_grid_raises(self, user, item):
        with pytest.raises(tc.ShapeError, match="out of range"):
            self._set().contains(np.array([0, user]), np.array([4, item]))

    def test_pair_bits_are_built_once_on_the_first_query(self):
        train = self._set()
        assert "pair_bits" not in vars(train) and "pair_users" not in vars(train)  # so prepare pays nothing
        split = corpus.SplitDataset(train, np.array([3, 1, 0]), np.zeros((3, 0), dtype=np.int64))
        assert train.contains([0, 0, 1], [4, 3, 0]).tolist() == [True, False, True]
        bits, users = vars(train)["pair_bits"], vars(train)["pair_users"]
        assert bits.tolist() == [0b00110010, 0b00010000]  # keys 1, 4 and 5, then key 12 - 8
        assert users.tolist() == [0, 0, 1, 2] and users.dtype == np.int16  # id_dtype(3 users)
        split.observed(np.arange(3)[:, None], np.arange(5))
        list(training.sample_training_batches(split, 4, 3, seed=1, epoch=1))
        assert vars(train)["pair_bits"] is bits and vars(train)["pair_users"] is users

    def test_load_prepared_builds_no_bitmap_and_the_first_batch_builds_it(self, tmp_path):
        # evaluate queries no membership, so it never pays for the whole grid; train builds it
        # on its first epoch's first query and every later epoch shares it
        data = _random_interactions(np.random.default_rng(3))
        split = corpus.leave_one_out_split(data, seed=1)
        catalog = corpus.AttributeCatalog(tc.Ragged.from_rows([[0]] * data.num_users),
                                          tc.Ragged.from_rows([[0]] * data.num_items), 1, 1)
        corpus.save_prepared(str(tmp_path), split, catalog)
        loaded, _ = corpus.load_prepared(str(tmp_path))
        assert "pair_bits" not in vars(loaded.train) and "pair_users" not in vars(loaded.train)
        next(training.sample_training_batches(loaded, 4, 8, seed=1, epoch=1))
        bits = vars(loaded.train)["pair_bits"]
        assert bits.tolist() == self._bits_oracle(data.num_users, data.num_items, pairs_of(loaded.train))
        next(training.sample_training_batches(loaded, 4, 8, seed=1, epoch=2))
        assert vars(loaded.train)["pair_bits"] is bits

    def _bits_oracle(self, num_users, num_items, pairs):
        bits = bytearray(-(-num_users * num_items // 8))
        for user, item in pairs:
            key = user * num_items + item
            bits[key >> 3] |= 1 << (key & 7)
        return list(bits)

    @pytest.mark.parametrize("chunk", [1, 7, 8, 53, 1 << 14])
    def test_pair_bits_built_in_chunks_equal_one_pass(self, chunk, monkeypatch):
        # 53 pairs in chunks of 7 leave a short last chunk of 4; 53 is itself one chunk
        monkeypatch.setattr(corpus, "PAIR_CHUNK", chunk)
        rng = np.random.default_rng(5)
        keys = rng.choice(9 * 13, size=53, replace=False)
        users, items = keys // 13, keys % 13
        train = interaction_set(9, 13, users, items)
        assert train.pair_bits.tolist() == self._bits_oracle(9, 13, zip(users.tolist(), items.tolist()))

    def test_pair_bits_build_holds_the_bitmap_and_one_chunk(self):
        # one pass over every pair held four int64 temporaries and a uint8 one per pair, about
        # 33 bytes; chunks of PAIR_CHUNK pairs hold about 0.5 byte per pair here. pair_users is
        # the set's own, kept for the sampler too, so it is built before the bitmap is measured
        num_users, num_items, pairs = 2000, 1000, 1 << 20
        keys = np.sort(np.random.default_rng(6).choice(num_users * num_items, pairs, replace=False))
        offsets = np.concatenate([[0], np.bincount(keys // num_items, minlength=num_users).cumsum()])
        train = corpus.InteractionSet(num_users, num_items, tc.Ragged(offsets, keys % num_items))
        train.pair_users
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            bits = train.pair_bits
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert bits.nbytes == num_users * num_items // 8
        assert peak - bits.nbytes <= 2 * pairs, (peak - bits.nbytes) / pairs

    def _split_of_40_users(self):
        """40 users over 140 items: items 0-2 train, 3 the test positive and 4-102 the negatives."""
        users = np.repeat(np.arange(40), 3)
        train = interaction_set(40, 140, users, np.tile(np.arange(3), 40))
        return corpus.SplitDataset(train, np.full(40, 3), np.tile(np.arange(4, 103), (40, 1)))

    def _load(self, split, path):
        corpus.save_split(split, str(path))
        return corpus.load_split(str(path), split.train)

    def test_blocks_of_users_load_the_same_split(self, tmp_path, monkeypatch):
        # blocks of 7 users leave a short last block of 5
        monkeypatch.setattr(corpus, "SPLIT_CHECK_USERS", 7)
        split = self._split_of_40_users()
        loaded = self._load(split, tmp_path / "split.npy")
        assert loaded.test_positives.tolist() == split.test_positives.tolist()
        assert loaded.test_negatives.tobytes() == split.test_negatives.tobytes()

    @pytest.mark.parametrize("fault", ["unordered", "observed", "positive", "both"])
    def test_fault_in_any_block_is_refused_in_check_order(self, fault, tmp_path, monkeypatch):
        monkeypatch.setattr(corpus, "SPLIT_CHECK_USERS", 7)
        split = self._split_of_40_users()
        if fault in ("unordered", "both"):
            split.test_negatives[39, [5, 6]] = split.test_negatives[39, [6, 5]]  # the last block's last user
        if fault in ("observed", "both"):
            split.test_negatives[0, 0] = 2  # the first block's first user: a train item
        if fault == "positive":
            split.test_negatives[36, 98] = 103
            split.test_positives[36] = 103
        message = "strictly increasing" if fault in ("unordered", "both") else "already an observed item"
        with pytest.raises(corpus.LoadError, match=message):
            self._load(split, tmp_path / "split.npy")

    @pytest.mark.parametrize("user", [6, 13, 34, 39])
    def test_observed_negative_of_a_blocks_last_user_is_refused(self, user, tmp_path, monkeypatch):
        # blocks of 7: users 6, 13 and 34 end a block, 39 the short last one. Only this user's
        # train row holds item 103, so a block that took another user's row would miss it
        monkeypatch.setattr(corpus, "SPLIT_CHECK_USERS", 7)
        items = np.tile(np.arange(3), 40)
        items[3 * user + 2] = 103
        train = interaction_set(40, 140, np.repeat(np.arange(40), 3), items)
        negatives = np.tile(np.arange(4, 103), (40, 1))
        negatives[:, 98] = 120
        split = corpus.SplitDataset(train, np.full(40, 3), negatives)
        loaded = self._load(split, tmp_path / "clean.npy")
        assert loaded.test_negatives.tobytes() == split.test_negatives.tobytes()
        split.test_negatives[user, 98] = 103
        with pytest.raises(corpus.LoadError, match="already an observed item"):
            self._load(split, tmp_path / "split.npy")
