import argparse
import collections
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import ml1m_dir, requires_ml1m, time_bound, write_generic_dataset
from crossrec import cli, corpus, models
from crossrec import tensorcore as tc


def run_cli(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def prepare_args(dataset, out_dir, seed=11):
    inter, uattr, iattr = dataset
    return [
        "prepare", "--dataset-kind", "generic", "--interactions", inter,
        "--user-attrs", uattr, "--item-attrs", iattr, "--seed", str(seed),
        "--out", out_dir,
    ]


def run_cli_process(argv):
    """(exit code, stderr) of `crossrec argv` in a fresh interpreter, tracebacks included."""
    proc = subprocess.run([sys.executable, "-m", "crossrec.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stderr


def assert_validation_failure(code, err, where):
    assert code == 1
    assert re.search(rf"^crossrec: error: .*{re.escape(where)}.* does not fit in 64 bits", err, re.M)
    assert "Traceback" not in err


def read_metrics_csv(path):
    """A metrics CSV back as typed rows (a lossless round trip)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.readline().strip() == cli.METRICS_HEADER
        for line in fh:
            epoch, model, factors, seed, loss, hr10, ndcg10, wall = line.strip().split(",")
            rows.append({
                "epoch": int(epoch), "model": model, "factors": int(factors),
                "seed": int(seed), "train_loss": float(loss), "hr10": float(hr10),
                "ndcg10": float(ndcg10), "wall_seconds": float(wall),
            })
    return rows


def strip_wall(csv_text):
    return "\n".join(",".join(line.split(",")[:-1]) for line in csv_text.splitlines())


class TestPrepare:
    def test_summary_and_artifacts(self, generic_dataset, tmp_path, capsys):
        out = str(tmp_path / "run")
        code, stdout, _ = run_cli(prepare_args(generic_dataset, out), capsys)
        assert code == 0
        lines = dict(l.split("\t") for l in stdout.splitlines())
        assert lines["users"] == "30"
        assert int(lines["items"]) <= 140
        sparsity = float(lines["sparsity"])
        assert sparsity == 1.0 - int(lines["interactions"]) / (30 * int(lines["items"]))
        for name in (corpus.SPLIT_FILE, corpus.TRAIN_FILE, corpus.ATTRS_FILE):
            assert os.path.exists(os.path.join(out, name))

    def test_artifacts_are_int64_npy_records(self, generic_dataset, tmp_path, capsys):
        out = str(tmp_path / "run")
        code, stdout, _ = run_cli(prepare_args(generic_dataset, out), capsys)
        assert code == 0
        lines = dict(l.split("\t") for l in stdout.splitlines())
        users, items = int(lines["users"]), int(lines["items"])
        shapes = {
            name: [r.shape for r in read_records(os.path.join(out, name))]
            for name in PREPARED_FILES
        }
        train_pairs = int(lines["interactions"]) - users
        assert shapes[corpus.TRAIN_FILE] == [(2,), (3, train_pairs)]
        assert shapes[corpus.SPLIT_FILE] == [(2,), (users,), (users, 99)]
        vocab, user_offsets, _, item_offsets, _ = shapes[corpus.ATTRS_FILE]
        assert (vocab, user_offsets, item_offsets) == ((2,), (users + 1,), (items + 1,))
        for name in PREPARED_FILES:
            assert all(r.dtype == np.dtype("<i8") for r in read_records(os.path.join(out, name)))

    def test_rerun_is_checksum_identical(self, generic_dataset, tmp_path, capsys):
        outs = []
        for run in range(2):
            out = str(tmp_path / f"run{run}")
            code, _, _ = run_cli(prepare_args(generic_dataset, out), capsys)
            assert code == 0
            outs.append(out)
        for name in (corpus.SPLIT_FILE, corpus.TRAIN_FILE, corpus.ATTRS_FILE):
            a = Path(outs[0], name).read_bytes()
            b = Path(outs[1], name).read_bytes()
            assert a == b, name

    def test_missing_input_file_is_io_failure(self, generic_dataset, tmp_path, capsys):
        inter, uattr, _ = generic_dataset
        missing = str(tmp_path / "nope.tsv")
        code, _, err = run_cli(
            ["prepare", "--dataset-kind", "generic", "--interactions", inter,
             "--user-attrs", uattr, "--item-attrs", missing,
             "--seed", "1", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "nope.tsv" in err

    def test_malformed_line_is_validation_failure(self, tmp_path, capsys):
        inter = tmp_path / "inter.tsv"
        inter.write_text("1\t2\n")  # missing timestamp column
        ua = tmp_path / "ua.tsv"; ua.write_text("")
        ia = tmp_path / "ia.tsv"; ia.write_text("")
        code, _, err = run_cli(
            ["prepare", "--dataset-kind", "generic", "--interactions", str(inter),
             "--user-attrs", str(ua), "--item-attrs", str(ia),
             "--seed", "1", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 1
        assert "inter.tsv:1" in err

    def test_non_utf8_attribute_file_names_file_and_line(self, generic_dataset, tmp_path, capsys):
        uattr = generic_dataset[1]
        lines = len(Path(uattr).read_text(encoding="utf-8").splitlines())
        with open(uattr, "ab") as fh:
            fh.write(b"100\tcaf\xe9\n")  # ISO-8859-1 e-acute
        code, _, err = run_cli(prepare_args(generic_dataset, str(tmp_path / "x")), capsys)
        assert code == 1
        assert f"user_attrs.tsv:{lines + 1}: not utf-8 text" in err

    def test_user_id_past_int64_is_validation_failure(self, generic_dataset, tmp_path):
        inter = generic_dataset[0]
        lines = len(Path(inter).read_text(encoding="utf-8").splitlines())
        with open(inter, "a", encoding="utf-8") as fh:
            fh.write("12345678901234567890123\t500\t1000\n")
        code, err = run_cli_process(prepare_args(generic_dataset, str(tmp_path / "x")))
        assert_validation_failure(code, err, f"interactions.tsv:{lines + 1}: user id")

    def test_user_id_of_5000_digits_names_its_line(self, generic_dataset, tmp_path):
        # past int()'s own 4,300-digit limit, whose message names no file
        inter = generic_dataset[0]
        lines = len(Path(inter).read_text(encoding="utf-8").splitlines())
        with open(inter, "a", encoding="utf-8") as fh:
            fh.write("9" * 5000 + "\t500\t1000\n")
        code, err = run_cli_process(prepare_args(generic_dataset, str(tmp_path / "x")))
        assert_validation_failure(code, err, f"interactions.tsv:{lines + 1}: user id")
        assert "Exceeds the limit" not in err

    def test_seed_past_64_bits_prepares(self, generic_dataset, tmp_path, capsys):
        code, _, _ = run_cli(prepare_args(generic_dataset, str(tmp_path / "x"), seed=2**64 + 3), capsys)
        assert code == 0

    def test_category_map_flag_collapses_vocabulary(self, generic_dataset, tmp_path, capsys):
        inter, uattr, iattr = generic_dataset
        cmap = tmp_path / "cmap.tsv"
        cmap.write_text(
            "art\tcreative\ndiy\tcreative\nfood\tlifestyle\ntravel\tlifestyle\ntech\ttech\n"
        )
        out = str(tmp_path / "mapped")
        code, _, _ = run_cli(
            ["prepare", "--dataset-kind", "generic", "--interactions", inter,
             "--user-attrs", uattr, "--item-attrs", iattr,
             "--category-map", str(cmap), "--seed", "11", "--out", out],
            capsys,
        )
        assert code == 0
        catalog = corpus.load_catalog(os.path.join(out, corpus.ATTRS_FILE))
        # 3 consolidated names + the single pin-count bucket (all users < 41 pins),
        # instead of the 5 raw category names
        assert catalog.user_vocab_size == 4

    def test_seed_is_required(self, generic_dataset, tmp_path, capsys):
        inter, uattr, iattr = generic_dataset
        code, _, err = run_cli(
            ["prepare", "--dataset-kind", "generic", "--interactions", inter,
             "--user-attrs", uattr, "--item-attrs", iattr, "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 1
        assert "seed" in err


@pytest.fixture
def prepared(generic_dataset, tmp_path, capsys):
    out = str(tmp_path / "work")
    code, _, _ = run_cli(prepare_args(generic_dataset, out), capsys)
    assert code == 0
    return out


PREPARED_FILES = (corpus.TRAIN_FILE, corpus.SPLIT_FILE, corpus.ATTRS_FILE)


def read_records(path):
    """Every .npy record of a prepared file, in order."""
    records, size = [], os.path.getsize(path)
    with open(path, "rb") as fh:
        while fh.tell() < size:
            records.append(np.load(fh, allow_pickle=False))
    return records


def npy_bytes(records):
    buf = io.BytesIO()
    for record in records:
        np.save(buf, record)
    return buf.getvalue()


def train_args(out, model="gmf", factors=4, epochs=2, seed=11, extra=()):
    return [
        "train", "--model", model, "--factors", str(factors), "--layers", "8,4",
        "--epochs", str(epochs), "--seed", str(seed), "--out", out, *extra,
    ]


class TestTrain:
    def test_writes_metrics_and_checkpoint(self, prepared, capsys):
        code, stdout, _ = run_cli(train_args(prepared), capsys)
        assert code == 0
        rows = read_metrics_csv(cli.metrics_path(prepared, "gmf", 4))
        assert [r["epoch"] for r in rows] == [1, 2]
        assert all(r["model"] == "gmf" and r["factors"] == 4 for r in rows)
        assert os.path.exists(cli.ckpt_path(prepared, "gmf", 4))
        assert "best epoch" in stdout and "final epoch" in stdout

    def test_zero_epochs_checkpoint_is_initialization(self, prepared, capsys):
        code, _, _ = run_cli(train_args(prepared, epochs=0), capsys)
        assert code == 0
        csv_text = Path(cli.metrics_path(prepared, "gmf", 4)).read_text()
        assert csv_text == cli.METRICS_HEADER + "\n"
        store, _ = tc.load_checkpoint(cli.ckpt_path(prepared, "gmf", 4))
        config = models.ModelConfig(
            "gmf", store.shape("user_emb")[0], store.shape("item_emb")[0], factors=4,
            mlp_layers=(8, 4),
        )
        fresh = models.init_params(config, 11)
        for name in fresh.names():
            assert np.array_equal(store.value(name), fresh.value(name))

    def test_rerun_identical_outputs(self, prepared, capsys):
        csvs, ckpts = [], []
        for _ in range(2):
            code, _, _ = run_cli(train_args(prepared, model="camf"), capsys)
            assert code == 0
            csvs.append(Path(cli.metrics_path(prepared, "camf", 4)).read_text())
            ckpts.append(Path(cli.ckpt_path(prepared, "camf", 4)).read_bytes())
        assert ckpts[0] == ckpts[1]
        assert strip_wall(csvs[0]) == strip_wall(csvs[1])

    def test_metrics_csv_round_trip(self, prepared, capsys):
        run_cli(train_args(prepared, model="mlp", epochs=1), capsys)
        path = cli.metrics_path(prepared, "mlp", 4)
        rows = read_metrics_csv(path)
        rebuilt = cli.METRICS_HEADER + "\n" + "".join(
            f'{r["epoch"]},{r["model"]},{r["factors"]},{r["seed"]},'
            f'{repr(r["train_loss"])},{repr(r["hr10"])},{repr(r["ndcg10"])},'
            f'{repr(r["wall_seconds"])}\n'
            for r in rows
        )
        assert rebuilt == Path(path).read_text()

    def test_checkpoint_every_writes_snapshots(self, prepared, capsys):
        code, _, _ = run_cli(train_args(prepared, extra=("--checkpoint-every", "1")), capsys)
        assert code == 0
        base = cli.ckpt_path(prepared, "gmf", 4)
        assert os.path.exists(base + ".epoch1")
        assert os.path.exists(base + ".epoch2")

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_checkpoint_every_rejected(self, prepared, tmp_path, capsys, source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("checkpoint-every=-1\n")
        extra = (("--checkpoint-every", "-1") if source == "flag" else ("--config", str(cfg)))
        code, _, err = run_cli(train_args(prepared, epochs=3, extra=extra), capsys)
        assert code == 1
        assert "--checkpoint-every must be non-negative" in err
        assert not [name for name in os.listdir(prepared) if name.startswith("checkpoint_")]

    def test_config_file_with_flag_override(self, prepared, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=gmf\nfactors=4\nlayers=8,4\nepochs=5\nseed=11\n"
                       f"out={prepared}\n")
        code, _, _ = run_cli(["train", "--config", str(cfg), "--epochs", "1"], capsys)
        assert code == 0
        rows = read_metrics_csv(cli.metrics_path(prepared, "gmf", 4))
        assert len(rows) == 1  # the flag beat the file's epochs=5

    def test_unprepared_directory_is_io_failure(self, tmp_path, capsys):
        code, _, _ = run_cli(train_args(str(tmp_path / "empty")), capsys)
        assert code == 2


class TestEvaluate:
    def test_matches_final_training_row(self, prepared, capsys):
        run_cli(train_args(prepared, model="aadcf"), capsys)
        rows = read_metrics_csv(cli.metrics_path(prepared, "aadcf", 4))
        code, stdout, _ = run_cli(
            ["evaluate", "--model", "aadcf", "--factors", "4", "--out", prepared], capsys
        )
        assert code == 0
        lines = dict(l.split("\t") for l in stdout.splitlines())
        assert float(lines["hr10"]) == rows[-1]["hr10"]
        assert float(lines["ndcg10"]) == rows[-1]["ndcg10"]

    def test_attr_cross_round_trips_through_checkpoint(self, prepared, capsys):
        code, _, _ = run_cli(
            train_args(prepared, model="camf", epochs=1, extra=("--include-attr-cross",)),
            capsys,
        )
        assert code == 0
        rows = read_metrics_csv(cli.metrics_path(prepared, "camf", 4))
        code, stdout, _ = run_cli(
            ["evaluate", "--model", "camf", "--factors", "4", "--out", prepared], capsys
        )
        assert code == 0
        lines = dict(l.split("\t") for l in stdout.splitlines())
        assert float(lines["hr10"]) == rows[-1]["hr10"]
        store, header = tc.load_checkpoint(cli.ckpt_path(prepared, "camf", 4))
        assert header["include_attr_cross"] == "1"
        assert store.shape("h0_w")[0] == 4 * 4       # four crosses of width d=4

    @pytest.mark.parametrize("model", models.KINDS)
    def test_other_attribute_vocabulary_rejected_for_attribute_models(
            self, generic_dataset, tmp_path, capsys, model):
        out = str(tmp_path / "work")
        assert run_cli(prepare_args(generic_dataset, out), capsys)[0] == 0
        assert run_cli(train_args(out, model=model, epochs=1), capsys)[0] == 0
        assert corpus.load_prepared(out)[1].user_vocab_size == 6
        # the same users and items, every user listing only `art`
        uattr = generic_dataset[1]
        users = dict.fromkeys(line.split("\t")[0] for line in Path(uattr).read_text().splitlines())
        Path(uattr).write_text("".join(f"{u}\tart\n" for u in users))
        assert run_cli(prepare_args(generic_dataset, out), capsys)[0] == 0
        assert corpus.load_prepared(out)[1].user_vocab_size == 2   # vocabulary 6 -> 2
        code, _, err = run_cli(["evaluate", "--model", model, "--factors", "4", "--out", out], capsys)
        assert code == 1
        if model in ("aadcf", "camf"):   # the attribute tables' shapes are compared first
            assert "does not match the prepared dataset" in err
        else:                            # the run's fingerprint covers the catalog too
            assert "was trained on prepared run" in err

    @pytest.mark.parametrize("model", ["gmf", "camf"])
    def test_checkpoint_of_other_user_count_names_the_table(self, prepared, tmp_path, capsys, model):
        assert run_cli(train_args(prepared, model=model, epochs=1), capsys)[0] == 0
        other = str(tmp_path / "other")
        os.makedirs(other)
        dataset = write_generic_dataset(other, num_users=31)   # one user more, the same items
        assert run_cli(prepare_args(dataset, other), capsys)[0] == 0
        shutil.copy(cli.ckpt_path(prepared, model, 4), other)
        code, _, err = run_cli(["evaluate", "--model", model, "--factors", "4", "--out", other], capsys)
        assert code == 1
        assert "does not match the prepared dataset: parameter 'user_emb' has shape (30, 4)" in err
        assert f"its {model} header on this run needs (31, 4)" in err

    def test_run_prepared_again_with_another_seed_exits_1(self, generic_dataset, tmp_path, capsys):
        out = str(tmp_path / "work")
        assert run_cli(prepare_args(generic_dataset, out, seed=11), capsys)[0] == 0
        assert run_cli(train_args(out, epochs=1), capsys)[0] == 0
        split_before, trained_on = Path(out, corpus.SPLIT_FILE).read_bytes(), corpus.prepared_fingerprint(out)
        # the same raw files, so the same counts and shapes, but another split
        assert run_cli(prepare_args(generic_dataset, out, seed=12), capsys)[0] == 0
        assert Path(out, corpus.SPLIT_FILE).read_bytes() != split_before
        now = corpus.prepared_fingerprint(out)
        code, _, err = run_cli(["evaluate", "--model", "gmf", "--factors", "4", "--out", out], capsys)
        assert code == 1 and trained_on != now
        assert f"was trained on prepared run {trained_on}, but {out} holds prepared run {now}" in err

    def test_run_prepared_again_with_swapped_categories_exits_1(self, generic_dataset, tmp_path, capsys):
        out = str(tmp_path / "work")
        assert run_cli(prepare_args(generic_dataset, out), capsys)[0] == 0
        assert run_cli(train_args(out, model="camf", epochs=1), capsys)[0] == 0
        trained_on = corpus.prepared_fingerprint(out)
        # every user's categories swapped art<->tech and food<->diy: the vocabulary keeps its size
        uattr = generic_dataset[1]
        swap = {"art": "tech", "tech": "art", "food": "diy", "diy": "food", "travel": "travel"}
        lines = [line.split("\t") for line in Path(uattr).read_text().splitlines()]
        Path(uattr).write_text("".join(f"{u}\t{swap[c]}\n" for u, c in lines))
        assert run_cli(prepare_args(generic_dataset, out), capsys)[0] == 0
        now = corpus.prepared_fingerprint(out)
        code, _, err = run_cli(["evaluate", "--model", "camf", "--factors", "4", "--out", out], capsys)
        assert code == 1 and trained_on != now
        assert f"was trained on prepared run {trained_on}, but {out} holds prepared run {now}" in err

    def test_rank_dump(self, prepared, tmp_path, capsys):
        run_cli(train_args(prepared, epochs=1), capsys)
        dump = str(tmp_path / "ranks.tsv")
        code, _, _ = run_cli(
            ["evaluate", "--model", "gmf", "--factors", "4", "--out", prepared,
             "--ranks-out", dump], capsys,
        )
        assert code == 0
        lines = Path(dump).read_text().splitlines()
        assert len(lines) == 30
        ranks = [int(l.split("\t")[1]) for l in lines]
        assert all(1 <= r <= 100 for r in ranks)


class TestTracer:
    """perfbench/tracer.py wraps crossrec functions by name and reads
    GradientBuffer.names(); a rename on either side breaks it here."""

    def test_traced_camf_train_counts_spans_and_adam_params(self, prepared, tmp_path):
        root = Path(__file__).resolve().parent.parent
        spans = tmp_path / "spans.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(root / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "tracer.py"), str(spans), "--",
             *train_args(prepared, model="camf", epochs=1)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        raw = json.loads(spans.read_text(encoding="utf-8"))
        counts = collections.Counter(raw["names"][nid] for nid in raw["name"])
        assert counts["training.step"] > 0 and counts["tensorcore.adam"] == counts["training.step"]
        store, _ = tc.load_checkpoint(cli.ckpt_path(prepared, "camf", 4))
        per_call = raw["counters"]["tensorcore.adam_params"] / counts["tensorcore.adam"]
        assert per_call == len(store.names())


def _short_payload(blob):
    """Drop the payload's last float and restate the payload size to match."""
    head, rest = blob.split(b"\ndata ", 1)
    size, payload = rest.split(b"\n", 1)
    return head + b"\ndata %d\n" % (int(size) - 4) + payload[:-4]


def _payload_start(blob):
    return blob.index(b"\n", blob.index(b"\ndata ") + 1) + 1


def _flip_item_exponents(blob):
    """XOR one exponent bit in 40 item_emb floats (its offset summed from the param lines)."""
    params = re.findall(rb"^param (\S+) (\d+) (\d+)$", blob[:_payload_start(blob)], re.M)
    names = [name for name, _, _ in params]
    offset = 4 * sum(int(rows) * int(cols) for _, rows, cols in params[:names.index(b"item_emb")])
    damaged = bytearray(blob)
    for k in range(40):
        damaged[_payload_start(blob) + offset + 4 * k + 3] ^= 0x01
    return bytes(damaged)


def _resealed(tamper):
    """`tamper`, then restate the crc32 line, so the check behind the crc32 must catch it."""

    def damage(blob):
        blob = tamper(blob)
        start = _payload_start(blob)
        line = blob.rindex(b"\ncrc32 ", 0, start) + 1
        crc = zlib.crc32(blob[start:], zlib.crc32(blob[:line]))
        return blob[:line] + b"crc32 %d" % crc + blob[blob.index(b"\n", line):]

    return damage


def _bump_step_digit(blob):
    """Change the last digit of the Adam step, leaving the line well formed."""
    return re.sub(rb"\nstep (\d*)(\d)\n",
                  lambda m: b"\nstep %s%d\n" % (m.group(1), (int(m.group(2)) + 1) % 10), blob)


class TestCheckpointErrors:
    @pytest.mark.parametrize("tamper, message", [
        (lambda blob: blob.replace(b"CROSSREC-CKPT 2\n", b"CROSSREC-CKPT 1\n", 1),
         "a format-1 crossrec checkpoint, which this version does not read; train it again"),
        (lambda blob: b"user\trank\n0\t1\n", "not a crossrec checkpoint"),
        (_resealed(_short_payload), "its param lines need"),
        (_resealed(lambda blob: re.sub(rb"\nparam item_emb (\d+) ",
                                       lambda m: b"\nparam item_emb %d " % (int(m.group(1)) + 1), blob)),
         "its param lines need"),
        (_resealed(lambda blob: blob.replace(b"\nparam out_w 4 1\n", b"\nparam out_w 1 4\n")),
         "parameter 'out_w' has shape (1, 4)"),
        (_resealed(lambda blob: re.sub(rb"\nmeta prepared [^\n]*", b"", blob)),
         "no 'prepared' entry"),
        (_resealed(lambda blob: re.sub(rb"(\nparam [^\n]*)(\ncrc32 )",
                                       rb"\1\nparam huge 99999999999999999999 0\2", blob)),
         "checkpoint_gmf_f4.ckpt: "),   # past 64 bits: a malformed line, led by the file
        (_resealed(lambda blob: re.sub(rb"\nstep \d+\n", b"\nstep " + b"9" * 5000 + b"\n", blob)),
         "malformed checkpoint manifest line 'step 9999"),  # past int()'s own 4,300-digit limit
        (lambda blob: re.sub(rb"\nstep (\d+)\n", rb"\nstep\1\n", blob),
         "malformed checkpoint manifest line 'step"),
        (_resealed(lambda blob: re.sub(rb"\nmeta layers [^\n]*", b"", blob)),
         "no 'layers' entry"),
        (_resealed(lambda blob: blob.replace(b"meta factors 4", b"meta factors four")),
         "entry 'factors' is malformed"),
        (_resealed(lambda blob: blob.replace(b"meta factors 4", b"meta factors +4")),
         "header entry 'factors' is malformed"),
        (_resealed(lambda blob: blob.replace(b"meta factors 4", b"meta factors 0_4")),
         "header entry 'factors' is malformed"),
        (_resealed(lambda blob: blob.replace(b"meta include_attr_cross 0", b"meta include_attr_cross  0")),
         "header entry 'include_attr_cross' is malformed"),
        (_resealed(lambda blob: blob.replace(b"meta include_attr_cross 0", b"meta include_attr_cross 7")),
         "header entry 'include_attr_cross' is malformed"),
        (_resealed(lambda blob: blob.replace(b"meta model gmf", b"meta model camf")),
         "parameter 'gate_b' has shape absent"),
        (_flip_item_exponents, "does not match its crc32"),
        (lambda blob: re.sub(rb"\ncrc32 \d+", b"", blob), "no crc32 line"),
        (lambda blob: blob.replace(b"\nmeta seed", b"\nmeta seed\xff"), "not UTF-8"),
        (_bump_step_digit, "does not match its crc32"),
        (lambda blob: re.sub(rb"(\ncrc32 \d+\n)", rb"\1meta seed 12\n", blob),
         "follows the crc32 line"),
    ], ids=["format-1", "not-a-checkpoint", "payload-one-float-short", "param-rows-edited",
            "param-shape-edited", "no-prepared-entry", "param-dimension-too-large", "step-of-5000-digits",
            "step-without-space",
            "header-without-layers", "header-factors-not-a-number", "header-factors-plus-sign",
            "header-factors-underscore", "header-attr-cross-leading-space",
            "header-attr-cross-not-a-bool", "camf-header-on-gmf",
            "payload-bits-flipped", "no-crc32-line", "manifest-not-utf8",
            "step-digit-flipped", "line-after-crc32"])
    def test_damaged_checkpoint_exits_1(self, prepared, capsys, tamper, message):
        assert run_cli(train_args(prepared, epochs=1), capsys)[0] == 0
        path = cli.ckpt_path(prepared, "gmf", 4)
        with open(path, "rb") as fh:
            blob = fh.read()
        damaged = tamper(blob)
        assert damaged != blob
        with open(path, "wb") as fh:
            fh.write(damaged)
        code, _, err = run_cli(
            ["evaluate", "--model", "gmf", "--factors", "4", "--out", prepared], capsys
        )
        assert code == 1
        assert "crossrec: error:" in err and message in err and path in err


class TestGradcheckCommand:
    def test_all_kinds_exit_zero(self, capsys):
        for kind in models.KINDS:
            code, stdout, _ = run_cli(["gradcheck", "--model", kind, "--seed", "42"], capsys)
            assert code == 0
            assert "PASS" in stdout

    def test_report_lists_each_parameter_once(self, capsys):
        code, stdout, _ = run_cli(["gradcheck", "--model", "camf", "--seed", "42"], capsys)
        assert code == 0
        names = [l.split("\t")[0] for l in stdout.splitlines() if "max_rel_err" in l]
        assert len(names) == len(set(names)) == 15

    def test_unknown_model_is_validation_failure(self, capsys):
        code, _, err = run_cli(["gradcheck", "--model", "svd", "--seed", "1"], capsys)
        assert code == 1


class TestSweep:
    def test_grid_and_table_order(self, prepared, capsys):
        code, stdout, _ = run_cli(
            ["sweep", "--model", "camf,gmf", "--factors", "4,8", "--layers", "8,4",
             "--epochs", "1", "--seed", "11", "--out", prepared],
            capsys,
        )
        assert code == 0
        sweep = Path(prepared, "sweep.csv").read_text().splitlines()
        assert sweep[0] == "factors,camf_hr10,camf_ndcg10,gmf_hr10,gmf_ndcg10"
        assert len(sweep) == 3                       # header + one row per factor count
        assert sweep[1].split(",")[0] == "4"
        assert sweep[2].split(",")[0] == "8"
        for model in ("camf", "gmf"):
            for factors in (4, 8):
                assert os.path.exists(cli.ckpt_path(prepared, model, factors))
        table = [l for l in stdout.splitlines() if l and l[0].isdigit()]
        assert len(table) == 2

    def test_default_factor_grid(self, prepared, capsys):
        code, _, _ = run_cli(
            ["sweep", "--model", "gmf", "--layers", "8,4", "--epochs", "1",
             "--seed", "11", "--out", prepared],
            capsys,
        )
        assert code == 0
        sweep = Path(prepared, "sweep.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in sweep[1:]] == ["8", "16", "32"]

    def test_cells_are_best_epoch_rows_of_their_metrics(self, prepared, capsys):
        code, stdout, _ = run_cli(
            ["sweep", "--model", "gmf,aadcf", "--factors", "4,8", "--layers", "8,4",
             "--epochs", "3", "--seed", "11", "--out", prepared],
            capsys,
        )
        assert code == 0
        sweep = [line.split(",") for line in Path(prepared, "sweep.csv").read_text().splitlines()]
        table = [line.split("\t") for line in stdout.splitlines()]
        assert table[0] == sweep[0]
        for k, factors in enumerate((4, 8), start=1):
            assert sweep[k][0] == table[k][0] == str(factors)
            for m, model in enumerate(("gmf", "aadcf")):
                rows = read_metrics_csv(cli.metrics_path(prepared, model, factors))
                assert [r["epoch"] for r in rows] == [1, 2, 3]
                best = max(rows, key=lambda r: r["hr10"])   # the earliest of tied epochs
                cells = sweep[k][1 + 2 * m:3 + 2 * m]
                assert cells == [repr(best["hr10"]), repr(best["ndcg10"])]
                assert table[k][1 + 2 * m:3 + 2 * m] == [f"{best['hr10']:.4f}", f"{best['ndcg10']:.4f}"]

    @pytest.mark.parametrize("flag, text, repeated", [
        ("--model", "gmf,camf,gmf", "'gmf'"), ("--factors", "4,8,4", "4"),
    ], ids=["model", "factors"])
    def test_repeated_grid_value_exits_1_before_training(self, prepared, capsys, flag, text, repeated):
        code, _, err = run_cli(["sweep", flag, text, "--epochs", "1", "--seed", "11", "--out", prepared],
                               capsys)
        assert code == 1 and f"{flag} lists {repeated} more than once" in err
        assert sorted(os.listdir(prepared)) == sorted(PREPARED_FILES)

    def test_checkpoint_every_in_config_reaches_train_not_sweep(self, prepared, tmp_path, capsys):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(f"model=gmf\nfactors=4\nlayers=8,4\nepochs=1\nseed=11\nout={prepared}\n"
                       "checkpoint-every=1\n")
        snapshot = cli.ckpt_path(prepared, "gmf", 4) + ".epoch1"
        assert run_cli(["sweep", "--config", str(cfg)], capsys)[0] == 0
        assert os.path.exists(cli.ckpt_path(prepared, "gmf", 4)) and not os.path.exists(snapshot)
        assert run_cli(["train", "--config", str(cfg)], capsys)[0] == 0
        assert os.path.exists(snapshot)

    def test_failed_cell_reported_and_sweep_continues(self, prepared, capsys, monkeypatch):
        calls = []
        original = cli.train_and_save

        def flaky(config, log=print):
            calls.append((config.model, config.factors))
            if config.factors == 4:
                raise ValueError("synthetic cell failure")
            return original(config, log=log)

        monkeypatch.setattr(cli, "train_and_save", flaky)
        code, stdout, _ = run_cli(
            ["sweep", "--model", "gmf", "--factors", "4,8", "--layers", "8,4",
             "--epochs", "1", "--seed", "11", "--out", prepared],
            capsys,
        )
        assert code == 1
        assert "failed" in stdout
        assert calls == [("gmf", 4), ("gmf", 8)]     # kept going after the failure
        sweep = Path(prepared, "sweep.csv").read_text().splitlines()
        assert sweep[1].startswith("4,,")            # empty cell for the failure


def write_movielens_dataset(directory, num_users=40, num_movies=220, seed=12):
    """Synthetic files in the ::-separated layout (ratings/users/movies)."""
    rng = np.random.default_rng(seed)
    genres = ["Action", "Comedy", "Drama", "Horror", "Musical", "Sci-Fi"]
    ratings = os.path.join(directory, "ratings.dat")
    users = os.path.join(directory, "users.dat")
    movies = os.path.join(directory, "movies.dat")
    with open(ratings, "w", encoding="iso-8859-1") as fh:
        for u in range(1, num_users + 1):
            for i in rng.choice(num_movies, size=int(rng.integers(20, 40)), replace=False):
                fh.write(f"{u}::{int(i) + 1}::{int(rng.integers(1, 6))}::{978300000 + u + int(i)}\n")
    with open(users, "w", encoding="iso-8859-1") as fh:
        for u in range(1, num_users + 1):
            gender = "FM"[int(rng.integers(2))]
            age = [1, 18, 25, 35, 45, 50, 56][int(rng.integers(7))]
            fh.write(f"{u}::{gender}::{age}::{int(rng.integers(21))}::00000\n")
    with open(movies, "w", encoding="iso-8859-1") as fh:
        for i in range(1, num_movies + 1):
            picked = rng.choice(genres, size=int(rng.integers(1, 4)), replace=False)
            fh.write(f"{i}::Film Nº{i} (199{i % 10})::{'|'.join(picked)}\n")
    return ratings, users, movies


class TestPrepareFiles:
    """Each --dataset-kind requires its own file flags and rejects the other kind's."""

    @pytest.mark.parametrize("kind, drop, extra, message", [
        ("movielens", "--ratings", [], "--ratings is required for --dataset-kind movielens"),
        ("movielens", "--items", [], "--items is required for --dataset-kind movielens"),
        ("movielens", None, ["--interactions", "/nonexistent.tsv", "--category-map", "/nonexistent2.tsv"],
         "--interactions is not read for --dataset-kind movielens"),
        ("movielens", None, ["--category-map", "/nonexistent2.tsv"],
         "--category-map is not read for --dataset-kind movielens"),
        ("generic", "--user-attrs", [], "--user-attrs is required for --dataset-kind generic"),
        ("generic", None, ["--users", "/nonexistent.dat"], "--users is not read for --dataset-kind generic"),
    ], ids=["movielens-no-ratings", "movielens-no-items", "movielens-interactions-and-map",
            "movielens-map", "generic-no-user-attrs", "generic-users"])
    def test_flag_rule_exits_1_before_reading(self, kind, drop, extra, message, generic_dataset,
                                              tmp_path, capsys):
        if kind == "movielens":
            files = dict(zip(("--ratings", "--users", "--items"), write_movielens_dataset(str(tmp_path))))
        else:
            files = dict(zip(("--interactions", "--user-attrs", "--item-attrs"), generic_dataset))
        files.pop(drop, None)
        out = tmp_path / "out"
        argv = ["prepare", "--dataset-kind", kind, *(t for pair in files.items() for t in pair), *extra,
                "--seed", "1", "--out", str(out)]
        code, _, err = run_cli(argv, capsys)
        assert code == 1 and message in err and "Traceback" not in err
        assert not out.exists()


class TestMovielensPrepare:
    def test_movielens_kind_end_to_end(self, tmp_path, capsys):
        ratings, users, movies = write_movielens_dataset(str(tmp_path))
        out = str(tmp_path / "mlrun")
        code, stdout, _ = run_cli(
            ["prepare", "--dataset-kind", "movielens", "--ratings", ratings,
             "--users", users, "--items", movies, "--seed", "5", "--out", out],
            capsys,
        )
        assert code == 0
        lines = dict(l.split("\t") for l in stdout.splitlines())
        assert lines["users"] == "40"
        code, _, _ = run_cli(
            ["train", "--model", "aadcf", "--factors", "4", "--layers", "8,4",
             "--epochs", "1", "--seed", "5", "--out", out],
            capsys,
        )
        assert code == 0
        rows = read_metrics_csv(cli.metrics_path(out, "aadcf", 4))
        assert len(rows) == 1 and 0.0 <= rows[0]["hr10"] <= 1.0

    def test_non_integer_age_exits_with_line(self, tmp_path, capsys):
        ratings, users, movies = write_movielens_dataset(str(tmp_path))
        with open(users, "r+", encoding="iso-8859-1") as fh:
            body = fh.read().split("\n", 1)[1]
            fh.seek(0)
            fh.write("1::F::x1::10::48067\n" + body)
        code, _, err = run_cli(
            ["prepare", "--dataset-kind", "movielens", "--ratings", ratings,
             "--users", users, "--items", movies, "--seed", "5", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 1
        assert "users.dat:1: age is not an integer: 'x1'" in err

    def test_missing_users_file_exits_with_path(self, tmp_path, capsys):
        ratings, _, movies = write_movielens_dataset(str(tmp_path))
        gone = str(tmp_path / "users_gone.dat")
        code, _, err = run_cli(
            ["prepare", "--dataset-kind", "movielens", "--ratings", ratings,
             "--users", gone, "--items", movies, "--seed", "5",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "users_gone.dat" in err

    def test_timestamp_past_int64_is_validation_failure(self, tmp_path):
        ratings, users, movies = write_movielens_dataset(str(tmp_path))
        with open(ratings, "a", encoding="iso-8859-1") as fh:
            fh.write("1::2::5::12345678901234567890123\n")
        lines = len(Path(ratings).read_text(encoding="iso-8859-1").splitlines())
        code, err = run_cli_process(
            ["prepare", "--dataset-kind", "movielens", "--ratings", ratings,
             "--users", users, "--items", movies, "--seed", "5", "--out", str(tmp_path / "x")])
        assert_validation_failure(code, err, f"ratings.dat:{lines}: timestamp")

    @requires_ml1m
    def test_summary_reports_published_user_count(self, tmp_path, capsys):
        root = ml1m_dir()
        code, stdout, _ = run_cli(
            ["prepare", "--dataset-kind", "movielens",
             "--ratings", os.path.join(root, "ratings.dat"),
             "--users", os.path.join(root, "users.dat"),
             "--items", os.path.join(root, "movies.dat"),
             "--seed", "42", "--out", str(tmp_path / "ml")],
            capsys,
        )
        assert code == 0
        lines = dict(l.split("\t") for l in stdout.splitlines())
        parsed = corpus.parse_movielens(
            os.path.join(root, "ratings.dat"),
            os.path.join(root, "users.dat"),
            os.path.join(root, "movies.dat"),
        )
        assert int(lines["users"]) == parsed.interactions.num_users == 6040


class TestRunConfigFile:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("modle=gmf\n")
        with pytest.raises(cli.CliError, match="unknown key"):
            cli.load_run_config(str(cfg))

    def test_booleans_and_comments(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# experiment defaults\ninclude_attr_cross=true\nlayers=16,8\n")
        config = cli.load_run_config(str(cfg))
        assert config.include_attr_cross is True
        assert config.layers == (16, 8)

    def test_non_utf8_file_exits_1_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"epochs=1\n# caf\xe9 au lait\n")
        code, _, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path), "--seed", "1"],
                               capsys)
        assert code == 1
        assert f"crossrec: error: {cfg}:2: 'utf-8' codec can't decode" in err

    def test_flag_style_keys_accepted(self, tmp_path):
        cfg = tmp_path / "dash.cfg"
        cfg.write_text("neg-ratio=3\nbatch-size=64\n")
        config = cli.load_run_config(str(cfg))
        assert config.neg_ratio == 3 and config.batch_size == 64


# a value for every option key and a second one, so a flag can be told from the file
SAMPLES = {
    "seed": ("7", "9"), "out": ("runs/a", "runs/b"), "dataset_kind": ("movielens", "generic"),
    "ratings": ("r1.dat", "r2.dat"), "users": ("u1.dat", "u2.dat"), "items": ("m1.dat", "m2.dat"),
    "interactions": ("i1.tsv", "i2.tsv"), "user_attrs": ("ua1.tsv", "ua2.tsv"),
    "item_attrs": ("ia1.tsv", "ia2.tsv"), "category_map": ("c1.tsv", "c2.tsv"),
    "model": ("camf", "neumf"), "factors": ("16", "4"), "layers": ("16,8", "64,32,16"),
    "lr": ("0.01", "2.5e-4"), "epochs": ("3", "0"), "batch_size": ("64", "1024"),
    "neg_ratio": ("2", "7"), "include_attr_cross": ("false", "true"),
    "checkpoint_every": ("2", "5"), "ranks_out": ("ranks1.tsv", "ranks2.tsv"),
}

# (command, key, bad text, message): each must exit 1 from a flag and from a config line
BAD_VALUES = [
    ("prepare", "seed", "-1", "--seed must be non-negative"),
    ("prepare", "seed", "abc", "bad --seed value 'abc'"),
    ("gradcheck", "seed", "1_0", "bad --seed value '1_0'"),
    ("train", "model", "svd", "unknown model kind 'svd'"),
    ("sweep", "model", "gmf,svd", "unknown model kind 'svd'"),
    ("train", "factors", "0", "--factors must be positive"),
    ("sweep", "factors", "4,x", "bad --factors value 'x'"),
    ("train", "layers", "8,,4", "bad --layers value ''"),
    ("train", "layers", "8,0", "--layers must be positive"),
    ("train", "lr", "nan", "--lr must be positive"),
    ("train", "lr", "inf", "--lr must be positive"),
    ("train", "lr", "-0.1", "--lr must be positive"),
    ("train", "lr", "fast", "bad --lr value 'fast'"),
    ("train", "lr", "0.00_1", "bad --lr value '0.00_1'"),
    ("train", "lr", "\u0661e-3", "bad --lr value '\u0661e-3'"),
    ("train", "epochs", "-1", "--epochs must be non-negative"),
    ("train", "batch_size", "0", "--batch-size must be positive"),
    ("train", "neg_ratio", "-2", "--neg-ratio must be positive"),
    ("train", "checkpoint_every", "-1", "--checkpoint-every must be non-negative"),
    # past int()'s own 4,300-digit limit, whose message names no flag or line
    ("train", "epochs", "9" * 5000, f"bad --epochs value '{'9' * 5000}'"),
]

# the flags each subcommand takes
SUBCOMMAND_FLAGS = {
    "prepare": {"--config", "--seed", "--out", "--dataset-kind", "--ratings", "--users",
                "--items", "--interactions", "--user-attrs", "--item-attrs", "--category-map"},
    "evaluate": {"--config", "--seed", "--out", "--model", "--factors", "--ranks-out"},
    "gradcheck": {"--config", "--seed", "--model"},
}
_TRAINING_FLAGS = {"--config", "--seed", "--out", "--model", "--factors", "--layers", "--lr",
                   "--epochs", "--batch-size", "--neg-ratio", "--include-attr-cross"}
SUBCOMMAND_FLAGS["train"] = _TRAINING_FLAGS | {"--checkpoint-every"}
SUBCOMMAND_FLAGS["sweep"] = _TRAINING_FLAGS


def _required(command, but=None):
    """Flags for the options `command` requires, apart from `but`."""
    return [text for opt in cli.OPTIONS if command in opt.requires and opt.key != but
            for text in (opt.flag, SAMPLES[opt.key][0])]


def _flag_args(opt, text):
    if opt.parse is cli._bool:
        return [opt.flag] if text == "true" else []
    return [opt.flag, text]


def _table_cases(taken=True):
    return [pytest.param(opt, command, id=f"{command}-{opt.key}")
            for opt in cli.OPTIONS for command in cli.COMMANDS if (command in opt.takes) == taken]


class TestOptionTable:
    def test_every_key_has_samples(self):
        assert set(SAMPLES) == {opt.key for opt in cli.OPTIONS}

    @pytest.mark.parametrize("opt, command", _table_cases())
    def test_flag_and_config_line_agree(self, opt, command, tmp_path):
        text = "true" if opt.parse is cli._bool else SAMPLES[opt.key][0]
        base = [command, *_required(command, but=opt.key)]
        _, from_flag = cli.parse_command_line(base + _flag_args(opt, text))
        value = getattr(from_flag, opt.key)
        assert value not in (opt.default, (opt.default,))
        for key in (opt.key, opt.key.replace("_", "-")):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"# shared experiment file\n{key}={text}\n")
            _, from_file = cli.parse_command_line(base + ["--config", str(cfg)])
            assert getattr(from_file, opt.key) == value, key

    @pytest.mark.parametrize("opt, command", _table_cases())
    def test_flag_beats_file(self, opt, command, tmp_path):
        file_text, flag_text = SAMPLES[opt.key]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{opt.key}={file_text}\n")
        base = [command, *_required(command, but=opt.key), "--config", str(cfg)]
        _, config = cli.parse_command_line(base + _flag_args(opt, flag_text))
        _, flag_only = cli.parse_command_line(
            [command, *_required(command, but=opt.key), *_flag_args(opt, flag_text)])
        _, file_only = cli.parse_command_line(base)
        assert getattr(config, opt.key) == getattr(flag_only, opt.key)
        assert getattr(config, opt.key) != getattr(file_only, opt.key)

    @pytest.mark.parametrize("opt, command", _table_cases(taken=False))
    def test_option_not_taken(self, opt, command, tmp_path, capsys):
        """Its flag exits 1; its config line is parsed, so one file serves every command, then reset."""
        text = "true" if opt.parse is cli._bool else SAMPLES[opt.key][0]
        base = [command, *_required(command)]
        code, _, err = run_cli(base + _flag_args(opt, text), capsys)
        assert code == 1 and f"unrecognized arguments: {opt.flag}" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{opt.key}={text}\n")
        _, config = cli.parse_command_line(base + ["--config", str(cfg)])
        assert getattr(config, opt.key) == opt.default

    @pytest.mark.parametrize("command, flag", [
        ("evaluate", "--layers=3"), ("evaluate", "--lr=99"), ("evaluate", "--epochs=7"),
        ("evaluate", "--batch-size=1"), ("evaluate", "--neg-ratio=9"), ("evaluate", "--include-attr-cross"),
        ("gradcheck", "--out=/nonexistent/x"),
    ])
    def test_flag_the_command_never_read_exits_1(self, command, flag, capsys):
        """Listed literally: a table edit that gives one back fails here, not only in the cases above."""
        code, _, err = run_cli([command, *_required(command), flag], capsys)
        assert code == 1 and f"unrecognized arguments: {flag}" in err

    def test_bad_value_of_key_not_taken_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("checkpoint-every=-1\n")
        code, _, err = run_cli(["sweep", *_required("sweep"), "--config", str(cfg)], capsys)
        assert code == 1 and f"{cfg}:1: --checkpoint-every must be non-negative" in err

    @pytest.mark.parametrize("command, key, text, message", BAD_VALUES,
                             ids=[f"{c}-{k}-{t[:12]}" for c, k, t, _ in BAD_VALUES])
    def test_bad_value_exits_1(self, command, key, text, message, tmp_path, capsys):
        opt = cli._BY_KEY[key]
        base = [command, *_required(command, but=key)]
        code, _, err = run_cli(base + [f"{opt.flag}={text}"], capsys)
        assert code == 1 and message in err and "Traceback" not in err
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# experiment\n{key}={text}\n", encoding="utf-8")
        code, _, err = run_cli(base + ["--config", str(cfg)], capsys)
        assert code == 1 and f"{cfg}:2: {message}" in err

    @pytest.mark.parametrize("text", [" 0.001", "0.001 ", "0.001\t", "\u00a00.001"])
    def test_lr_flag_with_whitespace_exits_1(self, text, capsys):
        # a config line's value is stripped, as for every key, so only the flag can carry it
        code, _, err = run_cli(["train", *_required("train"), f"--lr={text}"], capsys)
        assert code == 1 and f"bad --lr value {text!r}" in err

    def test_bad_boolean_in_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("include-attr-cross=maybe\n")
        with pytest.raises(cli.CliError, match=r"bad\.cfg:1: bad --include-attr-cross value"):
            cli.load_run_config(str(cfg))

    @pytest.mark.parametrize("argv", [
        ["train", "--factors", "4,8"], ["evaluate", "--model", "gmf,camf"],
        ["gradcheck", "--model", "gmf,mlp"],
    ], ids=["train-factors", "evaluate-model", "gradcheck-model"])
    def test_lists_only_for_sweep(self, argv, capsys):
        code, _, err = run_cli(argv + _required(argv[0]), capsys)
        assert code == 1
        assert f"{argv[1]} takes one value" in err

    def test_sweep_grid_from_file_and_default(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("model=gmf,camf\nfactors=4,8\n")
        _, config = cli.parse_command_line(["sweep", *_required("sweep"), "--config", str(cfg)])
        assert (config.model, config.factors) == (("gmf", "camf"), (4, 8))
        _, config = cli.parse_command_line(["sweep", *_required("sweep")])
        assert (config.model, config.factors) == (("gmf",), models.SWEEP_FACTORS)
        _, config = cli.parse_command_line(["train", *_required("train")])
        assert (config.model, config.factors) == ("gmf", 8)

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
    def test_required_options(self, command, capsys):
        for opt in cli.OPTIONS:
            if command in opt.requires:
                code, _, err = run_cli([command, *_required(command, but=opt.key)], capsys)
                assert code == 1 and f"{opt.flag} is required" in err

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
    def test_help_lists_the_same_flags(self, command, capsys):
        code, stdout, _ = run_cli([command, "--help"], capsys)
        assert code == 0
        assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", stdout)) - {"--help"} == \
            SUBCOMMAND_FLAGS[command]


class ReadRecorder(argparse.Namespace):
    """A command's config that records which options the command reads."""

    def __init__(self, config):
        super().__init__(**vars(config))
        self.__dict__["reads"] = set()

    def __getattribute__(self, name):
        if name in cli._BY_KEY:
            object.__getattribute__(self, "reads").add(name)
        return object.__getattribute__(self, name)


class TestOptionsRead:
    """Each command reads every option it takes and no other. sweep reads
    its options through train_and_save, which train covers."""

    @pytest.mark.parametrize("command", ["prepare", "train", "evaluate", "gradcheck"])
    def test_command_reads_the_options_it_takes(self, command, generic_dataset, tmp_path, capsys):
        out = str(tmp_path / "run")
        argv = {
            "prepare": prepare_args(generic_dataset, out),
            "train": train_args(out, epochs=1, extra=("--checkpoint-every", "1")),
            "evaluate": ["evaluate", "--model", "gmf", "--factors", "4", "--seed", "11", "--out", out,
                         "--ranks-out", str(tmp_path / "ranks.tsv")],
            "gradcheck": ["gradcheck", "--model", "gmf", "--seed", "11"],
        }
        setup = {"prepare": [], "gradcheck": [], "train": ["prepare"], "evaluate": ["prepare", "train"]}
        for step in setup[command]:
            assert run_cli(argv[step], capsys)[0] == 0
        _, config = cli.parse_command_line(argv[command])
        recorder = ReadRecorder(config)
        assert getattr(cli, f"cmd_{command}")(recorder, log=lambda _msg: None) == 0
        taken = {opt.key for opt in cli.OPTIONS if command in opt.takes}
        if command == "evaluate":
            taken.remove("seed")   # taken only so that perfbench/run.py's evaluate calls still parse
        assert recorder.reads == taken


class TestEntryPoint:
    def test_installed_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "crossrec.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for sub in ("prepare", "train", "evaluate", "gradcheck", "sweep"):
            assert sub in proc.stdout

    def test_usage_error_exits_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "crossrec.cli", "frobnicate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1


# -- damaged prepared runs -----------------------------------------------------


def _user0_train_items(train):
    _, columns = train
    return columns[1][columns[0] == 0]


def _own_every_item(records, train):
    # user 0 observes the whole catalog in train, their positive included:
    # no unobserved item is left for the sampler to draw
    counts, columns = records
    missing = np.setdiff1d(np.arange(counts[1]), _user0_train_items(train))
    extra = np.stack([np.zeros_like(missing), missing, np.zeros_like(missing)])
    return [counts, np.concatenate([columns, extra], axis=1)]


def _negative_observed(records, train):
    counts, positives, negatives = records
    negatives[0] = np.sort(np.append(negatives[0][1:], _user0_train_items(train)[0]))
    return [counts, positives, negatives]


def _drop_last_user(records, _train):
    vocab, offsets, flat, *items = records
    return [vocab, offsets[:-1], flat[:offsets[-2]], *items]


def _set(index, position, value):
    """A mutation that sets records[index][position] = value(records, train)."""
    def mutate(records, train):
        records[index][position] = value(records, train)
        return records
    return mutate


# name -> (file, mutation(records, train records) -> records, expected message)
VIOLATIONS = {
    "more-users-than-interactions": (
        corpus.TRAIN_FILE, _set(0, 0, lambda r, _t: r[1].shape[1] + 1), "do not fit"),
    "every-item-observed": (corpus.TRAIN_FILE, _own_every_item, "already an observed item"),
    "split-counts": (corpus.SPLIT_FILE, _set(0, 1, lambda r, _t: r[0][1] + 1), "split counts"),
    "positive-out-of-range": (
        corpus.SPLIT_FILE, _set(1, 0, lambda r, _t: r[0][1]), "lies outside"),
    "negative-out-of-range": (
        corpus.SPLIT_FILE, _set(2, (0, -1), lambda r, _t: r[0][1]), "lies outside"),
    "negatives-unsorted": (
        corpus.SPLIT_FILE, _set(2, (0, 0), lambda r, _t: r[2][0, 1]), "strictly increasing"),
    "positive-in-train": (corpus.SPLIT_FILE, _set(1, 0, lambda _r, t: _user0_train_items(t)[0]),
                          "already an observed item"),
    "negative-observed": (corpus.SPLIT_FILE, _negative_observed, "already an observed item"),
    "catalog-user-short": (corpus.ATTRS_FILE, _drop_last_user, "catalog rows do not match"),
    "offsets-not-from-zero": (corpus.ATTRS_FILE, _set(1, 0, lambda r, _t: 1), "offsets"),
    "offsets-decreasing": (corpus.ATTRS_FILE, _set(1, 1, lambda r, _t: r[1][2] + 1), "offsets"),
    "offsets-short-of-ids": (corpus.ATTRS_FILE, _set(1, -1, lambda r, _t: r[1][-1] - 1), "offsets"),
    "vocabulary-unused-ids": (
        corpus.ATTRS_FILE, _set(0, 0, lambda r, _t: r[0][0] + 1000), "largest attribute id"),
}


def _old_tsv(records):
    return b"num_users\t30\nnum_items\t140\n0\t5\t1000\n"


def _huge_header(records):
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<i8", "fortran_order": False, "shape": (10**10,)})
    return buf.getvalue() + bytes(64)


NAMED_DAMAGE = {
    "empty": lambda records: b"",
    "old-tsv": _old_tsv,
    "huge-header": _huge_header,
    "float64-record": lambda records: npy_bytes([records[0].astype(np.float64), *records[1:]]),
    "wrong-ndim": lambda records: npy_bytes([records[0][None, :], *records[1:]]),
}


@pytest.fixture(scope="module")
def pristine_run(tmp_path_factory):
    """A prepared run that tests copy before damaging it."""
    base = tmp_path_factory.mktemp("pristine")
    parsed = corpus.parse_generic(*write_generic_dataset(str(base)))
    out = str(base / "run")
    corpus.save_prepared(out, corpus.leave_one_out_split(parsed.interactions, 11), parsed.catalog)
    return out


def _damaged_copy(pristine, directory, name, blob):
    for other in PREPARED_FILES:
        shutil.copy(os.path.join(pristine, other), directory)
    with open(os.path.join(directory, name), "wb") as fh:
        fh.write(blob)


class TestDamagedPreparedRun:
    @pytest.mark.parametrize("violation", sorted(VIOLATIONS))
    def test_broken_invariant_exits_1(self, pristine_run, tmp_path, capsys, violation):
        name, mutate, message = VIOLATIONS[violation]
        train = read_records(os.path.join(pristine_run, corpus.TRAIN_FILE))
        records = mutate(read_records(os.path.join(pristine_run, name)), train)
        _damaged_copy(pristine_run, str(tmp_path), name, npy_bytes(records))
        code, _, err = run_cli(train_args(str(tmp_path), model="camf", epochs=1), capsys)
        assert code == 1
        assert "crossrec: error:" in err and message in err

    @pytest.mark.parametrize("damage", sorted(NAMED_DAMAGE))
    @pytest.mark.parametrize("name", PREPARED_FILES)
    def test_unreadable_record_exits_1_naming_file(self, pristine_run, tmp_path, capsys,
                                                    damage, name):
        records = read_records(os.path.join(pristine_run, name))
        _damaged_copy(pristine_run, str(tmp_path), name, NAMED_DAMAGE[damage](records))
        code, _, err = run_cli(train_args(str(tmp_path), model="camf", epochs=1), capsys)
        assert code == 1
        assert "crossrec: error:" in err and name in err

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.sampled_from(PREPARED_FILES), data=st.data())
    def test_truncated_or_flipped_file_never_escapes(self, pristine_run, capsys, name, data):
        with open(os.path.join(pristine_run, name), "rb") as fh:
            blob = fh.read()
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[:at]
        else:
            flip = data.draw(st.integers(1, 255), label="xor")
            blob = blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1:]
        with tempfile.TemporaryDirectory() as out, time_bound():
            _damaged_copy(pristine_run, out, name, blob)
            for argv in (train_args(out, model="camf", epochs=1),
                         ["evaluate", "--model", "camf", "--factors", "4", "--out", out]):
                code, _, err = run_cli(argv, capsys)
                assert code in (0, 1, 2)
                assert code == 0 or err.startswith("crossrec: ")


@pytest.fixture(scope="module")
def trained_camf(pristine_run, tmp_path_factory):
    """A prepared run with a 1-epoch camf checkpoint; returns (run dir, checkpoint bytes)."""
    out = str(tmp_path_factory.mktemp("camf"))
    for name in PREPARED_FILES:
        shutil.copy(os.path.join(pristine_run, name), out)
    with pytest.raises(SystemExit) as exc:
        cli.main(train_args(out, model="camf", epochs=1))
    assert exc.value.code == 0
    with open(cli.ckpt_path(out, "camf", 4), "rb") as fh:
        return out, fh.read()


class TestDamagedCheckpoint:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(in_payload=st.booleans(), truncate=st.booleans(), data=st.data())
    def test_truncated_or_flipped_checkpoint_never_escapes(self, trained_camf, capsys,
                                                           in_payload, truncate, data):
        out, blob = trained_camf
        start = _payload_start(blob)
        at = data.draw(st.integers(start, len(blob) - 1) if in_payload
                       else st.integers(0, start - 1), label="offset")
        if truncate:
            damaged = blob[:at]
        else:
            flip = data.draw(st.integers(1, 255), label="xor")
            damaged = blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1:]
        path = cli.ckpt_path(out, "camf", 4)
        try:
            with open(path, "wb") as fh:
                fh.write(damaged)
            with time_bound():
                code, _, err = run_cli(
                    ["evaluate", "--model", "camf", "--factors", "4", "--out", out], capsys)
        finally:
            with open(path, "wb") as fh:
                fh.write(blob)
        assert code == 1 and "crossrec: error:" in err
