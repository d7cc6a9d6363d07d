"""The compare and src/ line-count steps of tools/identity.py on small hand-made trees."""

import importlib.util
import os
import subprocess
import sys

import numpy as np

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools", "identity.py")


def make_tree(root, wall="0.5", epoch_seconds="1.2"):
    files = {
        "prepare/run/split.npy": bytes(range(256)) * 4,
        "train/gmf/metrics_gmf_f8.csv":
            f"epoch,model,factors,seed,train_loss,hr10,ndcg10,wall_seconds\n1,gmf,8,42,0.5,0.25,0.125,{wall}\n",
        "logs/train-gmf.log": f"epoch 1/1 loss=0.5000 hr10=0.2500 ndcg10=0.1250 ({epoch_seconds}s)\nexit 0\n",
    }
    for rel, data in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)


def compare(a, b):
    return subprocess.run([sys.executable, TOOL, "--compare", str(a), str(b)],
                          capture_output=True, text=True, timeout=60)


def test_equal_trees_exit_zero_wall_clock_aside(tmp_path):
    make_tree(tmp_path / "a")
    make_tree(tmp_path / "b", wall="7.25", epoch_seconds="13.0")
    done = compare(tmp_path / "a", tmp_path / "b")
    assert done.returncode == 0, done.stdout
    assert "3 of 3 artifacts equal" in done.stdout


def test_one_flipped_byte_exits_one(tmp_path):
    make_tree(tmp_path / "a")
    make_tree(tmp_path / "b")
    path = tmp_path / "b" / "prepare" / "run" / "split.npy"
    data = bytearray(path.read_bytes())
    data[517] ^= 0x01
    path.write_bytes(bytes(data))
    done = compare(tmp_path / "a", tmp_path / "b")
    assert done.returncode == 1
    assert [line.split()[0] for line in done.stdout.splitlines() if line.endswith(" NO")] == \
        [os.path.join("prepare", "run", "split.npy")]


def test_file_on_one_side_only_exits_one(tmp_path):
    make_tree(tmp_path / "a")
    make_tree(tmp_path / "b")
    os.remove(tmp_path / "b" / "logs" / "train-gmf.log")
    assert compare(tmp_path / "a", tmp_path / "b").returncode == 1


def load_tool():
    spec = importlib.util.spec_from_file_location("identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_src(root, files):
    for rel, text in files.items():
        path = os.path.join(root, "src", rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def test_src_line_counts_of_two_trees(tmp_path, capsys):
    write_src(tmp_path / "ref", {"crossrec/__init__.py": '"""doc"""\n',
                                 "crossrec/cli.py": "a = 1\n\nb = 2\nc = 3\n",
                                 "crossrec/old.py": "x = 1\ny = 2\n"})
    write_src(tmp_path / "work", {"crossrec/__init__.py": '"""doc"""\n',
                                  "crossrec/cli.py": "a = 1\nb = 2\n",
                                  "crossrec/new.py": "z = 3\n",
                                  "crossrec/__pycache__/cli.cpython-311.pyc": "x\n" * 50,
                                  "crossrec.egg-info/SOURCES.txt": "src/crossrec/cli.py\n"})
    tool = load_tool()
    assert tool.src_lines(tmp_path / "ref") == {
        os.path.join("crossrec", "__init__.py"): 1, os.path.join("crossrec", "cli.py"): 4,
        os.path.join("crossrec", "old.py"): 2}
    assert sum(tool.src_lines(tmp_path / "work").values()) == 4
    tool.report_src_lines(tmp_path / "ref", tmp_path / "work", "HEAD~1")
    assert capsys.readouterr().out.splitlines() == [
        "src/ lines: 7 in HEAD~1, 4 in the working tree (-3)",
        "  crossrec/__init__.py      1      1  +0",
        "  crossrec/cli.py           4      2  -2",
        "  crossrec/new.py           0      1  +1",
        "  crossrec/old.py           2      0  -2",
    ]


def test_crlf_copies_must_prepare_like_their_plain_copies(tmp_path, capsys):
    tool = load_tool()
    for name in tool.VARIANTS.keys() | tool.VARIANTS.values():
        for seed in tool.SEEDS:
            for rel in ("train.npy", "split.npy", "attributes.npy"):
                path = tmp_path / "prepare" / f"{name}-{seed}" / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(f"{name.partition('-crlf')[0]} {seed} {rel}".encode())
    assert tool.compare_variants(tmp_path, "work") == 0
    variant = next(iter(tool.VARIANTS))
    (tmp_path / "prepare" / f"{variant}-{tool.SEEDS[1]}" / "split.npy").write_bytes(b"other")
    assert tool.compare_variants(tmp_path, "work") == 1
    assert [line for line in capsys.readouterr().out.splitlines() if "DIFFERS" in line] == \
        [f"work: prepare/{variant}-{tool.SEEDS[1]} DIFFERS from prepare/{tool.VARIANTS[variant]}-{tool.SEEDS[1]}"]


def test_decoded_checkpoints_of_equal_content_are_equal(tmp_path):
    from crossrec import tensorcore as tc

    tool = load_tool()
    store = tc.ParameterStore([("user_emb", np.arange(12).reshape(3, 4)), ("out_b", [[0.5]])])
    store.moments("user_emb")[1][...] = 0.25
    store.step = 7
    paths = [str(tmp_path / f"{k}.ckpt") for k in range(3)]
    tc.save_checkpoint(paths[0], store, {"model": "gmf", "seed": "42"})
    tc.save_checkpoint(paths[1], store, {"model": "gmf", "prepared": "0123abcd"})
    store.moments("out_b")[0][0, 0] = -0.0   # one sign bit in one moment
    tc.save_checkpoint(paths[2], store, {"model": "gmf", "seed": "42"})
    raw = [tool.digest(path) for path in paths]
    decoded = [tool.decoded_checkpoint(path) for path in paths]
    assert len(set(raw)) == 3
    assert decoded[0] == decoded[1] != decoded[2]
    assert decoded[0].splitlines()[0] == "step 7"
    assert [line.split()[:3] for line in decoded[0].splitlines()[1:]] == \
        [["user_emb", "3", "4"], ["out_b", "1", "1"]]


def flip_byte(path, at=517):
    data = bytearray(path.read_bytes())
    data[at] ^= 0x01
    path.write_bytes(bytes(data))


def compare_expecting(a, b, expected, capsys):
    """(exit code, printed table) of the tool's compare of two trees under `expected` patterns."""
    code = load_tool().compare(str(a), str(b), expected=expected)
    return code, capsys.readouterr().out


def differing(table):
    """{artifact: status} of the table rows that are not equal."""
    rows = (line.split() for line in table.splitlines())
    return {row[0]: row[-1] for row in rows if len(row) == 4 and row[-1] in ("NO", "expected")}


def test_listed_flip_exits_zero(tmp_path, capsys):
    make_tree(tmp_path / "a")
    make_tree(tmp_path / "b")
    flip_byte(tmp_path / "b" / "prepare" / "run" / "split.npy")
    code, table = compare_expecting(tmp_path / "a", tmp_path / "b", ["prepare/*/split.npy"], capsys)
    assert code == 0, table
    assert differing(table) == {os.path.join("prepare", "run", "split.npy"): "expected"}
    assert "2 of 3 artifacts equal, 1 differing as expected" in table


def test_unlisted_flip_exits_one(tmp_path, capsys):
    make_tree(tmp_path / "a")
    make_tree(tmp_path / "b")
    flip_byte(tmp_path / "b" / "prepare" / "run" / "split.npy")
    flip_byte(tmp_path / "b" / "logs" / "train-gmf.log", at=3)
    code, table = compare_expecting(tmp_path / "a", tmp_path / "b", ["prepare/*"], capsys)
    assert code == 1
    assert differing(table) == {os.path.join("prepare", "run", "split.npy"): "expected",
                                os.path.join("logs", "train-gmf.log"): "NO"}


def test_stale_pattern_exits_one(tmp_path, capsys):
    make_tree(tmp_path / "a")
    make_tree(tmp_path / "b", wall="7.25")
    code, table = compare_expecting(tmp_path / "a", tmp_path / "b", ["train/*/*.ckpt"], capsys)
    assert code == 1
    assert differing(table) == {}
    assert "identity: expected difference 'train/*/*.ckpt' matches no differing artifact" in table


def test_expected_file_lists_one_pattern_a_line(tmp_path):
    path = tmp_path / "expected.txt"
    path.write_text("# checkpoints change format\ntrain/*.ckpt\n\n  decoded/*  \n", encoding="utf-8")
    assert load_tool().read_expected(str(path)) == ["train/*.ckpt", "decoded/*"]
    path.write_text("", encoding="utf-8")
    assert load_tool().read_expected(str(path)) == []
