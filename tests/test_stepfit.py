"""tools/stepfit.py in process: the working tree's crossrec against a renamed copy of itself."""

import importlib.util
import os
import shutil
import sys

import numpy as np
import pytest

from conftest import write_generic_dataset
from crossrec import corpus

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
TOOL = os.path.join(ROOT, "tools", "stepfit.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("stepfit", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def twin(tmp_path):
    """The working tree's src/crossrec, copied and imported as crossrec_twin."""
    shutil.copytree(os.path.join(ROOT, "src", "crossrec"), tmp_path / "pkg" / "crossrec_twin",
                    ignore=shutil.ignore_patterns("__pycache__"))
    yield load_tool().import_package(str(tmp_path / "pkg"), "crossrec_twin")
    for name in [name for name in sys.modules if name.split(".")[0] == "crossrec_twin"]:
        del sys.modules[name]


@pytest.fixture
def raw(tmp_path):
    """The prepare options naming a small generic corpus's raw files."""
    (tmp_path / "raw").mkdir()
    inter, uattr, iattr = write_generic_dataset(str(tmp_path / "raw"))
    return ["--dataset-kind", "generic", "--interactions", inter, "--user-attrs", uattr, "--item-attrs", iattr]


def run_report(twin, raw, tmp_path):
    """report's (exit code, results) with each side on the run that its own package prepared."""
    import crossrec.cli

    tool, packages = load_tool(), {"ref": twin, "work": crossrec}
    prepared = {label: tool.prepare_with(package, raw, str(tmp_path / label)) for label, package in packages.items()}
    return tool.report(packages, prepared, ("gmf", "camf"), (4, 8, 16), steps=3)


def test_same_code_twice_gives_equal_stores_and_exit_zero(twin, raw, tmp_path, capsys):
    assert twin.tensorcore is not sys.modules["crossrec.tensorcore"]
    code, results = run_report(twin, raw, tmp_path)
    out = capsys.readouterr().out
    assert code == 0, out
    assert [(row["kind"], row["batch"], row["equal"]) for row in results["rows"]] == [
        (kind, batch, True) for kind in ("gmf", "camf") for batch in (4, 8, 16)]
    assert [(fit["kind"], fit["side"]) for fit in results["fits"]] == [
        ("gmf", "ref"), ("gmf", "work"), ("camf", "ref"), ("camf", "work")]
    assert "DIFFER" not in out and out.count(" equal") == 6


def test_a_perturbed_twin_exits_one(twin, raw, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(twin.tensorcore, "ADAM_EPS", 2e-8)  # one constant of the update, not its time
    code, results = run_report(twin, raw, tmp_path)
    out = capsys.readouterr().out
    assert code == 1
    assert not any(row["equal"] for row in results["rows"])
    assert "stepfit: the two sides' stores DIFFER" in out.splitlines()[-1]


def test_a_twin_with_other_prepared_files_reads_its_own_run(twin, raw, tmp_path, capsys, monkeypatch):
    # the twin keeps train.npy as a (3, n) users / items / zeros record, which the working tree refuses
    # to load: each side must read the run that its own package prepared
    def save(iset, path):
        users = np.repeat(np.arange(iset.num_users), iset.per_user_items.lengths)
        flat = iset.per_user_items.flat
        twin.corpus._write_records(path, [[iset.num_users, iset.num_items], [users, flat, np.zeros_like(flat)]])

    def load(path):
        counts, (users, items, _) = twin.corpus._read_records(path, [(2,), (3, None)])
        offsets = np.concatenate([[0], np.bincount(users, minlength=counts[0]).cumsum()])
        return twin.corpus.InteractionSet(*counts.tolist(), twin.tensorcore.Ragged(offsets, items))

    monkeypatch.setattr(twin.corpus, "save_interactions", save)
    monkeypatch.setattr(twin.corpus, "load_interactions", load)
    code, results = run_report(twin, raw, tmp_path)
    out = capsys.readouterr().out
    assert code == 0, out
    assert all(row["equal"] for row in results["rows"]) and "DIFFER" not in out
    train = [(tmp_path / side / "train.npy").read_bytes() for side in ("ref", "work")]
    assert train[0] != train[1]
    assert (tmp_path / "ref" / "split.npy").read_bytes() == (tmp_path / "work" / "split.npy").read_bytes()
    with pytest.raises(corpus.LoadError, match="expected C-order int64"):
        corpus.load_prepared(str(tmp_path / "ref"))


def test_fit_recovers_a_line():
    fixed, slope = load_tool().fit((64, 256, 1024), [200.0 + 0.5 * b for b in (64, 256, 1024)])
    assert fixed == pytest.approx(200.0) and slope == pytest.approx(0.5)
