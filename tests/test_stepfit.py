"""tools/stepfit.py in process: the working tree's crossrec against a renamed copy of itself."""

import importlib.util
import os
import shutil
import sys

import pytest

from conftest import write_generic_dataset
from crossrec import cli

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
def prepared(tmp_path, capsys):
    (tmp_path / "raw").mkdir()
    inter, uattr, iattr = write_generic_dataset(str(tmp_path / "raw"))
    out = str(tmp_path / "prepared")
    with pytest.raises(SystemExit) as done:
        cli.main(["prepare", "--dataset-kind", "generic", "--interactions", inter, "--user-attrs", uattr,
                  "--item-attrs", iattr, "--seed", "3", "--out", out])
    assert done.value.code == 0
    capsys.readouterr()
    return out


def run_report(twin, prepared):
    import crossrec

    return load_tool().report({"ref": twin, "work": crossrec}, prepared, ("gmf", "camf"), (4, 8, 16), steps=3)


def test_same_code_twice_gives_equal_stores_and_exit_zero(twin, prepared, capsys):
    assert twin.tensorcore is not sys.modules["crossrec.tensorcore"]
    code, results = run_report(twin, prepared)
    out = capsys.readouterr().out
    assert code == 0, out
    assert [(row["kind"], row["batch"], row["equal"]) for row in results["rows"]] == [
        (kind, batch, True) for kind in ("gmf", "camf") for batch in (4, 8, 16)]
    assert [(fit["kind"], fit["side"]) for fit in results["fits"]] == [
        ("gmf", "ref"), ("gmf", "work"), ("camf", "ref"), ("camf", "work")]
    assert "DIFFER" not in out and out.count(" equal") == 6


def test_a_perturbed_twin_exits_one(twin, prepared, capsys, monkeypatch):
    monkeypatch.setattr(twin.tensorcore, "ADAM_EPS", 2e-8)  # one constant of the update, not its time
    code, results = run_report(twin, prepared)
    out = capsys.readouterr().out
    assert code == 1
    assert not any(row["equal"] for row in results["rows"])
    assert "stepfit: the two sides' stores DIFFER" in out.splitlines()[-1]


def test_fit_recovers_a_line():
    fixed, slope = load_tool().fit((64, 256, 1024), [200.0 + 0.5 * b for b in (64, 256, 1024)])
    assert fixed == pytest.approx(200.0) and slope == pytest.approx(0.5)
