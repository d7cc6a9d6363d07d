"""Byte identity of crossrec's outputs between a git revision and the working tree.

    python tools/identity.py REF             # REF: a commit, branch or tag
    python tools/identity.py --compare A B   # digest two output trees, compare

REF's src/ is exported with `git archive` into a temporary directory (no
network, and nothing registered in the repository). One fixed script,
`produce` below, then runs twice on the same generated inputs: once with
REF's crossrec and once with the working tree's, each in its own process
pinned to one BLAS thread. It covers:

- `prepare` on the tier-1 test fixtures, on `write_movielens(dir, 600, 1)`
  and on `write_generic(dir, 8000, 2000, 1)` (perfbench/corpus_gen.py),
  the last both without and with its `--category-map`, for seeds 42 and
  2**40+9; and on a copy of the first two of those corpora whose ratings
  or interactions file has CRLF line ends and a leading `#` line, so it
  is read line by line rather than whole;
- `train` for 2 epochs with `--checkpoint-every 1` for gmf, mlp, neumf,
  aadcf, camf and camf `--include-attr-cross` on the 600-user corpus, all
  at the default 32-16-8 tower, and for mlp `--layers 16` and neumf
  `--layers 12,6`, so the parameter layout is held at other depths too;
- `evaluate --ranks-out` of each of those checkpoints, given only
  `--model`, `--factors`, `--out` and `--ranks-out`, and `evaluate` of
  the camf one without `--ranks-out`, as perfbench's fixture check runs it;
- `train` and then `evaluate` of camf with every option from one
  `--config` file (CONFIG_FILE below): each key `train` takes, at values
  other than the defaults, plus `ranks-out` and `dataset-kind`, which
  `train` does not take;
- a 2x2 `sweep` and `gradcheck` for all five kinds;
- every checkpoint and `.epochN` snapshot written above, also decoded by
  that side's own `load_checkpoint` into decoded/<path>.txt: its Adam
  step and, per parameter in arena order, its name, its shape and the
  sha256 of its value, m and v bytes. A change of checkpoint format then
  shows the raw checkpoints differing and their content equal.

Every file written, and each command's output and exit code, is hashed
with sha256; metrics CSVs lose their wall-clock column and training logs
their per-epoch seconds first. One table of digests is printed, and the
exit code is 1 if any artifact differs or exists on one side only, or if,
on either side, a CRLF copy's prepared files differ from its plain copy's.
Then the lines of src/'s .py files are counted in REF and in the working
tree, so a change's src/ delta comes from the run that shows its byte
identity. Float bits depend on the CPU and the BLAS build, so the digests
are only meaningful between two trees on one machine and are never kept
as goldens. Each side takes about a minute on a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (42, 2**40 + 9)
TRAIN_CORPUS = "movielens600"
TRAIN_RUNS = {  # directory -> (model, extra train flags)
    "gmf": ("gmf", []),
    "mlp": ("mlp", []),
    "neumf": ("neumf", []),
    "aadcf": ("aadcf", []),
    "camf": ("camf", []),
    "camf-cross": ("camf", ["--include-attr-cross"]),
    "mlp-16": ("mlp", ["--layers", "16"]),
    "neumf-12-6": ("neumf", ["--layers", "12,6"]),
}
CONFIG_RUN = "camf-config"
CONFIG_FILE = f"""# every key train takes
seed=42
out=train/{CONFIG_RUN}
model=camf
factors=8
layers=16,8
lr=0.002
epochs=2
batch-size=128
neg-ratio=2
include-attr-cross=true
checkpoint-every=1
# and two it does not: evaluate takes ranks-out, only prepare dataset-kind
ranks-out=train/{CONFIG_RUN}/ranks.tsv
dataset-kind=movielens
"""
KINDS = ("gmf", "mlp", "neumf", "aadcf", "camf")
VARIANTS = {"movielens600-crlf": "movielens600", "generic8000-crlf": "generic8000"}  # -> plain copy
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# -- inputs ---------------------------------------------------------------------


def write_inputs(directory):
    """The raw datasets, by name: (dataset kind, prepare flags naming their files)."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench")]
    import corpus_gen
    from conftest import write_generic_dataset
    from test_cli import write_movielens_dataset

    def movielens(files):
        return "movielens", ["--ratings", files[0], "--users", files[1], "--items", files[2]]

    def generic(files):
        return "generic", ["--interactions", files[0], "--user-attrs", files[1], "--item-attrs", files[2]]

    datasets = {}
    for name in ("tier1-generic", "tier1-movielens", "movielens600", "generic8000"):
        os.makedirs(os.path.join(directory, name))
    path = os.path.join(directory, "tier1-generic")
    datasets["tier1-generic"] = generic(write_generic_dataset(path))
    path = os.path.join(directory, "tier1-movielens")
    datasets["tier1-movielens"] = movielens(write_movielens_dataset(path))
    path = os.path.join(directory, "movielens600")
    corpus_gen.write_movielens(path, 600, 1)
    datasets["movielens600"] = movielens([os.path.join(path, f) for f in ("ratings.dat", "users.dat", "movies.dat")])
    path = os.path.join(directory, "generic8000")
    *files, category_map = corpus_gen.write_generic(path, 8000, 2000, 1)
    datasets["generic8000"] = generic(files)
    datasets["generic8000-map"] = "generic", [*datasets["generic8000"][1], "--category-map", category_map]
    for variant, plain in VARIANTS.items():  # the same interactions, not in the plain form
        kind, flags = datasets[plain]
        path = os.path.join(directory, variant, os.path.basename(flags[1]))
        os.makedirs(os.path.dirname(path))
        with open(flags[1], "rb") as plain_file, open(path, "wb") as fh:
            fh.write(b"# CRLF line ends\r\n" + plain_file.read().replace(b"\n", b"\r\n"))
        datasets[variant] = kind, [flags[0], path, *flags[2:]]
    return datasets


# -- the fixed script, run once per side ----------------------------------------


def produce(out, datasets):
    """Run every covered command with the crossrec on sys.path, writing under `out`.

    Paths given to the CLI are relative to `out`, so no output names the
    side it came from. Each command's stdout, stderr and exit code go to
    logs/<step>.log.
    """
    from crossrec import cli

    os.chdir(out)
    os.makedirs("logs")

    def run(step, argv):
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            try:
                cli.main(argv)
            except SystemExit as exc:
                print(f"exit {exc.code}")
        with open(os.path.join("logs", f"{step}.log"), "w", encoding="utf-8") as fh:
            fh.write(text.getvalue())

    for name, (kind, files) in datasets.items():
        for seed in SEEDS:
            run(f"prepare-{name}-{seed}", ["prepare", "--dataset-kind", kind, *files,
                                           "--seed", str(seed), "--out", f"prepare/{name}-{seed}"])
    prepared = f"prepare/{TRAIN_CORPUS}-{SEEDS[0]}"
    common = ["--factors", "8", "--epochs", "2", "--seed", str(SEEDS[0])]
    for name, (model, flags) in TRAIN_RUNS.items():
        shutil.copytree(prepared, f"train/{name}")
        run(f"train-{name}", ["train", "--model", model, *flags, *common, "--checkpoint-every", "1",
                              "--out", f"train/{name}"])
        run(f"evaluate-{name}", ["evaluate", "--model", model, "--factors", "8", "--out", f"train/{name}",
                                 "--ranks-out", f"train/{name}/ranks.tsv"])
    run("evaluate-camf-no-ranks", ["evaluate", "--model", "camf", "--factors", "8", "--out", "train/camf"])
    shutil.copytree(prepared, f"train/{CONFIG_RUN}")
    with open(f"{CONFIG_RUN}.cfg", "w", encoding="utf-8") as fh:
        fh.write(CONFIG_FILE)
    for command in ("train", "evaluate"):
        run(f"{command}-{CONFIG_RUN}", [command, "--config", f"{CONFIG_RUN}.cfg"])
    shutil.copytree(prepared, "sweep")
    run("sweep", ["sweep", "--model", "gmf,mlp", "--factors", "8,16", "--epochs", "2",
                  "--seed", str(SEEDS[0]), "--out", "sweep"])
    for kind in KINDS:
        run(f"gradcheck-{kind}", ["gradcheck", "--model", kind, "--seed", str(SEEDS[0])])
    checkpoints = [os.path.join(dirpath, name) for dirpath, _dirnames, filenames in os.walk(".")
                   for name in filenames if _CHECKPOINT.search(name)]
    for path in checkpoints:
        decoded = os.path.join("decoded", os.path.normpath(path) + ".txt")
        os.makedirs(os.path.dirname(decoded), exist_ok=True)
        with open(decoded, "w", encoding="utf-8") as fh:
            fh.write(decoded_checkpoint(path))


_CHECKPOINT = re.compile(r"\.ckpt(\.epoch\d+)?$")


def decoded_checkpoint(path):
    """The Adam step and, per parameter in arena order, its name, shape and the
    sha256 of its value, m and v bytes, as the crossrec on sys.path loads `path`."""
    from crossrec import tensorcore

    store, _header = tensorcore.load_checkpoint(path)
    lines = [f"step {store.step}\n"]
    for name in store.names():
        rows, cols = store.shape(name)
        arrays = (store.value(name), *store.moments(name))
        hashes = " ".join(hashlib.sha256(array.tobytes()).hexdigest() for array in arrays)
        lines.append(f"{name} {rows} {cols} {hashes}\n")
    return "".join(lines)


# -- digests and the comparison --------------------------------------------------

_EPOCH_SECONDS = re.compile(rb" \(\d+\.\ds\)$", re.MULTILINE)


def digest(path):
    """sha256 of a file, metrics CSVs without their wall-clock column and
    logs without the per-epoch seconds."""
    with open(path, "rb") as fh:
        data = fh.read()
    name = os.path.basename(path)
    if name.startswith("metrics_") and name.endswith(".csv"):
        data = b"\n".join(line.rpartition(b",")[0] for line in data.split(b"\n"))
    elif name.endswith(".log"):
        data = _EPOCH_SECONDS.sub(b"", data)
    return hashlib.sha256(data).hexdigest()


def digests(tree):
    """{path relative to tree: digest} for every file under tree."""
    found = {}
    for dirpath, dirnames, filenames in os.walk(tree):
        dirnames.sort()
        for name in filenames:
            path = os.path.join(dirpath, name)
            found[os.path.relpath(path, tree)] = digest(path)
    return found


def compare(ref_tree, work_tree, ref_label="ref", work_label="work"):
    """Print one digest table of the two trees; 0 if every artifact is equal, else 1."""
    ref, work = digests(ref_tree), digests(work_tree)
    names = sorted(set(ref) | set(work))
    width = max([len("artifact"), *map(len, names)])
    print(f"{'artifact':<{width}}  {ref_label:<16}  {work_label:<16}  equal")
    differ = 0
    for name in names:
        a, b = ref.get(name, "-"), work.get(name, "-")
        same = a == b and a != "-"
        differ += not same
        print(f"{name:<{width}}  {a[:16]:<16}  {b[:16]:<16}  {'yes' if same else 'NO'}")
    print(f"{len(names) - differ} of {len(names)} artifacts equal")
    return 1 if differ or not names else 0


def compare_variants(tree, label):
    """Print whether each CRLF copy's prepared files equal its plain copy's; 0 if all do, else 1."""
    differ = 0
    for variant, plain in VARIANTS.items():
        for seed in SEEDS:
            found = [digests(os.path.join(tree, "prepare", f"{name}-{seed}")) for name in (plain, variant)]
            same = found[0] == found[1] and len(found[0]) == 3  # train, split, attributes
            differ += not same
            print(f"{label}: prepare/{variant}-{seed} {'equals' if same else 'DIFFERS from'} "
                  f"prepare/{plain}-{seed}")
    return 1 if differ else 0


def src_lines(tree):
    """Newlines in the .py files under tree/src, as `wc -l` counts them."""
    total = 0
    for dirpath, _dirnames, filenames in os.walk(os.path.join(tree, "src")):
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def report_src_lines(ref_tree, work_tree, ref_label="ref"):
    """Print the src/ line counts of both trees and the change between them."""
    ref, work = src_lines(ref_tree), src_lines(work_tree)
    print(f"src/ lines: {ref} in {ref_label}, {work} in the working tree ({work - ref:+d})")


# -- both sides ---------------------------------------------------------------------


def export(ref, dest):
    """REF's src/ under dest, straight from the object store."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", f"{ref}^{{commit}}"],
                         capture_output=True, text=True)
    if sha.returncode:
        raise SystemExit(f"identity: {ref!r} is not a commit in {ROOT}")
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", sha.stdout.strip(), "src"],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        raise SystemExit(f"identity: could not export {ref!r}")
    return sha.stdout.strip()


def side(src, out, inputs):
    """Start the fixed script with the crossrec under `src`, writing into `out`."""
    os.makedirs(out)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", **PINS)
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), "--produce", out, inputs], env=env)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?", help="git revision to compare the working tree with")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="only digest and compare two trees")
    parser.add_argument("--produce", nargs=2, metavar=("OUT", "INPUTS"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, ref_label="A", work_label="B")
    if args.produce:
        out, inputs = args.produce
        import crossrec
        expected = os.path.realpath(os.environ["PYTHONPATH"])
        if not os.path.realpath(crossrec.__file__).startswith(expected + os.sep):
            raise SystemExit(f"identity: imported {crossrec.__file__}, not the crossrec under {expected}")
        with open(os.path.join(inputs, "datasets.json"), encoding="utf-8") as fh:
            produce(out, json.load(fh))
        return 0
    if not args.ref:
        parser.error("give REF, or --compare A B")

    workdir = tempfile.mkdtemp(prefix="crossrec-identity-")
    try:
        sha = export(args.ref, os.path.join(workdir, "ref"))
        inputs = os.path.join(workdir, "inputs")
        os.makedirs(inputs)
        with open(os.path.join(inputs, "datasets.json"), "w", encoding="utf-8") as fh:
            json.dump(write_inputs(inputs), fh)
        start = time.perf_counter()
        runs = {label: side(os.path.join(root, "src"), os.path.join(workdir, f"out-{label}"), inputs)
                for label, root in (("ref", os.path.join(workdir, "ref")), ("work", ROOT))}
        codes = {label: proc.wait() for label, proc in runs.items()}
        print(f"identity: {args.ref} ({sha[:12]}) against the working tree; both sides ran in "
              f"{time.perf_counter() - start:.0f} s")
        if any(codes.values()):
            print(f"identity: the script failed: exit codes {codes}", file=sys.stderr)
            return 1
        code = compare(os.path.join(workdir, "out-ref"), os.path.join(workdir, "out-work"))
        for label in ("ref", "work"):
            code |= compare_variants(os.path.join(workdir, f"out-{label}"), label)
        report_src_lines(os.path.join(workdir, "ref"), ROOT, args.ref)
        return code
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
