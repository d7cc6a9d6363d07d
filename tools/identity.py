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
  2**40+9; on copies of the first two of those corpora whose ratings or
  interactions file, or both attribute files (`users.dat` and `movies.dat`,
  `user_attrs.tsv` and `item_attrs.tsv`, the latter also with the map), have
  CRLF line ends and a leading `#` line, so they are read line by line; on
  a copy of the 600-user corpus whose ratings file has CRLF line ends
  alone, which is read whole; and on a hand-written generic corpus of
  3,300 users with 10 items each, 33,000 items in all, so the test ids
  take the int32 tier of `tensorcore.id_dtype` (every other corpus here
  fits int16);
- `prepare` of the 600-user corpus at the second seed over a copy of its
  finished run at the first, so a prepare that replaces an earlier
  prepared run is covered too;
- `train` for 2 epochs for gmf, mlp, neumf, aadcf, camf and camf
  `--include-attr-cross` on the 600-user corpus, all at the default
  32-16-8 tower, and for mlp `--layers 16` and neumf `--layers 12,6`, so
  the parameter layout is held at other depths too;
- `train` of gmf for 1 epoch over a copy of the finished gmf run, so a
  rerun that replaces an earlier run's metrics CSV and checkpoint is
  covered too;
- `train` of gmf for 1 epoch at `--batch-size 1000` on the 600-user
  corpus, then `evaluate --ranks-out` of it: 1000 divides no power-of-two
  chunk size, so the sampler's walk in chunks of whole batches is covered;
- `evaluate --ranks-out` of each of those checkpoints, given only
  `--model`, `--factors`, `--out` and `--ranks-out`, and `evaluate` of
  the camf one without `--ranks-out`, as perfbench's fixture check runs it;
- `train` of aadcf for 1 epoch at `--batch-size 512 --lr 0.01` on the
  8000-user corpus, as perfbench's eval-wide fixture is trained, then
  `evaluate --ranks-out` of it, so the side gathers over 8,000 users are
  covered too;
- `train` of gmf for 2 epochs at `--neg-ratio 3` on the 8000-user corpus,
  then `evaluate --ranks-out` of it: its epochs span many of the sampler's
  chunks, and 3 divides no power-of-two chunk size, so a negative slot
  paired with the wrong positive's user at a chunk boundary shows;
- `train` of gmf for 1 epoch on the 33,000-item corpus, then
  `evaluate --ranks-out` of it, so int32 test ids are held end to end;
- `train` and then `evaluate` of camf with every option from one
  `--config` file (CONFIG_FILE below): each key `train` takes, at values
  other than the defaults, plus `ranks-out` and `dataset-kind`, which
  `train` does not take;
- a 2x2 `sweep`, and `gradcheck` for all five kinds at both seeds;
- every checkpoint written above, also decoded by that side's own
  `load_checkpoint` into decoded/<path>.txt: its Adam step and, per
  parameter in arena order, its name, its shape and the sha256 of its
  value, m and v bytes. A change of checkpoint format then shows the raw
  checkpoints differing and their content equal.

Every file written, and each command's output and exit code, is hashed
with sha256; metrics CSVs lose their wall-clock column and training logs
their per-epoch seconds first. One table of digests is printed, and the
exit code is 1 if any artifact differs or exists on one side only and no
expected difference (below) names it, or if, on either side, a CRLF copy's
prepared files differ from its plain copy's: so the whole-file readers and
the per-line reader they fall back to are held to the same files.
Then the lines of src/'s .py files are counted in REF and in the working
tree, in all and per module (0 on a side that lacks it), so a change's src/
delta, and where it went, comes from the run that shows its byte identity.
Float bits depend on the CPU and the BLAS build, so the digests are only
meaningful between two trees on one machine and are never kept as goldens. Each side takes about a minute on a 2-vCPU VM.

A change that alters output bytes on purpose lists the artifacts it means
to alter: fnmatch patterns over the artifact paths of the table, one a
line in tools/identity_expected.txt (blank lines and `#` lines are
skipped), which a change that alters no byte leaves empty. Comparing with
REF reads them; `--compare A B` uses none. A
differing artifact that a pattern matches is marked `expected` and does not
fail the run; a pattern that matches no differing artifact does, so the
list cannot outlive the difference it names.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
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
EXPECTED_FILE = os.path.join(ROOT, "tools", "identity_expected.txt")
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
RERUN = "gmf-rerun"  # train/gmf copied, then gmf trained over it
REPREPARE = f"{TRAIN_CORPUS}-reprepared"  # its SEEDS[0] run copied, then prepared at SEEDS[1] over it
BATCH_RUN = "gmf-batch1000"  # gmf for 1 epoch at --batch-size 1000 on TRAIN_CORPUS
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
# and two it does not: evaluate takes ranks-out, only prepare dataset-kind
ranks-out=train/{CONFIG_RUN}/ranks.tsv
dataset-kind=movielens
"""
WIDE_CORPUS, WIDE_RUN = "generic8000", "aadcf-wide"  # aadcf, as perfbench's eval-wide fixture
WIDE_TRAIN = ["--epochs", "1", "--batch-size", "512", "--lr", "0.01"]
RATIO3_RUN = "gmf-wide-ratio3"  # gmf at --neg-ratio 3 on WIDE_CORPUS
INT32_CORPUS, INT32_RUN = "generic33000", "gmf-int32"  # test ids past 2**15: the int32 tier
INT32_USERS, INT32_ITEMS_PER_USER = 3300, 10
KINDS = ("gmf", "mlp", "neumf", "aadcf", "camf")
VARIANTS = {  # -> plain copy. The -attrs ones copy both attribute files with CRLF line ends, the others
    # the ratings or interactions file; all but the -whole one open each copy with a "#" line, so it is
    # read line by line
    "movielens600-crlf": "movielens600",
    "generic8000-crlf": "generic8000",
    "movielens600-crlf-whole": "movielens600",
    "movielens600-crlf-attrs": "movielens600",
    "generic8000-crlf-attrs": "generic8000",
    "generic8000-map-crlf-attrs": "generic8000-map",
}
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
    for variant, plain in VARIANTS.items():  # the same files, some with CRLF line ends
        kind, flags = datasets[plain]
        flags = list(flags)  # --ratings/--interactions, then the user and the item attribute file
        os.makedirs(os.path.join(directory, variant))
        for k in (3, 5) if variant.endswith("-attrs") else (1,):
            path = os.path.join(directory, variant, os.path.basename(flags[k]))
            first = b"" if variant.endswith("-whole") else b"# CRLF line ends\r\n"
            with open(flags[k], "rb") as plain_file, open(path, "wb") as fh:
                fh.write(first + plain_file.read().replace(b"\n", b"\r\n"))
            flags[k] = path
        datasets[variant] = kind, flags
    datasets[INT32_CORPUS] = generic(write_int32_corpus(os.path.join(directory, INT32_CORPUS)))
    return datasets


def write_int32_corpus(directory):
    """A generic corpus past 32,768 items, written by hand: corpus_gen.write_generic's taste
    weights at this size take hundreds of MB. User u holds items u + 3,300 k for k below 10,
    so each of the 33,000 items is held once; every user and item lists one attribute.
    Returns the (interactions, user attributes, item attributes) paths."""
    os.makedirs(directory)
    users, per_user = range(INT32_USERS), range(INT32_ITEMS_PER_USER)
    lines = {
        "interactions.tsv": [f"{100 + u}\t{7 + u + INT32_USERS * k}\t{1000 + k}" for u in users for k in per_user],
        "user_attrs.tsv": [f"{100 + u}\tgroup{u % 7}" for u in users],
        "item_attrs.tsv": [f"{7 + i}\tkind{i % 11}" for i in range(INT32_USERS * INT32_ITEMS_PER_USER)],
    }
    paths = []
    for name, text in lines.items():
        paths.append(os.path.join(directory, name))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write("\n".join(text) + "\n")
    return paths


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
    shutil.copytree(prepared, f"prepare/{REPREPARE}")
    kind, files = datasets[TRAIN_CORPUS]
    run(f"prepare-{REPREPARE}", ["prepare", "--dataset-kind", kind, *files,
                                 "--seed", str(SEEDS[1]), "--out", f"prepare/{REPREPARE}"])

    def train_and_evaluate(name, source, model, flags):
        shutil.copytree(source, f"train/{name}")
        run(f"train-{name}", ["train", "--model", model, "--factors", "8", *flags, "--out", f"train/{name}"])
        run(f"evaluate-{name}", ["evaluate", "--model", model, "--factors", "8", "--out", f"train/{name}",
                                 "--ranks-out", f"train/{name}/ranks.tsv"])

    common = ["--epochs", "2", "--seed", str(SEEDS[0])]
    for name, (model, flags) in TRAIN_RUNS.items():
        train_and_evaluate(name, prepared, model, [*flags, *common])
    shutil.copytree("train/gmf", f"train/{RERUN}")
    run(f"train-{RERUN}", ["train", "--model", "gmf", "--factors", "8", "--epochs", "1",
                           "--seed", str(SEEDS[0]), "--out", f"train/{RERUN}"])
    run("evaluate-camf-no-ranks", ["evaluate", "--model", "camf", "--factors", "8", "--out", "train/camf"])
    train_and_evaluate(BATCH_RUN, prepared, "gmf", ["--epochs", "1", "--batch-size", "1000", "--seed", str(SEEDS[0])])
    wide = f"prepare/{WIDE_CORPUS}-{SEEDS[0]}"
    train_and_evaluate(WIDE_RUN, wide, "aadcf", ["--seed", str(SEEDS[0]), *WIDE_TRAIN])
    train_and_evaluate(RATIO3_RUN, wide, "gmf", ["--neg-ratio", "3", *common])
    train_and_evaluate(INT32_RUN, f"prepare/{INT32_CORPUS}-{SEEDS[0]}", "gmf",
                       ["--epochs", "1", "--seed", str(SEEDS[0])])
    shutil.copytree(prepared, f"train/{CONFIG_RUN}")
    with open(f"{CONFIG_RUN}.cfg", "w", encoding="utf-8") as fh:
        fh.write(CONFIG_FILE)
    for command in ("train", "evaluate"):
        run(f"{command}-{CONFIG_RUN}", [command, "--config", f"{CONFIG_RUN}.cfg"])
    shutil.copytree(prepared, "sweep")
    run("sweep", ["sweep", "--model", "gmf,mlp", "--factors", "8,16", "--epochs", "2",
                  "--seed", str(SEEDS[0]), "--out", "sweep"])
    for kind in KINDS:
        for seed in SEEDS:
            run(f"gradcheck-{kind}-{seed}", ["gradcheck", "--model", kind, "--seed", str(seed)])
    checkpoints = [os.path.join(dirpath, name) for dirpath, _dirnames, filenames in os.walk(".")
                   for name in filenames if _CHECKPOINT.search(name)]
    for path in checkpoints:
        decoded = os.path.join("decoded", os.path.normpath(path) + ".txt")
        os.makedirs(os.path.dirname(decoded), exist_ok=True)
        with open(decoded, "w", encoding="utf-8") as fh:
            fh.write(decoded_checkpoint(path))


_CHECKPOINT = re.compile(r"\.ckpt$")


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


def read_expected(path):
    """The patterns listed in `path`, one a line, blank lines and `#` lines skipped."""
    with open(path, encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip() and not line.lstrip().startswith("#")]


def compare(ref_tree, work_tree, ref_label="ref", work_label="work", expected=()):
    """Print one digest table of the two trees; 0 if every artifact is equal or differs as
    an `expected` pattern allows and every pattern matches a differing artifact, else 1."""
    ref, work = digests(ref_tree), digests(work_tree)
    names = sorted(set(ref) | set(work))
    width = max([len("artifact"), *map(len, names)])
    print(f"{'artifact':<{width}}  {ref_label:<16}  {work_label:<16}  equal")
    differ, unexpected = [], 0
    for name in names:
        a, b = ref.get(name, "-"), work.get(name, "-")
        if a == b and a != "-":
            status = "yes"
        else:
            differ.append(name)
            status = "expected" if any(fnmatch.fnmatchcase(name, p) for p in expected) else "NO"
            unexpected += status == "NO"
        print(f"{name:<{width}}  {a[:16]:<16}  {b[:16]:<16}  {status}")
    print(f"{len(names) - len(differ)} of {len(names)} artifacts equal, "
          f"{len(differ) - unexpected} differing as expected")
    stale = [p for p in expected if not any(fnmatch.fnmatchcase(name, p) for name in differ)]
    for pattern in stale:
        print(f"identity: expected difference {pattern!r} matches no differing artifact")
    return 1 if unexpected or stale or not names else 0


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
    """{path under src/: newlines} of the .py files under tree/src, as `wc -l` counts them."""
    src, counts = os.path.join(tree, "src"), {}
    for dirpath, _dirnames, filenames in os.walk(src):
        for name in filenames:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    counts[os.path.relpath(path, src)] = fh.read().count(b"\n")
    return counts


def report_src_lines(ref_tree, work_tree, ref_label="ref"):
    """Print the src/ line counts of both trees and the change between them, in all
    and then per module (0 on a side that lacks it)."""
    ref, work = src_lines(ref_tree), src_lines(work_tree)
    total_ref, total_work = sum(ref.values()), sum(work.values())
    print(f"src/ lines: {total_ref} in {ref_label}, {total_work} in the working tree "
          f"({total_work - total_ref:+d})")
    names = sorted(ref.keys() | work.keys())
    width = max(map(len, names), default=0)
    for name in names:
        a, b = ref.get(name, 0), work.get(name, 0)
        print(f"  {name:<{width}}  {a:>5}  {b:>5}  {b - a:+d}")


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
    expected = read_expected(EXPECTED_FILE)

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
        code = compare(os.path.join(workdir, "out-ref"), os.path.join(workdir, "out-work"),
                       expected=expected)
        for label in ("ref", "work"):
            code |= compare_variants(os.path.join(workdir, f"out-{label}"), label)
        report_src_lines(os.path.join(workdir, "ref"), ROOT, args.ref)
        return code
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
