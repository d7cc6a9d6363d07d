"""Training-step time of a git revision against the working tree, in one process.

    python tools/stepfit.py REF [--steps N]

REF's src/crossrec is exported with `git archive` (through tools/identity.py's
export) and imported under another package name, crossrec_ref, beside the
working tree's crossrec. The 600-user corpus (perfbench/corpus_gen.py's
`write_movielens(dir, 600, 11)`) is written once and prepared at seed 42 by
each side's own `crossrec prepare`, and each side loads its own prepared run,
so the two may keep different prepared-run files. Both walk the same batches
of it, the working tree's sampler's, from the same initial store, one training
step each in turn, the side that goes first alternating step by step. A step
is what training.train does per batch: score on a recording Tape, log loss,
backward and adam_step, at factors 8, the default tower, 4 negatives and lr
1e-3. BLAS and OpenMP are pinned to one thread.

For each kind and batch size (64, 256 and 1,024) it prints both sides'
median step time, the quartiles of the per-step ratio working tree / REF,
and whether the two stores are bitwise equal after the walk (values, both
moments and the Adam step). Then, per kind and side, the least-squares line
through the three medians: the fixed part of a step (its intercept) and its
slope per instance. The exit code is 1 if any pair of stores differs, so a
step that is faster but not bit for bit the same fails.

Times move with the machine: on a shared VM whose vCPU speed drifts, the
per-step ratio, taken from two steps run back to back, is steadier than
either side's medians.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("gmf", "camf")
BATCHES = (64, 256, 1024)
USERS, CORPUS_SEED, SPLIT_SEED = 600, 11, 42
FACTORS, NEGATIVE_RATIO, LR = 8, 4, 1e-3


def import_package(parent, name):
    """The package `name` found in directory `parent`, its cli module (and so every
    module a step or a prepare uses) loaded."""
    sys.path.insert(0, parent)
    try:
        package = importlib.import_module(name)
        importlib.import_module(f"{name}.cli")
    finally:
        sys.path.remove(parent)
    return package


def prepare(directory, packages):
    """Write the movielens-shaped corpus under `directory` and prepare it with each
    package's own cli; {label: that side's prepared run directory}."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import corpus_gen

    files = corpus_gen.write_movielens(os.path.join(directory, "raw"), USERS, CORPUS_SEED)
    raw = ["--dataset-kind", "movielens", "--ratings", files[0], "--users", files[1], "--items", files[2]]
    return {label: prepare_with(package, raw, os.path.join(directory, f"prepared-{label}"))
            for label, package in packages.items()}


def prepare_with(package, raw, out):
    """`out`, prepared at SPLIT_SEED by `package`'s cli from the raw files that the options `raw` name."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            package.cli.main(["prepare", *raw, "--seed", str(SPLIT_SEED), "--out", out])
    except SystemExit as exc:
        if exc.code:
            raise SystemExit(f"stepfit: prepare exited {exc.code}") from None
    return out


def _side(package, prepared, kind):
    """(split, store, step) of one side: its own loaded run, a fresh store and a step over it."""
    split, catalog = package.corpus.load_prepared(prepared)
    config = package.models.ModelConfig(
        kind=kind, num_users=split.train.num_users, num_items=split.train.num_items, factors=FACTORS,
        user_vocab_size=catalog.user_vocab_size, item_vocab_size=catalog.item_vocab_size)
    store = package.models.init_params(config, SPLIT_SEED)
    tc, models, training = package.tensorcore, package.models, package.training

    def step(batch):
        tape = tc.Tape(store)
        node = models.score(tape, config, batch.users, batch.items, catalog)
        preds = models.predictions(node)
        training.log_loss(preds, batch.labels)
        tc.adam_step(store, tape.backward(node, training.log_loss_grad(preds, batch.labels)[:, None]), lr=LR)

    return split, store, step


def _same_store(a, b):
    return a.step == b.step and all(
        getattr(a, buf).tobytes() == getattr(b, buf).tobytes() for buf in ("_value", "_m", "_v"))


def walk(packages, prepared, kind, batch_size, steps):
    """({label: per-step seconds}, stores equal) of `steps` steps of each side, on its own
    prepared run prepared[label], over the same batches, the side going first alternating."""
    sides = {label: _side(package, prepared[label], kind) for label, package in packages.items()}
    labels = list(sides)
    split = sides[labels[-1]][0]
    sampler = packages[labels[-1]].training.sample_training_batches
    batches = list(itertools.islice(itertools.chain.from_iterable(
        sampler(split, NEGATIVE_RATIO, batch_size, SPLIT_SEED, epoch) for epoch in itertools.count(1)), steps))
    times = {label: [] for label in labels}
    gc.collect()
    for k, batch in enumerate(batches):
        for label in labels[k % 2:] + labels[:k % 2]:
            start = time.perf_counter()
            sides[label][2](batch)
            times[label].append(time.perf_counter() - start)
    stores = [store for _, store, _ in sides.values()]
    return times, all(_same_store(stores[0], other) for other in stores[1:])


def fit(sizes, medians):
    """(intercept, slope) of the least-squares line through the (size, median) points."""
    mean_x, mean_y = statistics.fmean(sizes), statistics.fmean(medians)
    slope = (sum((x - mean_x) * (y - mean_y) for x, y in zip(sizes, medians))
             / sum((x - mean_x) ** 2 for x in sizes))
    return mean_y - slope * mean_x, slope


def report(packages, prepared, kinds=KINDS, batches=BATCHES, steps=200):
    """Walk every (kind, batch size), print the table and the fits; (exit code, results).

    `packages` maps two labels, the reference's first, to crossrec packages, and
    `prepared` each label to the run that its package prepared."""
    ref, work = packages
    rows, fits, code = [], [], 0
    print(f"{'kind':<6} {'batch':>5}  {ref + '_us':>9}  {work + '_us':>9}  "
          f"{'ratio_q1':>8}  {'median':>8}  {'ratio_q3':>8}  stores")
    for kind in kinds:
        medians = {ref: [], work: []}
        for batch_size in batches:
            times, equal = walk(packages, prepared, kind, batch_size, steps)
            code |= not equal
            ratios = [w / r for r, w in zip(times[ref], times[work])]
            row = {"kind": kind, "batch": batch_size, "steps": steps, "equal": equal,
                   "ratio_q1_median_q3": [round(q, 4) for q in statistics.quantiles(ratios, n=4, method="inclusive")]}
            for label in (ref, work):
                medians[label].append(statistics.median(times[label]) * 1e6)
                row[f"{label}_median_us"] = round(medians[label][-1], 1)
            rows.append(row)
            q1, median, q3 = row["ratio_q1_median_q3"]
            print(f"{kind:<6} {batch_size:>5}  {medians[ref][-1]:>9.1f}  {medians[work][-1]:>9.1f}  "
                  f"{q1:>8.4f}  {median:>8.4f}  {q3:>8.4f}  {'equal' if equal else 'DIFFER'}")
        for label in (ref, work):
            fixed, slope = fit(batches, medians[label])
            fits.append({"kind": kind, "side": label, "fixed_us": round(fixed, 1),
                         "slope_us_per_instance": round(slope, 4)})
    print(f"fit over batches {', '.join(map(str, batches))}: fixed part + slope per instance")
    for entry in fits:
        print(f"  {entry['kind']:<6} {entry['side']:<6} {entry['fixed_us']:>8.1f} us "
              f"+ {entry['slope_us_per_instance']:.4f} us/instance")
    if code:
        print("stepfit: the two sides' stores DIFFER after some walk")
    return code, {"rows": rows, "fits": fits}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare the working tree with")
    parser.add_argument("--steps", type=int, default=200, help="steps per kind and batch size (default 200)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    import identity

    os.environ.update(identity.PINS)  # before numpy first loads, with the packages below

    workdir = tempfile.mkdtemp(prefix="crossrec-stepfit-")
    try:
        sha = identity.export(args.ref, os.path.join(workdir, "ref"))
        os.rename(os.path.join(workdir, "ref", "src", "crossrec"), os.path.join(workdir, "crossrec_ref"))
        packages = {"ref": import_package(workdir, "crossrec_ref"),
                    "work": import_package(os.path.join(ROOT, "src"), "crossrec")}
        if not os.path.realpath(packages["work"].__file__).startswith(os.path.realpath(ROOT) + os.sep):
            raise SystemExit(f"stepfit: imported {packages['work'].__file__}, not this checkout's crossrec")
        prepared = prepare(workdir, packages)
        print(f"stepfit: {args.ref} ({sha[:12]}) against the working tree; {USERS} users, factors {FACTORS}, "
              f"{args.steps} steps per batch size, one BLAS thread")
        code, _ = report(packages, prepared, steps=args.steps)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
