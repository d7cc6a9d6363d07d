"""End-to-end and per-layer benchmark of the crossrec CLI on seeded synthetic corpora.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it works on the checkout that holds this file. The
seed only shapes the generated input files; the CLI sees nothing but them.

A run generates the workload's raw files, sets up (`crossrec prepare`
several times; eval-wide also trains the checkpoint it evaluates), then
repeats the workload's timed command as a child process, the way a user runs
it, until about S seconds have gone, and checks every output. Each child is
pinned to one BLAS/OpenMP thread.

--trace 0 prints the end-to-end metrics: setup_s (median time of
`crossrec prepare`), run_s (median time of the timed command),
throughput_per_s, peak_rss_mb and hr10. The two times are speed-corrected:
each timed child shares one CPU with perfbench/speedprobe.py, and its CPU
time is rescaled by the probe's rate over the same window to the time it
takes on a CPU that runs the probe at the reference rate. On the shared
2-vCPU VM the baseline was measured on, the vCPUs change speed by up to 1.7x
for seconds at a time, which left raw wall-time medians of 30-second runs
25-35% apart across seeds; the raw wall and CPU times are kept in the info
line. peak_rss_mb is the median peak RSS of the timed command's own process
(see perfbench/peakrss.py).

--trace 1 alternates untraced runs of the timed command with runs under
perfbench/tracer.py and prints the per-layer metrics, including
trace.overhead_share (median traced over median untraced run time) and
evaluation.ndcg10. Span times are in the same speed-corrected seconds: each
traced command's spans are scaled by its corrected time over its wall time.
NDCG@10 is not an end-to-end metric because it is not steady across seeds
on train-camf: after one epoch CAMF's 32-16-8 ReLU stack loses a
seed-dependent share of its units, so NDCG@10 falls into one of two modes
(about 0.20 or 0.31). It is still checked on every run and printed in the
info line.

Every command exit code and every output check counts as one attempt; the
last stdout line is {"correct", "attempted", "failed", "metrics"}, and the
line before it records the machine fingerprint, failed_share and each
failure. Scratch files live under .perfbench_work/ in the checkout and are
removed at the end.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP before numpy loads, here and (through the environment) in
# every child, so timings measure the program and not the thread scheduler.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus_gen  # noqa: E402
import tracer  # noqa: E402
from speedprobe import REFERENCE_CHUNKS_PER_S, SpeedProbe  # noqa: E402

WORKLOADS = ("train-gmf", "train-camf", "eval-wide")
FACTORS = "8"
# the CLI's own seed (split and initialisation) is fixed: the workload seed only
# shapes the generated files, which are all the program sees of it
CLI_SEED = "42"
NEGATIVE_RATIO = 4
# chance HR@10 is 0.10 (one positive among 100); a trained model must clear twice that
HR10_FLOOR = 0.2
TRAIN_EPOCHS = 1                # timed `train` epochs, each evaluated
# eval-wide's checkpoint is trained, not timed: one epoch (each epoch also pays an
# 8,000-user evaluation) at a step size that leaves hr10 within a few percent
# across seeds; at batch 1024 and lr 0.005 it ranged 0.48-0.65
FIXTURE_TRAIN = ("--epochs", "1", "--batch-size", "512", "--lr", "0.01")
RUN_DEADLINE_S = 170.0
UNCOVERED_LIMIT_S = 2.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes; fixed, so every seed does the same amount of work."""

    movielens_users: int = 600      # ML-1M has 6,040; scaled to the run length
    generic_users: int = 8000       # wider than ML-1M, ~13 interactions each
    generic_items: int = 2000
    setup_reps: int = 3             # prepares per run; setup_s is their median


@dataclass
class Completed:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    spans: str = None
    probe_rate: float = None    # speed probe chunks per CPU-second while it ran

    @property
    def ref_s(self):
        """CPU time rescaled to the reference probe rate; None without a probe reading."""
        if self.probe_rate is None:
            return None
        return self.cpu_s * self.probe_rate / REFERENCE_CHUNKS_PER_S


@dataclass
class Checks:
    """Counts every command and output check; keeps the ones that failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Bench:
    """One benchmark run of one workload in a scratch directory of the checkout."""

    def __init__(self, root, workload, seed, seconds, trace, sizes):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes
        self.checks = Checks()
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work = os.path.join(root, ".perfbench_work", f"{workload}-s{seed}-p{os.getpid()}")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
        self.commands = 0
        self.probe = None

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    # -- child processes ----------------------------------------------------

    def crossrec(self, args, traced=False, timed=True):
        """Run one CLI command as a child; wall and CPU time come from wait4.

        An untraced child runs under perfbench/peakrss.py, which records its
        own peak RSS (wait4's ru_maxrss would include this process's peak).

        With the speed probe running, a timed child is pinned to the probe's
        CPU and the probe's rate over the child's lifetime is recorded; an
        untimed one (set-up training, output checks) is left to run beside it.
        """
        self.commands += 1
        tag = f"cmd{self.commands:03d}"
        spans = self.path(f"{tag}.spans.json") if traced else None
        peak = None if traced else self.path(f"{tag}.peak")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans, "--", *args]
        else:
            argv = [sys.executable, os.path.join(HERE, "peakrss.py"), peak, "--", *args]
        probe = self.probe if timed else None
        with open(self.path(f"{tag}.out"), "w+b") as out:
            before = probe.read() if probe else None
            t0 = time.perf_counter()
            with probe.pinned() if probe else contextlib.nullcontext():
                proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=self.env,
                                        cwd=self.work)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            rate = SpeedProbe.rate(before, probe.read()) if probe else None
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            text = out.read().decode("utf-8", "replace")
        peak_mb = int(file_bytes(peak) or 0) / 1024.0 if peak else None
        done = Completed(proc.returncode, wall, usage.ru_utime + usage.ru_stime, peak_mb, text, spans, rate)
        self.checks.expect(done.code == 0, f"`crossrec {args[0]}` exited {done.code}: {text[-300:]!r}")
        if peak:
            self.checks.expect(peak_mb > 0, f"no peak RSS recorded for `{args[0]}`")
        if probe:
            self.checks.expect(rate is not None, f"speed probe made no progress during `{args[0]}`")
        return done

    # -- set-up ---------------------------------------------------------------

    def generate(self):
        raw = self.path("raw")
        if self.workload == "eval-wide":
            inter, uattr, iattr, cmap = corpus_gen.write_generic(
                raw, self.sizes.generic_users, self.sizes.generic_items, self.seed)
            self.users = self.sizes.generic_users
            return ["--dataset-kind", "generic", "--interactions", inter, "--user-attrs", uattr,
                    "--item-attrs", iattr, "--category-map", cmap]
        ratings, users, movies = corpus_gen.write_movielens(raw, self.sizes.movielens_users, self.seed)
        self.users = self.sizes.movielens_users
        return ["--dataset-kind", "movielens", "--ratings", ratings, "--users", users, "--items", movies]

    def prepare(self, raw_args, out, traced=False):
        done = self.crossrec(["prepare", *raw_args, "--seed", CLI_SEED, "--out", out], traced)
        summary = dict(line.split("\t", 1) for line in done.stdout.splitlines() if "\t" in line)
        self.checks.expect(summary.get("users") == str(self.users),
                           f"prepare kept {summary.get('users')} users, expected {self.users}")
        return done, summary

    def set_up(self):
        """Prepare the corpus; returns (prepare runs, traced prepare or None)."""
        raw_args = self.generate()
        reps = 1 if self.trace else self.sizes.setup_reps
        outs = [self.path(f"prep{k}") for k in range(reps)]
        runs, summaries = zip(*(self.prepare(raw_args, out) for out in outs))
        traced = None
        if self.trace:
            outs.append(self.path("prep-traced"))
            traced, _ = self.prepare(raw_args, outs[-1], traced=True)
        digests = {digest_dir(out) for out in outs}
        self.checks.expect(len(digests) == 1, "prepare reruns wrote different files")
        self.prepared = outs[0]
        interactions = int(summaries[0].get("interactions", 0))
        self.train_instances = (interactions - self.users) * (1 + NEGATIVE_RATIO) * TRAIN_EPOCHS
        if self.workload == "eval-wide":
            self.crossrec(["train", "--model", "aadcf", "--factors", FACTORS, *FIXTURE_TRAIN,
                           "--seed", CLI_SEED, "--out", self.prepared], timed=False)
            self.fixture_final = final_row(self.metrics_csv("aadcf"))
        return runs, traced

    def metrics_csv(self, model):
        return os.path.join(self.prepared, f"metrics_{model}_f{FACTORS}.csv")

    def checkpoint(self, model):
        return os.path.join(self.prepared, f"checkpoint_{model}_f{FACTORS}.ckpt")

    # -- timed command --------------------------------------------------------

    def timed(self, traced=False):
        """One run of the workload's timed command; returns (Completed, output digest, hr, ndcg)."""
        if self.workload == "eval-wide":
            return self.timed_evaluate(traced)
        return self.timed_train(traced)

    def timed_train(self, traced):
        model = self.workload.split("-", 1)[1]
        done = self.crossrec(["train", "--model", model, "--factors", FACTORS,
                              "--epochs", str(TRAIN_EPOCHS), "--seed", CLI_SEED,
                              "--out", self.prepared], traced)
        rows = read_rows(self.metrics_csv(model))
        hr, ndcg = rows[-1][5:7] if rows else (None, None)
        self.checks.expect(len(rows) == TRAIN_EPOCHS,
                           f"metrics CSV has {len(rows)} rows, expected {TRAIN_EPOCHS}")
        self.checks.expect((number(hr) or 0.0) >= HR10_FLOOR,
                           f"final hr10 {hr} below the floor {HR10_FLOOR}")
        stripped = "\n".join(",".join(r[:-1]) for r in rows).encode()
        digest = hashlib.sha256(stripped + file_bytes(self.checkpoint(model))).hexdigest()
        return done, digest, hr, ndcg

    def timed_evaluate(self, traced):
        ranks = self.path("ranks.tsv")
        if os.path.exists(ranks):
            os.remove(ranks)
        done = self.crossrec(["evaluate", "--model", "aadcf", "--factors", FACTORS,
                              "--seed", CLI_SEED, "--out", self.prepared, "--ranks-out", ranks],
                             traced)
        hr, ndcg = reported(done.stdout)
        self.checks.expect((hr, ndcg) == self.fixture_final,
                           f"evaluate gave hr10/ndcg10 {hr}/{ndcg}, training wrote {self.fixture_final}")
        self.check_ranks(ranks, hr, ndcg)
        digest = hashlib.sha256(file_bytes(ranks) + f"{hr},{ndcg}".encode()).hexdigest()
        return done, digest, hr, ndcg

    def check_ranks(self, path, hr, ndcg):
        """One 'user<TAB>rank' line per user, ranks in 1..100, and they give hr10/ndcg10."""
        lines = file_bytes(path).decode("utf-8", "replace").splitlines()
        ok = len(lines) == self.users
        ranks = []
        for u, line in enumerate(lines):
            fields = line.split("\t")
            ok = ok and len(fields) == 2 and fields[0] == str(u) and fields[1].isdigit()
            if not ok:
                break
            ranks.append(int(fields[1]))
        ok = ok and all(1 <= r <= 100 for r in ranks)
        self.checks.expect(ok, f"rank dump is malformed ({len(lines)} lines for {self.users} users)")
        if ok:
            hits = sum(1.0 for r in ranks if r <= 10)
            gain = 0.0
            for r in ranks:
                gain += 1.0 / math.log2(r + 1) if r <= 10 else 0.0
            self.checks.expect(
                (repr(hits / len(ranks)), repr(gain / len(ranks))) == (hr, ndcg),
                "rank dump does not reproduce the reported hr10/ndcg10")

    def check_saved_checkpoint(self, hr, ndcg):
        """`crossrec evaluate` on the final checkpoint reproduces the final epoch's metrics."""
        model = self.workload.split("-", 1)[1]
        done = self.crossrec(["evaluate", "--model", model, "--factors", FACTORS,
                              "--seed", CLI_SEED, "--out", self.prepared], timed=False)
        self.checks.expect(reported(done.stdout) == (hr, ndcg),
                           "evaluate on the saved checkpoint differs from the final epoch")

    def repeat(self):
        """Timed runs until the time budget is spent (traced runs interleaved with --trace 1)."""
        plain, traced = [], []
        reference = None
        started = time.monotonic()
        while True:
            batch = [(plain, False)] + ([(traced, True)] if self.trace else [])
            spent = 0.0
            for runs, is_traced in batch:
                done, digest, hr, ndcg = self.timed(is_traced)
                if reference is None:
                    reference = (digest, hr, ndcg)
                what = "traced run differs from untraced" if is_traced else "rerun differs"
                self.checks.expect(digest == reference[0], f"{what}: output bytes changed")
                runs.append(done)
                spent += done.wall_s
            elapsed = time.monotonic() - started
            left = self.deadline - time.monotonic()
            if elapsed + spent > self.seconds or left < 4 * spent + 10:
                break
        return plain, traced, reference

    # -- the whole run --------------------------------------------------------

    def run(self):
        os.makedirs(self.work)
        self.probe = SpeedProbe(self.path("speedprobe.state"), max(os.sched_getaffinity(0)), self.env)
        try:
            prepares, traced_prepare = self.set_up()
            plain, traced, (_, hr, ndcg) = self.repeat()
            if self.workload != "eval-wide":
                self.check_saved_checkpoint(hr, ndcg)
        finally:
            self.probe.close()
        good = [r for r in plain if r.code == 0]
        run_s = median_or_none(r.ref_s for r in good)
        info = {"runs": len(plain), "run_wall_s_each": [round(r.wall_s, 4) for r in plain],
                "hr10": hr, "ndcg10": ndcg}
        if not self.trace:
            work = self.users if self.workload == "eval-wide" else self.train_instances
            info["throughput_work"] = (f"{work} users ranked" if self.workload == "eval-wide"
                                       else f"{work} training instances")
            info["run_cpu_s_each"] = [round(r.cpu_s, 4) for r in plain]
            info["probe_rate_each"] = [round(r.probe_rate or 0.0, 1) for r in plain]
            info["setup_wall_s_each"] = [round(r.wall_s, 4) for r in prepares]
            metrics = {
                "setup_s": (median_or_none(r.ref_s for r in prepares if r.code == 0), "s"),
                "run_s": (run_s, "s"),
                "throughput_per_s": (work / run_s if run_s else None, "1/s"),
                "peak_rss_mb": (median_or_none(r.peak_rss_mb for r in good), "MB"),
                "hr10": (number(hr), "fraction"),
            }
            return metrics, info
        metrics = self.layer_metrics(traced_prepare, traced, run_s)
        metrics["evaluation.ndcg10"] = (number(ndcg), "fraction")
        info["traced_wall_s_each"] = [round(r.wall_s, 4) for r in traced]
        return metrics, info

    def layer_metrics(self, traced_prepare, traced, run_s):
        """Per-layer metrics from the traced prepare and the median traced timed run.

        Span times are rescaled from wall time to the speed-corrected time of
        their command, so they add up to figures comparable with run_s.
        """
        good = sorted((r for r in traced if r.code == 0 and r.ref_s), key=lambda r: r.ref_s)
        if not good or traced_prepare.code != 0 or not traced_prepare.ref_s or not run_s:
            return {}
        middle = good[(len(good) - 1) // 2]
        command = tracer.load(middle.spans, middle.ref_s / middle.wall_s)
        prepare = tracer.load(traced_prepare.spans, traced_prepare.ref_s / traced_prepare.wall_s)
        metrics = tracer.summarize(prepare, command, middle.ref_s)
        # the one top-level span (the cli command) lies inside the command's time,
        # and what it leaves out (interpreter start, imports, writing spans) stays small
        covered = command.top_level_time()
        uncovered = middle.ref_s - covered
        self.checks.expect(
            0 < covered <= middle.ref_s and uncovered < max(UNCOVERED_LIMIT_S, middle.ref_s / 2),
            f"top-level spans cover {covered:.3f}s of the traced command's {middle.ref_s:.3f}s")
        if self.workload != "eval-wide":
            counted = command.counters.get("training.instances", 0)
            self.checks.expect(counted == self.train_instances,
                               f"sampler yielded {counted} instances, throughput assumes "
                               f"{self.train_instances}")
        metrics["trace.overhead_share"] = (statistics.median(r.ref_s for r in good) / run_s, "ratio")
        return metrics


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def read_rows(path):
    """Rows of a metrics CSV, header dropped; empty if it is missing."""
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def final_row(path):
    rows = read_rows(path)
    return tuple(rows[-1][5:7]) if rows else None


def number(text):
    """A printed metric as a float; None when it is missing or not finite."""
    try:
        value = float(text)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def reported(stdout):
    """(hr10, ndcg10) as printed by `crossrec evaluate`, unparsed."""
    values = dict(line.split("\t", 1) for line in stdout.splitlines() if "\t" in line)
    return values.get("hr10"), values.get("ndcg10")


def file_bytes(path):
    if not os.path.exists(path):
        return b""
    with open(path, "rb") as fh:
        return fh.read()


def digest_dir(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0" + file_bytes(os.path.join(path, name)))
    return h.hexdigest()


def fingerprint(root):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    src_root = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src_root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            rel = os.path.relpath(os.path.join(dirpath, name), src_root)
            src.update(rel.encode() + b"\0" + file_bytes(os.path.join(dirpath, name)))
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "threads": THREAD_PINS["OMP_NUM_THREADS"],
        "git_commit": commit, "src_sha256": src.hexdigest(),
    }


def run_workload(root, workload, seed, seconds, trace, sizes=Sizes()):
    """Run one workload; returns (result dict for the last line, info dict)."""
    bench = Bench(root, workload, seed, seconds, trace, sizes)
    try:
        metrics, info = bench.run()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    checks = bench.checks
    info.update(workload=workload, seed=seed, trace=trace, fingerprint=fingerprint(root),
                failed_share=len(checks.failures) / max(checks.attempted, 1),
                failures=checks.failures)
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "crossrec", "cli.py")):
        print(f"perfbench: no crossrec sources under {root}/src", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result, info = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print("perfbench " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
