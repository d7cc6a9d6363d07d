"""Smoke test of the benchmark on tiny corpora (well under a minute).

    python3 perfbench/smoke.py

Asserts that every workload prints every metric BENCHMARK.json names, with
its unit, at --trace 0 and --trace 1 and passes its output checks; that a
flipped checkpoint byte, a wrong hr10 and a failing command are counted as
failures rather than reported as a pass, with the result still printed; that
peak_rss_mb is the command's own peak, not this process's; and that the
benchmark refuses to run, printing no result, in a directory that holds only
BENCHMARK.json and perfbench/.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

ROOT = os.path.dirname(run.HERE)
TINY = run.Sizes(movielens_users=60, generic_users=80, generic_items=300, setup_reps=2)
SEED = 5
BALLAST_MB = 150


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def tiny_run(workload, trace):
    result, info = run.run_workload(ROOT, workload, SEED, 1, trace, TINY)
    return json.loads(json.dumps(result)), info


def check_metrics_printed():
    bench = spec()
    for workload in run.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, info = tiny_run(workload, trace)
            assert result["correct"] and result["failed"] == 0, (workload, trace, info["failures"])
            assert result["attempted"] >= 1
            wanted = {m["name"]: m["unit"] for m in bench[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == wanted, (workload, trace, set(printed) ^ set(wanted))
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (workload, name, metric)
                if not trace:
                    assert metric["value"] > 0, (workload, name, metric)
            assert {"nproc", "python", "numpy", "blas", "src_sha256"} <= set(info["fingerprint"])
            print(f"ok   {workload} trace={int(trace)}: {len(printed)} metrics, "
                  f"{result['attempted']} checks")


def run_corrupted(workload, trace, corrupt):
    """A tiny run where corrupt(bench, args, traced) tampers with outputs after each command."""
    original = run.Bench.crossrec

    def tampering(self, args, traced=False, timed=True):
        done = original(self, args, traced, timed)
        corrupt(self, args, traced)
        return done

    run.Bench.crossrec = tampering
    try:
        return tiny_run(workload, trace)
    finally:
        run.Bench.crossrec = original


def flip_checkpoint_byte(bench, args, traced):
    if args[0] == "train" and traced:
        path = bench.checkpoint("gmf")
        with open(path, "r+b") as fh:
            fh.seek(os.path.getsize(path) - 7)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0x01]))


def lower_final_hr10(bench, args, traced):
    if args[0] == "train":
        path = bench.metrics_csv("gmf")
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        fields = lines[-1].split(",")
        fields[5] = "0.05"
        lines[-1] = ",".join(fields)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def delete_fixture_checkpoint(bench, args, traced):
    if args[0] == "train":
        os.remove(bench.checkpoint("aadcf"))


def check_corruption_counted():
    for label, workload, trace, corrupt, expected in (
        ("flipped checkpoint byte", "train-gmf", True, flip_checkpoint_byte, "traced run differs"),
        ("wrong hr10", "train-gmf", False, lower_final_hr10, "below the floor"),
        ("failing evaluate", "eval-wide", False, delete_fixture_checkpoint, "exited 2"),
    ):
        result, info = run_corrupted(workload, trace, corrupt)
        json.dumps(result, allow_nan=False)
        assert not result["correct"] and result["failed"] >= 1, (label, result)
        assert any(expected in f for f in info["failures"]), (label, info["failures"])
        print(f"ok   {label}: counted as {result['failed']} failed of {result['attempted']}")


def check_peak_rss_is_the_commands_own():
    """A large benchmark process must not raise the command's peak_rss_mb."""
    ballast = bytearray(BALLAST_MB << 20)
    for k in range(0, len(ballast), 4096):
        ballast[k] = 1
    result, info = tiny_run("train-gmf", False)
    del ballast
    peak = result["metrics"]["peak_rss_mb"]["value"]
    assert result["correct"] and 0 < peak < BALLAST_MB, (peak, info["failures"])
    print(f"ok   peak RSS {peak:.1f} MB beside a {BALLAST_MB} MB benchmark process")


def check_refuses_without_sources():
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, "perfbench/run.py", "--workload", "train-gmf", "--seed", "1",
                "--seconds", "1", "--trace", "0"]
        done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
        assert done.returncode != 0, done
        assert '"metrics"' not in done.stdout, done.stdout
        print(f"ok   without sources: exit {done.returncode}, no result printed")


def main():
    check_refuses_without_sources()
    check_corruption_counted()
    check_peak_rss_is_the_commands_own()
    check_metrics_printed()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
