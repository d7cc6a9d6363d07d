"""Runs one crossrec command in this process and records its own peak RSS.

    python3 perfbench/peakrss.py PEAK_FILE -- <crossrec arguments>

It stands in for `crossrec` the way the installed console script does (it
calls `crossrec.cli.main`), and when the command ends it writes the peak
resident set size of this process, in KiB, to PEAK_FILE. The exit code is
the command's.

The ru_maxrss that wait4 returns for a child is not the child's own peak:
Linux carries the parent's high-water mark into the child across fork and
exec, so every child read at least the benchmark's own peak (the benchmark
holds a generated corpus in memory). VmHWM in /proc/self/status belongs to
the address space that exec created, so it counts only the command.
"""

from __future__ import annotations

import sys


def vmhwm_kib():
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: peakrss.py PEAK_FILE -- <crossrec arguments>", file=sys.stderr)
        return 2
    from crossrec import cli

    try:
        cli.main(argv[2:])
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    with open(argv[0], "w", encoding="ascii") as fh:
        fh.write(f"{vmhwm_kib()}\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
