"""Span tracing of the crossrec CLI from outside the program.

Run as a script, this module stands in for `crossrec`:

    python3 perfbench/tracer.py SPANS.json -- <crossrec arguments>

It wraps the public functions of the six crossrec modules (cli, corpus,
training, models, tensorcore, evaluation) in span recorders, runs
`crossrec.cli.main` on the arguments, and writes the spans and counters to
SPANS.json when the command ends. Nothing in `src/` is changed: the wrappers
replace module attributes, which every crossrec call site looks up at call
time. A span has a name, a start, an end and the span open when it began
(its parent); spans are kept in memory until the command exits.

Imported, it gives the parent side: `load` and `summarize`, which turns one
command's spans into the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "corpus", "training", "models", "tensorcore", "evaluation")
PRIMITIVES = (
    "param", "embed_lookup", "embed_sum", "dense", "hadamard", "concat", "relu", "sigmoid", "custom",
)


class Recorder:
    """In-memory span store: parallel lists indexed by span id."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.stack = []
        self.counters = Counter()

    def open(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, count=None):
        """fn with a span around each call; count(args, result) adds to counters."""

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                for key, value in count(args, result).items():
                    self.counters[key] += value
            return result

        return wrapper

    def wrap_sampler(self, fn):
        """A batch generator traced as setup (call to first batch), next and step spans.

        The step span is open while the consumer holds a batch, so the
        forward, loss, backward and Adam spans of that batch nest inside it.
        """

        def wrapper(*args, **kwargs):
            batches = fn(*args, **kwargs)
            name = "training.sampler_setup"
            while True:
                idx = self.open(name)
                try:
                    batch = next(batches)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                name = "training.sampler_next"
                self.counters["training.instances"] += len(batch)
                idx = self.open("training.step")
                try:
                    yield batch
                finally:
                    self.close(idx)

        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "counters": dict(self.counters),
            }, fh)


def _file_bytes(key, path_arg):
    return lambda args, _result: {key: os.path.getsize(args[path_arg])}


def install(recorder):
    """Replace the traced crossrec functions with span-recording wrappers."""
    from crossrec import cli, corpus, evaluation, models, training
    from crossrec import tensorcore as tc

    def patch(module, attr, name, count=None):
        setattr(module, attr, recorder.wrap(name, getattr(module, attr), count))

    for command in ("prepare", "train", "evaluate"):
        patch(cli, f"cmd_{command}", f"cli.{command}")
    for attr in ("parse_movielens", "parse_generic"):
        patch(corpus, attr, "corpus.parse")
    patch(corpus, "leave_one_out_split", "corpus.split")
    for attr in ("save_interactions", "save_split", "save_catalog"):
        patch(corpus, attr, "corpus.save", _file_bytes("corpus.bytes_written", 1))
    for attr in ("load_interactions", "load_split", "load_catalog"):
        patch(corpus, attr, "corpus.load")
    patch(training, "train", "training.train")
    training.sample_training_batches = recorder.wrap_sampler(training.sample_training_batches)
    patch(training, "log_loss", "training.loss")
    patch(training, "log_loss_grad", "training.loss")
    patch(models, "score", "models.score")
    patch(evaluation, "evaluate", "evaluation.evaluate")
    for prim in PRIMITIVES:
        patch(tc.Tape, prim, f"tensorcore.{prim}")
    patch(tc.Tape, "backward", "tensorcore.backward")
    patch(tc, "adam_step", "tensorcore.adam",
          lambda args, _result: {"tensorcore.adam_params": len(args[1].names())})
    patch(tc, "save_checkpoint", "tensorcore.checkpoint_save",
          _file_bytes("tensorcore.checkpoint_bytes", 0))
    patch(tc, "load_checkpoint", "tensorcore.checkpoint_load",
          _file_bytes("tensorcore.checkpoint_bytes", 0))
    return cli


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <crossrec arguments>", file=sys.stderr)
        return 2
    recorder = Recorder()
    cli = install(recorder)
    try:
        cli.main(argv[2:])
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    recorder.dump(argv[0])
    return code


# -- parent side --------------------------------------------------------------


def load(path, scale=1.0):
    """One command's spans; every duration is multiplied by `scale`."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    names = np.array(raw["names"], dtype=object)[np.asarray(raw["name"], dtype=np.int64)]
    start = np.asarray(raw["start"], dtype=np.float64)
    end = np.asarray(raw["end"], dtype=np.float64)
    parent = np.asarray(raw["parent"], dtype=np.int64)
    return Spans(names, start * scale, end * scale, parent, raw["counters"])


class Spans:
    """One traced command's spans with durations and self times."""

    def __init__(self, names, start, end, parent, counters):
        self.names = names
        self.duration = end - start
        self.parent = parent
        self.counters = counters
        has_parent = parent >= 0
        self.parent_names = np.where(has_parent, names[np.maximum(parent, 0)], "")
        child_time = np.zeros(len(names))
        np.add.at(child_time, parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child_time

    def where(self, name, parent=None):
        mask = self.names == name
        if parent is not None:
            mask &= self.parent_names == parent
        return mask

    def total(self, name, parent=None):
        return float(self.duration[self.where(name, parent)].sum())

    def mean(self, name, parent=None):
        picked = self.duration[self.where(name, parent)]
        return float(picked.mean()) if picked.size else 0.0

    def count(self, name, parent=None):
        return int(self.where(name, parent).sum())

    def layer_self(self, layer):
        mask = np.array([n.split(".", 1)[0] == layer for n in self.names], dtype=bool)
        return float(self.self_time[mask].sum())

    def top_level_time(self):
        return float(self.duration[self.parent < 0].sum())


def summarize(prepare, command, time_s):
    """Per-layer metrics: corpus set-up figures from `prepare`, the rest from `command`.

    `time_s` is the traced command's time as its parent measured it, in the
    scale its spans were loaded with; the part of it no top-level span
    covers (interpreter start, imports, writing the spans) is reported as
    trace.uncovered_s. Layers a workload never calls read 0.
    """
    batches = command.count("training.step")
    passes = command.count("evaluation.evaluate")
    adam_calls = command.count("tensorcore.adam")
    steps = command.duration[command.where("training.step")] * 1e3
    m = {
        "corpus.parse_s": (prepare.total("corpus.parse"), "s"),
        "corpus.split_s": (prepare.total("corpus.split"), "s"),
        "corpus.save_s": (prepare.total("corpus.save"), "s"),
        "corpus.bytes_written": (prepare.counters.get("corpus.bytes_written", 0), "B"),
        "corpus.load_s": (command.total("corpus.load"), "s"),
        "training.sampler_setup_s": (command.mean("training.sampler_setup"), "s"),
        "training.sampler_next_us": (command.mean("training.sampler_next") * 1e6, "us"),
        "training.batches": (batches, "count"),
        "training.loss_us": (command.total("training.loss") / max(batches, 1) * 1e6, "us"),
        "training.step_ms.p50": (float(np.percentile(steps, 50)) if batches else 0.0, "ms"),
        "training.step_ms.p99": (float(np.percentile(steps, 99)) if batches else 0.0, "ms"),
        "models.score_train_ms": (command.mean("models.score", "training.step") * 1e3, "ms"),
        "models.score_eval_us": (command.mean("models.score", "evaluation.evaluate") * 1e6, "us"),
        "evaluation.pass_s": (command.mean("evaluation.evaluate"), "s"),
        "evaluation.forwards_per_pass": (
            command.count("models.score", "evaluation.evaluate") / max(passes, 1), "count"),
        "tensorcore.backward_ms": (command.mean("tensorcore.backward") * 1e3, "ms"),
        "tensorcore.adam_ms": (command.mean("tensorcore.adam") * 1e3, "ms"),
        "tensorcore.adam_params_per_step": (
            command.counters.get("tensorcore.adam_params", 0) / max(adam_calls, 1), "count"),
    }
    for prim in PRIMITIVES:
        m[f"tensorcore.{prim}.calls"] = (command.count(f"tensorcore.{prim}"), "count")
        m[f"tensorcore.{prim}.fwd_s"] = (command.total(f"tensorcore.{prim}"), "s")
    m["tensorcore.checkpoint_save_s"] = (command.total("tensorcore.checkpoint_save"), "s")
    m["tensorcore.checkpoint_load_s"] = (command.total("tensorcore.checkpoint_load"), "s")
    m["tensorcore.checkpoint_bytes"] = (command.counters.get("tensorcore.checkpoint_bytes", 0), "B")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (command.layer_self(layer), "s")
    m["trace.uncovered_s"] = (time_s - command.top_level_time(), "s")
    m["trace.spans"] = (len(command.names), "count")
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
