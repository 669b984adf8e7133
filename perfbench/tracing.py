"""Spans around the earbench layers, recorded from outside the package.

`install(trace_dir)` replaces public functions with wrappers at the place
where the calling code looks them up (for example `cli.feature_vector`, which
`cli` imported by name, but `features.rfft`, which `features` calls through
its module globals). Each call becomes one span: name, start, end, parent span
id and pid, plus an optional number (bytes written, epochs run) and key.

Pool workers are forked and later terminated, so they never run exit hooks.
Each process therefore appends its spans to `spans-<pid>.jsonl` whenever a
call that has no open ancestor in the same process ends. A forked worker
inherits the parent's open span stack, which makes the parent's span the
cross-process parent of the worker's top-level spans.

`layer_metrics(trace_dirs)` turns span files back into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

# (module, attribute, span name): the attribute is looked up on that module
# by the code that calls it, so patching it there catches every call.
WRAPPED = [
    ("cli", "feature_vector", "features.feature_vector"),
    ("cli", "write_embeddings_file", "embeddings.write_embeddings"),
    ("cli", "read_embeddings_file", "embeddings.read_embeddings"),
    ("cli", "ingest_embeddings", "embeddings.ingest_embeddings"),
    ("datasets", "build_records", "datasets.build_records"),
    ("datasets", "make_split", "datasets.make_split"),
    ("midi", "encode_smf", "midi.encode_smf"),
    ("synth", "render", "synth.render"),
    ("synth", "render_clicks", "synth.render_clicks"),
    ("synth", "apply_reverb", "synth.apply_reverb"),
    ("synth", "write_wav", "synth.write_wav"),
    ("synth", "read_wav", "synth.read_wav"),
    ("features", "rfft", "features.rfft"),
    ("features", "fft", "features.fft"),
    ("features", "aggregate", "features.aggregate"),
    ("probe", "grid_search", "probe.grid_search"),
    ("probe", "train", "probe.train"),
    ("probe", "batch_loss", "probe.batch_loss"),
    ("probe", "normalize_fit", "probe.normalize"),
    ("probe", "normalize_apply", "probe.normalize"),
    ("report", "build_table", "report.build_table"),
]


def _train_note(args, kwargs, result):
    """(epochs run, distinct-config key) of one probe.train call."""
    spec = args[0] if args else kwargs["spec"]
    seed = args[3] if len(args) > 3 else kwargs["seed"]
    return result[1].epochs_run, f"{spec!r}/{seed}"


NOTES = {
    "synth.write_wav": lambda args, kwargs, result: (len(result), None),
    "probe.train": _train_note,
}


class Tracer:
    def __init__(self, trace_dir):
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.counter = 0
        self.stack: list[str] = []  # open span ids, outermost first
        self.local_depth = 0  # open spans that belong to this process
        self.done: list[dict] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # the inherited stack now names spans of another process; the
        # inherited buffer is the parent's to write
        self.pid = os.getpid()
        self.local_depth = 0
        self.done = []

    def call(self, name, fn, args, kwargs):
        self.counter += 1
        span_id = f"{self.pid}:{self.counter}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        self.local_depth += 1
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.local_depth -= 1
            span = {"name": name, "start": start, "end": end, "parent": parent, "pid": self.pid, "id": span_id}
            note = NOTES.get(name)
            if note is not None and result is not None:
                span["n"], span["key"] = note(args, kwargs, result)
            self.done.append(span)
            if self.local_depth == 0:
                self.flush()

    def flush(self):
        if not self.done:
            return
        lines = "".join(json.dumps(s, separators=(",", ":")) + "\n" for s in self.done)
        with open(self.trace_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(lines)
        self.done = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced


def install(trace_dir) -> Tracer:
    """Wrap every layer in WRAPPED; returns the tracer for the caller's own spans."""
    import importlib

    tracer = Tracer(trace_dir)
    for module_name, attr, name in WRAPPED:
        module = importlib.import_module(f"earbench.{module_name}")
        setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
    return tracer


# ---------------------------------------------------------------------------
# analysis


def load_spans(trace_dir) -> list[dict]:
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """span id -> duration minus the time its direct children cover.

    Children may run in other processes (pool workers) and overlap each
    other, so their cover is the union of their intervals.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _union_length(children.get(s["id"], []))
        for s in spans
    }


# name, unit, better: the per-layer metrics, in report order
LAYER_METRICS = [
    ("datasets.build_records_s", "s", "lower"),
    ("datasets.make_split_s", "s", "lower"),
    ("midi.encode_smf_s", "s", "lower"),
    ("midi.encode_smf_calls", "count", "lower"),
    ("synth.render_s", "s", "lower"),
    ("synth.render_calls", "count", "lower"),
    ("synth.render_clicks_s", "s", "lower"),
    ("synth.apply_reverb_s", "s", "lower"),
    ("synth.write_wav_s", "s", "lower"),
    ("synth.write_wav_bytes", "bytes", "lower"),
    ("synth.read_wav_s", "s", "lower"),
    ("features.feature_vector_s", "s", "lower"),
    ("features.feature_vector_calls", "count", "lower"),
    ("features.rfft_s", "s", "lower"),
    ("features.rfft_calls", "count", "lower"),
    ("features.fft_s", "s", "lower"),
    ("features.aggregate_s", "s", "lower"),
    ("features.ms_per_clip", "ms", "lower"),
    ("embeddings.write_embeddings_s", "s", "lower"),
    ("embeddings.read_embeddings_s", "s", "lower"),
    ("embeddings.ingest_embeddings_s", "s", "lower"),
    ("probe.grid_search_s", "s", "lower"),
    ("probe.train_s", "s", "lower"),
    ("probe.train_calls", "count", "lower"),
    ("probe.normalize_s", "s", "lower"),
    ("probe.train_useful_ratio", "ratio", "higher"),
    ("probe.train_self_s", "s", "lower"),
    ("probe.batch_loss_s", "s", "lower"),
    ("probe.steps", "count", "lower"),
    ("probe.epochs", "count", "lower"),
    ("report.build_table_s", "s", "lower"),
    ("cli.main_self_s", "s", "lower"),
]


def layer_metrics(trace_dirs) -> dict[str, float]:
    """Per-layer metrics over the commands whose span directories are given.

    Times are summed over every process a layer ran in, so with pool workers
    they are busy time, not wall time.
    """
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    noted: dict[str, int] = {}
    train_self = main_self = 0.0
    distinct_configs = 0
    for trace_dir in trace_dirs:
        spans = load_spans(trace_dir)
        own = self_times(spans)
        keys = set()
        for s in spans:
            name = s["name"]
            busy[name] = busy.get(name, 0.0) + (s["end"] - s["start"])
            calls[name] = calls.get(name, 0) + 1
            noted[name] = noted.get(name, 0) + s.get("n", 0)
            if name == "probe.train":
                train_self += own[s["id"]]
                keys.add(s.get("key"))
            elif name == "cli.main":
                main_self += own[s["id"]]
        distinct_configs += len(keys)
    out = {}
    for metric, _, _ in LAYER_METRICS:
        layer, _, stat = metric.rpartition("_")
        if stat == "s":
            out[metric] = busy.get(layer, 0.0)
        elif stat == "calls":
            out[metric] = calls.get(layer, 0)
    trainings = calls.get("probe.train", 0)
    clips = calls.get("features.feature_vector", 0)
    out.update(
        {
            "synth.write_wav_bytes": noted.get("synth.write_wav", 0),
            "features.ms_per_clip": 1000.0 * busy.get("features.feature_vector", 0.0) / clips if clips else 0.0,
            "probe.train_useful_ratio": distinct_configs / trainings if trainings else 0.0,
            "probe.train_self_s": train_self,
            "probe.steps": calls.get("probe.batch_loss", 0),
            "probe.epochs": noted.get("probe.train", 0),
            "cli.main_self_s": main_self,
        }
    )
    return out
