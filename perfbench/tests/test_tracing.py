"""Span recording across forked workers, and the self-time arithmetic."""

import json
import os

import tracing


def span(span_id, name, start, end, parent=None, pid=1, **extra):
    return {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "pid": pid, **extra}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("1:1", "cli.main", 0.0, 10.0),
        span("2:1", "features.feature_vector", 1.0, 4.0, "1:1", pid=2),  # worker
        span("3:1", "features.feature_vector", 2.0, 6.0, "1:1", pid=3),  # worker, overlapping
        span("1:2", "embeddings.write_embeddings", 8.0, 9.0, "1:1"),
        span("2:2", "features.rfft", 1.5, 2.5, "2:1", pid=2),
    ]
    own = tracing.self_times(spans)
    assert own["1:1"] == 10.0 - (5.0 + 1.0)
    assert own["2:1"] == 3.0 - 1.0
    assert own["3:1"] == 4.0


def test_layer_metrics_from_span_files(tmp_path):
    spans = [
        span("1:1", "cli.main", 0.0, 10.0),
        span("1:2", "probe.grid_search", 0.5, 9.5, "1:1"),
        span("2:1", "probe.train", 1.0, 5.0, "1:2", pid=2, n=12, key="A"),
        span("2:2", "probe.batch_loss", 1.0, 2.0, "2:1", pid=2),
        span("3:1", "probe.train", 1.0, 6.0, "1:2", pid=3, n=20, key="B"),
        span("1:3", "probe.train", 7.0, 9.0, "1:2", n=20, key="B"),  # the winner, retrained
    ]
    (tmp_path / "spans-1.jsonl").write_text("".join(json.dumps(s) + "\n" for s in spans))
    m = tracing.layer_metrics([tmp_path])
    assert m["probe.train_calls"] == 3
    assert m["probe.train_s"] == 4.0 + 5.0 + 2.0
    assert m["probe.train_self_s"] == 3.0 + 5.0 + 2.0
    assert m["probe.train_useful_ratio"] == 2 / 3
    assert m["probe.epochs"] == 52
    assert m["probe.steps"] == 1
    assert m["features.ms_per_clip"] == 0.0
    assert m["cli.main_self_s"] == 1.0
    assert set(m) == {name for name, _, _ in tracing.LAYER_METRICS}


def test_forked_worker_writes_its_spans_without_exiting(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    work = tracer.wrap("synth.write_wav", lambda n: b"x" * n)

    def outer():
        work(3)  # finished in the parent before the fork: the parent's to write
        pid = os.fork()
        if pid == 0:
            work(5)
            os._exit(0)  # like a terminated pool worker: no exit hooks run
        os.waitpid(pid, 0)
        return pid

    child = tracer.call("cli.main", outer, (), {})
    spans = tracing.load_spans(tmp_path)
    parent_main = next(s for s in spans if s["name"] == "cli.main")
    worker = [s for s in spans if s["pid"] == child]
    assert [s["n"] for s in worker] == [5]
    assert worker[0]["parent"] == parent_main["id"]
    assert sorted(s["n"] for s in spans if s["name"] == "synth.write_wav") == [3, 5]
