"""Smoke test: the benchmark's trace hooks still find every layer they wrap.

`perfbench/tracing.py` replaces module globals by name, and `install()`
fails when one of them is gone. This runs `perfbench/traced_cli.py` over a
tiny pipeline (generate, extract, lm-default probe, report) for a tonal and a
rhythmic concept, and checks that the span files name every wrapped layer.
`features.fft` is wrapped but has no caller in the pipeline.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# (concept, --subsample): 20 chords clips, 24 time-signature clips with reverb
INPUTS = [("chords", "0.0015"), ("time_signatures", "0.02")]


def _wrapped_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {name for _, _, name in tracing.WRAPPED}


def test_traced_pipeline_spans_name_every_wrapped_layer(tmp_path):
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PERFBENCH_TRACE_DIR=str(trace_dir))
    data, results = tmp_path / "data", tmp_path / "results"
    results.mkdir()
    commands = []
    for concept, subsample in INPUTS:
        emb = tmp_path / f"{concept}_aggregate.emb"
        commands += [
            ["generate", "--concept", concept, "--out", str(data), "--seed", "11", "--subsample", subsample,
             "--workers", "2"],
            ["extract", "--concept", concept, "--data", str(data), "--feature", "aggregate", "--out", str(emb),
             "--workers", "2"],
            ["probe", "--concept", concept, "--data", str(data), "--embeddings", str(emb), "--preset",
             "lm-default", "--seed", "11", "--out", str(results / f"{concept}_aggregate.csv"), "--workers", "2"],
        ]
    commands.append(["report", "--results", str(results), "--out", str(tmp_path / "table.md")])
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "traced_cli.py"), *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, f"{argv[0]}: {proc.stderr}"
    names = set()
    for spans in trace_dir.glob("spans-*.jsonl"):
        names.update(json.loads(line)["name"] for line in spans.read_text().splitlines())
    assert names == (_wrapped_names() - {"features.fft"}) | {"cli.main"}
