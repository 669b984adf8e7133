"""Smoke test: the narrative demos run clean from an empty working directory.

Demo 04 (a full probing run of about 15 s) is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo", ["01_theory_basics", "02_render_a_progression", "03_spectral_features", "05_external_embeddings"]
)
def test_demo_runs(tmp_path, demo):
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the demos call cli.main, which reports a failure on stderr and returns 1
    assert "error:" not in proc.stderr, proc.stderr
