"""The traced benchmark run (perfbench/run.py --trace 1) wraps psirh's layer
boundaries by module attribute name; renaming or deleting one of them must
fail here rather than first in a traced run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_span_install_resolves_every_layer():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import spans; spans.install(spans.Recorder())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
