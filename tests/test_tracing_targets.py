"""The benchmark's tracer must find every name it wraps.

``perfbench/tracing.py`` wraps package functions and methods in place and
raises ``LookupError`` for a name that was renamed, moved or is only
inherited. This runs that installation in a fresh interpreter, so a rename
that would break ``perfbench/run.py --trace 1`` fails here in seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_every_target():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    code = ("import tracing\n"
            "tracing.install(tracing.Tracer())\n"
            "print(len(tracing.TARGETS))\n")
    result = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 0
