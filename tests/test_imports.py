"""`import evsikit` loads no scipy submodule that it does not run.

scipy.stats and scipy.interpolate each cost more to import than numpy,
scipy.special and scipy.linalg together, and the package calls scipy.special
directly where scipy.stats would call it.  The check runs in a fresh
interpreter, since this test session has imported scipy.stats already.
"""

import os
import subprocess
import sys

import evsikit


def test_import_loads_neither_scipy_stats_nor_scipy_interpolate():
    src = os.path.dirname(os.path.dirname(os.path.abspath(evsikit.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, evsikit, evsikit.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.split()
    assert "evsikit.cli" in out
    loaded = [m for m in out if m.split(".")[:2] in (["scipy", "stats"], ["scipy", "interpolate"])]
    assert loaded == []
