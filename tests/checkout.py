"""Child processes that import the package from this checkout."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(args, **kwargs) -> subprocess.CompletedProcess:
    """``python *args`` in a child process with this checkout's ``src/``
    first on its PYTHONPATH, so it runs the code under test whether or not
    the package is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *args], env=env, **kwargs)
