"""Compare the stdout of ``certify`` and ``search`` between this checkout's
``src/`` and another's, on a seeded corpus of weight sequences.

    python tests/compare_outputs.py OTHER_SRC

Each of 170 weight sequences drawn from a fixed seed (n = 2..9: a head
log-uniform in [0.5, 2] and a tail below, at, just above or well above the
critical weight W_{n-1}^2/S_{n-2}, or w_1 for n = 2) gives nine commands:
``certify``, and ``search`` at ``--trials 1`` and at the default trials for
s in {-1, 0, 0.5, 2}, with the sequence's own ``--seed``.  Every command
runs through ``mixedmeans.cli.run`` in one child process per checkout, the
two side by side.  The script prints how many of the commands differ in stdout or exit
code, then each that does.  It exits 0 whatever the count, and fails only
if a child does.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
WEIGHTS = 170
EXPONENTS = ("-1", "0", "0.5", "2")
TAILS = ((0.3, 0.9), (1.0, 1.0), (1.0 + 1e-6, 1.0 + 1e-4), (1.0, 1.6), (2.0, 3.0))

# Reads a JSON list of argument lists on stdin, runs each through cli.run,
# and writes a JSON list of [exit code, stdout].
CHILD = """
import contextlib, io, json, sys
from mixedmeans.cli import run
out = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    out.append([code, buf.getvalue()])
json.dump(out, sys.stdout)
"""


def corpus(directory: Path) -> list[list[str]]:
    """The commands on ``WEIGHTS`` weight files written to ``directory``."""
    rng = np.random.default_rng(0)
    commands = []
    for j in range(WEIGHTS):
        head = np.exp(rng.uniform(math.log(0.5), math.log(2.0), 1 + j % 8))
        W = np.cumsum(head)
        critical = W[-1] ** 2 / np.cumsum(W)[-2] if head.size > 1 else head[0]
        tail = critical * rng.uniform(*TAILS[j % len(TAILS)])
        path = directory / f"w{j}.json"
        path.write_text(json.dumps({"w": [*head.tolist(), float(tail)]}))
        commands.append(["certify", str(path)])
        for trials in ("1", "200"):
            for s in EXPONENTS:
                commands.append(
                    ["search", str(path), f"--s={s}", "--trials", trials, "--seed", str(j)]
                )
    return commands


def outputs(src: Path, commands) -> list:
    """[exit code, stdout] of each command, run with ``src`` as the package."""
    child = subprocess.run(
        [sys.executable, "-c", CHILD], env=dict(os.environ, PYTHONPATH=str(src)),
        input=json.dumps(commands), capture_output=True, text=True, check=True,
    )
    return json.loads(child.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path)
    other = parser.parse_args(argv).other_src.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        commands = corpus(Path(tmp))
        with ThreadPoolExecutor(2) as pool:
            mine, theirs = pool.map(outputs, (SRC, other), (commands, commands))
    differ = [
        " ".join(Path(a).name if a.endswith(".json") else a for a in command)
        for command, one, two in zip(commands, mine, theirs)
        if one != two
    ]
    print(f"{len(differ)} of {len(commands)} stdouts differ")
    for command in differ:
        print(f"  {command}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
