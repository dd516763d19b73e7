"""Compare the stdout of ``certify``, ``check``, ``search``, ``verify``,
``scan`` and ``gen-weights`` between this checkout's ``src/`` and another's,
on a seeded corpus of weight sequences.

    python tests/compare_outputs.py OTHER_SRC

Each of 170 weight sequences drawn from a fixed seed (n = 2..9: a head
log-uniform in [0.5, 2] and a tail below, at, just above or well above the
critical weight W_{n-1}^2/S_{n-2}, or w_1 for n = 2) gives seventeen
commands: ``certify``; ``check``, whose stdout holds the Gao margins of
every sequence, not only where Holland fails; ``search`` at ``--trials 1``
and at the default trials for s in {-1, 0, 0.5, 2}, with the sequence's own
``--seed``; ``verify`` on one sample, log-uniform in [1e-3, 1e3] per entry
from a second seed, for s in {-1, 0, 1e-12, 0.5, 2}; ``scan`` of its head
over the tails from half to three times the critical weight; and
``gen-weights`` of its head.  Every command runs through
``mixedmeans.cli.run`` in one child process per checkout, the two side by
side.  The script prints how many of the commands differ in stdout or exit
code, then each that does, with its route (``certify``), verdict
(``check``, ``search``, ``verify``) or exit code on both sides and how many
ulp apart its value is (``numeric_max.value``, ``best_value`` or the
critical weight of ``gen-weights``).  It exits 0 whatever the count, and
fails only if a child does.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
WEIGHTS = 170
EXPONENTS = ("-1", "0", "0.5", "2")
VERIFY_EXPONENTS = ("-1", "0", "1e-12", "0.5", "2")
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
    rng, samples = np.random.default_rng(0), np.random.default_rng(1)
    commands = []
    for j in range(WEIGHTS):
        head = np.exp(rng.uniform(math.log(0.5), math.log(2.0), 1 + j % 8))
        W = np.cumsum(head)
        critical = W[-1] ** 2 / np.cumsum(W)[-2] if head.size > 1 else head[0]
        tail = critical * rng.uniform(*TAILS[j % len(TAILS)])
        path, x, h = (directory / f"{kind}{j}.json" for kind in "wxh")
        path.write_text(json.dumps({"w": [*head.tolist(), float(tail)]}))
        log_x = samples.uniform(-math.log(1e3), math.log(1e3), head.size + 1)
        x.write_text(json.dumps({"x": np.exp(log_x).tolist()}))
        h.write_text(json.dumps({"w": head.tolist()}))
        commands += [["certify", str(path)], ["check", str(path)]]
        for trials in ("1", "200"):
            for s in EXPONENTS:
                commands.append(
                    ["search", str(path), f"--s={s}", "--trials", trials, "--seed", str(j)]
                )
        commands += [["verify", str(path), str(x), f"--s={s}"] for s in VERIFY_EXPONENTS]
        commands.append(["scan", str(h), "--range", f"{critical / 2}:{critical * 3}"])
        commands.append(["gen-weights", str(h)])
    return commands


def outputs(src: Path, commands) -> list:
    """[exit code, stdout] of each command, run with ``src`` as the package."""
    child = subprocess.run(
        [sys.executable, "-c", CHILD], env=dict(os.environ, PYTHONPATH=str(src)),
        input=json.dumps(commands), capture_output=True, text=True, check=True,
    )
    return json.loads(child.stdout)


def _verdict(code: int, stdout: str):
    """The route or verdict of one output and its value (None if it has none)."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return f"exit {code}", None
    if isinstance(doc, float):  # gen-weights
        return f"exit {code}", doc
    if "gao" in doc:  # check
        return "holds" if code == 0 else "fails", None
    if "route" in doc:
        return doc["route"], (doc["numeric_max"] or {}).get("value")
    if "levels" in doc:
        return "violation" if code == 2 else "no violation", None
    return "violation" if doc["violation"] else "no violation", doc["best_value"]


def _ulps(a: float, b: float) -> int:
    """How many floats apart a and b are (the bits as ordered integers)."""
    keys = []
    for v in (a, b):
        bits = struct.unpack("<q", struct.pack("<d", v))[0]
        keys.append(bits if bits >= 0 else -(bits & (2**63 - 1)))
    return abs(keys[0] - keys[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path)
    other = parser.parse_args(argv).other_src.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        commands = corpus(Path(tmp))
        with ThreadPoolExecutor(2) as pool:
            mine, theirs = pool.map(outputs, (SRC, other), (commands, commands))
    differ = [
        (command, one, two) for command, one, two in zip(commands, mine, theirs) if one != two
    ]
    print(f"{len(differ)} of {len(commands)} stdouts differ")
    for command, one, two in differ:
        (route, value), (other, other_value) = _verdict(*one), _verdict(*two)
        apart = "no value" if None in (value, other_value) else f"{_ulps(value, other_value)} ulp"
        name = " ".join(Path(a).name if a.endswith(".json") else a for a in command)
        print(f"  {name}: {route} / {other}, {apart}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
