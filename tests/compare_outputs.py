"""Compare the stdout of ``certify``, ``check``, ``search``, ``verify``,
``means``, ``scan`` and ``gen-weights`` between this checkout's ``src/`` and
another's, on a seeded corpus of weight sequences.

    python tests/compare_outputs.py OTHER_SRC

Each of 170 weight sequences drawn from a fixed seed (n = 2..9: a head
log-uniform in [0.5, 2] and a tail below, at, just above or well above the
critical weight W_{n-1}^2/S_{n-2}, or w_1 for n = 2) gives 26 commands:
``certify``; ``check``, whose stdout holds the Gao margins of every
sequence, not only where Holland fails; ``search`` at ``--trials`` 1, 8
(the most trials that walk alone at s = 0) and 200, the default, for s in
{-1, 0, 0.5, 2}, with the sequence's own ``--seed``; ``verify`` on one
sample, log-uniform in [1e-3, 1e3] per entry from a second seed, for s in
{-1, 0, 1e-12, 0.5, 2, 1e-300, 5e-324}; ``scan`` of its head over the tails
from half to three times the critical weight; ``gen-weights`` of its head;
and ``means`` on the same sample at (r, s) = (1, 0), (1, 1e-12) and
(1, 5e-324).  Then 35 ``certify`` commands near w*, the
least tail at which the maximum of F exceeds 1 + 1e-9: seven heads of
5..11 entries (n = 6..12) log-uniform in [0.5, 2], each with the tails
w* (1 + delta) for delta in {-1e-3, 1e-7, 1e-5, 1e-3, 1e-2}.  w* comes
from bisection on this checkout's ``curve_max_F`` in a child process, so
both sides run the same files.  Then 20 ``certify`` commands at n = 6..10
whose maximum of F lies at a root of the curve, not at an end point of the
box (``sampling.interior_maximum_weights``: heads log-uniform in [0.05,
20], tails 1-3 critical weights, from ``default_rng(7)``); the commands
above never reach one at n >= 6.  That makes 4475 commands.  Every command
runs through ``mixedmeans.cli.run`` in one child process per checkout, the
two side by side.  The script prints how many of the commands differ in
stdout or exit code, then each that does, with its route (``certify``),
verdict (``check``, ``search``, ``verify``) or exit code on both sides and
how many ulp apart its value is (``numeric_max.value``, ``best_value``, the
critical weight of ``gen-weights``, or the number of ``verify`` or ``means``
furthest apart).  It exits 0 whatever the count, and fails only if a child
does.
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

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
WEIGHTS = 170
INTERIOR = 20
EXPONENTS = ("-1", "0", "0.5", "2")
VERIFY_EXPONENTS = ("-1", "0", "1e-12", "0.5", "2", "1e-300", "5e-324")
MEANS_EXPONENTS = ("0", "1e-12", "5e-324")  # s, at r = 1
TAILS = ((0.3, 0.9), (1.0, 1.0), (1.0 + 1e-6, 1.0 + 1e-4), (1.0, 1.6), (2.0, 3.0))
NEAR_W_STAR = (-1e-3, 1e-7, 1e-5, 1e-3, 1e-2)

# Reads a JSON list of heads on stdin and writes a JSON list of their w*:
# the upper end of a bisection bracket, from the critical weight up.
W_STAR = """
import json, sys
from mixedmeans import WeightSequence, critical_weight, curve_max_F
def refuted(head, tail):
    return curve_max_F(WeightSequence(head + [tail])).best_value > 1.0 + 1e-9
out = []
for head in json.load(sys.stdin):
    lo = critical_weight(head)
    hi = 2.0 * lo
    while not refuted(head, hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if refuted(head, mid) else (mid, hi)
    out.append(hi)
json.dump(out, sys.stdout)
"""

# Reads a count on stdin and writes a JSON list of that many weight
# sequences with their maximum of F at a root of the curve.
INTERIOR_MAXIMA = """
import json, sys
from sampling import interior_maximum_weights
json.dump([w.w.tolist() for w in interior_maximum_weights(json.load(sys.stdin))], sys.stdout)
"""

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
        for trials in ("1", "8", "200"):
            for s in EXPONENTS:
                commands.append(
                    ["search", str(path), f"--s={s}", "--trials", trials, "--seed", str(j)]
                )
        commands += [["verify", str(path), str(x), f"--s={s}"] for s in VERIFY_EXPONENTS]
        commands.append(["scan", str(h), "--range", f"{critical / 2}:{critical * 3}"])
        commands.append(["gen-weights", str(h)])
        commands += [["means", str(path), str(x), "--r=1", f"--s={s}"] for s in MEANS_EXPONENTS]
    rng = np.random.default_rng(5)
    heads = [np.exp(rng.uniform(math.log(0.5), math.log(2.0), 5 + j)).tolist() for j in range(7)]
    for j, (head, w_star) in enumerate(zip(heads, _child(SRC, W_STAR, heads))):
        for k, delta in enumerate(NEAR_W_STAR):
            path = directory / f"near{j}-{k}.json"
            path.write_text(json.dumps({"w": [*head, w_star * (1.0 + delta)]}))
            commands.append(["certify", str(path)])
    for j, w in enumerate(_child(SRC, INTERIOR_MAXIMA, INTERIOR)):
        path = directory / f"interior{j}.json"
        path.write_text(json.dumps({"w": w}))
        commands.append(["certify", str(path)])
    return commands


def _child(src: Path, script: str, payload):
    """The JSON that ``script`` writes, given ``payload`` as JSON on stdin,
    run with ``src`` as the package and this checkout's test helpers."""
    path = os.pathsep.join((str(src), str(TESTS)))
    child = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
        input=json.dumps(payload), capture_output=True, text=True, check=True,
    )
    return json.loads(child.stdout)


def outputs(src: Path, commands) -> list:
    """[exit code, stdout] of each command, run with ``src`` as the package."""
    return _child(src, CHILD, commands)


def _verdict(code: int, stdout: str):
    """The route or verdict of one output and its values (None if it has none)."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return f"exit {code}", None
    if isinstance(doc, float):  # gen-weights
        return f"exit {code}", [doc]
    if "gao" in doc:  # check
        return "holds" if code == 0 else "fails", None
    if "route" in doc:
        value = (doc["numeric_max"] or {}).get("value")
        return doc["route"], None if value is None else [value]
    if "levels" in doc:
        values = [v for level in doc["levels"] for k, v in level.items() if k != "k"]
        return "violation" if code == 2 else "no violation", values
    if "mixed_s_of_r" in doc:  # means
        values = doc["partial_means_r"] + doc["partial_means_s"]
        return f"exit {code}", values + [doc["mixed_s_of_r"], doc["mixed_r_of_s"]]
    return "violation" if doc["violation"] else "no violation", [doc["best_value"]]


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
        if None in (value, other_value) or len(value) != len(other_value):
            apart = "no value"
        else:
            apart = f"{max(map(_ulps, value, other_value))} ulp"
        name = " ".join(Path(a).name if a.endswith(".json") else a for a in command)
        print(f"  {name}: {route} / {other}, {apart}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
