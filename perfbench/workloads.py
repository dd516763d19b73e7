"""The three workloads: their inputs, how one operation runs and how its
output is checked.  ``WORKLOADS`` is the registry every other file takes
the workload names from.

An operation either delivers a verdict or fails.  It fails with an
"error" when it raises (``MemoryError`` included) or exits with a code the
contract gives to bad input, and it is "wrong" when its output does not
pass its check; both count as failed, and a wrong output also makes the
run incorrect.  Checks run after the timed loop.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

import corpus
import reference

OK, ERROR, WRONG = "ok", "error", "wrong"


@dataclass
class Outcome:
    start: float
    latency_s: float
    value: object = None
    error: str | None = None


def timed(clock, fn, *args) -> Outcome:
    start = clock()
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - any exception fails the operation, not the run
        return Outcome(start, clock() - start, error=f"{type(exc).__name__}: {exc}"[:200])
    return Outcome(start, clock() - start, value)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def _load(path, key):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)[key]


class _Workload:
    """What a workload owns besides running and checking operations: the
    number of distinct passes its inputs hold, enough that a run at the
    seed commit does not repeat one (a faster program cycles through them
    again); the percentile ``op_tail_ms`` reports; and ``make_pass``, which
    generates one pass of operations and writes their input files with
    ``dump(i, kind, obj)``.

    The tail's rule is the highest whole percentile that leaves at least ten
    operations above it (``stats.highest_tail_percentile``).  The fixed
    percentiles are what that rule gives in the shortest 30-second runs
    seen at the seed commit on a 2-core host (84 operations on certify-mix,
    56 on search, 160 on points), so that every run keeps ten operations
    above them; on certify-mix that also stays below the failed operations
    (7% of them), which count as +inf.
    """

    PASSES: int
    TAIL_PERCENTILE: int

    def label(self, value):
        """What a successful operation delivered, for the run's counts of
        outcomes (None for nothing worth counting)."""
        return None


class _CliWorkload(_Workload):
    """Operations are ``mixedmeans.cli.run(argv)`` calls with stdout and
    stderr captured; the value is (exit code, stdout, stderr)."""

    def __init__(self, manifest, mm):
        self.passes = manifest["passes"]
        self._cli = mm.cli
        self._weights = {}

    def execute(self, op, clock) -> Outcome:
        return timed(clock, self._call, op["argv"])

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self._cli.run(argv)  # looked up per call, so tracing sees it
        return code, out.getvalue(), err.getvalue()

    def weights(self, op):
        if op["w"] not in self._weights:
            self._weights[op["w"]] = _load(op["w"], "w")
        return self._weights[op["w"]]

    def check(self, op, value):
        """(status, reason) for one operation's value."""
        code, out, err = value
        if code not in (0, 2):
            return ERROR, f"exit {code}: {err.strip()[:160]}"
        try:
            doc = strict_json(out)
            reason = self.check_output(self.weights(op), code, doc)
        except ValueError as exc:
            reason = f"stdout is not strict JSON: {exc}"
        except (KeyError, IndexError, TypeError) as exc:
            reason = f"unexpected output shape: {exc!r}"
        return (WRONG, reason) if reason else (OK, "")


class CertifyMix(_CliWorkload):
    PASSES = 16
    TAIL_PERCENTILE = 89

    @staticmethod
    def make_pass(rng, index, dump):
        ops = []
        for i, w in enumerate(corpus.certify_pass(rng)):
            path = dump(i, "w", {"w": w})
            ops.append({"w": path, "argv": ["certify", path]})
        return ops

    def label(self, value):
        code, out, _ = value
        return f"route {strict_json(out)['route']} (exit {code})"

    def check_output(self, w, code, doc):
        route = doc["route"]
        if code != (2 if route == "refuted-numeric" else 0):
            return f"exit {code} does not match route {route!r}"
        reports = doc["reports"]
        margin, size = reference.holland_margin(w)
        if not reference.close(reports[0]["margins"][0]["value"], margin, size):
            return "Holland margin differs from the reference"
        if route == "holland":
            return None if margin >= 0 else "route holland but the Holland margin is negative"
        if margin >= 0:
            return f"route {route!r} although Holland holds"
        *gao, slack = reference.gao_margins(w)
        for got, want in zip((m["value"] for m in reports[1]["margins"]), gao):
            if not reference.close(got, want, 1.0):
                return "Gao margins differ from the reference"
        gao_holds = min(gao) > 0
        if route == "gao":
            if not gao_holds:
                return "route gao but a Gao margin is not positive"
            return None if reference.close(doc["slack"], slack, 1.0) else "Gao slack differs"
        if gao_holds:
            return f"route {route!r} although Gao holds"
        if route not in ("numeric-only", "refuted-numeric"):
            return f"unknown route {route!r}"
        found = doc["numeric_max"]["value"]
        value = reference.objective_F(w, doc["numeric_max"]["argmax"])
        if not reference.close(found, value, 1.0):
            return "numeric maximum does not re-evaluate at its argmax"
        if not reference.close(doc["slack"], 1.0 - found, 1.0):
            return "numeric slack is not 1 - maximum"
        if route == "refuted-numeric" and not value > 1.0:
            return "refuted, but F at the argmax is not above 1"
        if route == "numeric-only" and value > 1.0 + 1e-9:
            return "F above 1 at the argmax, but not refuted"
        return None


class Search(_CliWorkload):
    PASSES = 16
    TAIL_PERCENTILE = 83
    TRIALS = 1

    @classmethod
    def make_pass(cls, rng, index, dump):
        ops = []
        for i, (w, search_seed) in enumerate(corpus.search_pass(rng, index)):
            path = dump(i, "w", {"w": w})
            ops.append({"w": path, "argv": [
                "search", path, "--trials", str(cls.TRIALS), "--seed", str(search_seed)]})
        return ops

    def label(self, value):
        code, out, _ = value
        if strict_json(out)["violation"]:
            return f"violation confirmed at 50 digits (exit {code})"
        return f"no violation (exit {code})"

    def check_output(self, w, code, doc):
        violation = doc["violation"]
        if code != (2 if violation else 0):
            return f"exit {code} does not match violation={violation}"
        if doc["trials_run"] != self.TRIALS:
            return f"trials_run {doc['trials_run']} != {self.TRIALS}"
        x = doc["best_point"]
        if len(x) != len(w) or not all(math.isfinite(v) and v > 0 for v in x):
            return "best point is not positive data of length n"
        if not violation:
            return None
        if reference.holland_margin(w)[0] >= 0 or reference.gao_holds(w):
            return "violation reported for weights that satisfy Holland or Gao"
        if not reference.rado_increment_mp(w, x, 0.0, len(w)) < 0:
            return "violation not confirmed by the 50-digit increment"
        return None


class Points(_Workload):
    """One data point per operation through the library: Rado increments
    at every level for one exponent s, Popoviciu increments at every level,
    the product form, and the coordinate round trip."""

    PASSES = 20
    TAIL_PERCENTILE = 94

    @staticmethod
    def make_pass(rng, index, dump):
        return [
            {"w": dump(i, "w", {"w": w}), "x": dump(i, "x", {"x": x}), "s": s}
            for i, (w, x, s) in enumerate(corpus.points_pass(rng, index))
        ]

    def __init__(self, manifest, mm):
        self.passes = manifest["passes"]
        self._mm = mm
        self._data = {}
        for ops in self.passes:
            for op in ops:
                w, x = _load(op["w"], "w"), np.asarray(_load(op["x"], "x"))
                scale = float(np.dot(w, x) / np.sum(w))  # A_n, the last running mean
                self._data[op["w"]] = (w, x, scale)

    def execute(self, op, clock) -> Outcome:
        return timed(clock, self._call, *self._data[op["w"]], op["s"])

    def _call(self, w_list, x, scale, s):
        mm = self._mm  # functions looked up per call, so tracing sees them
        w = mm.WeightSequence(w_list)
        levels = range(2, w.n + 1)
        rado = [mm.rado_increment(w, x, s, k) for k in levels]
        popoviciu = [mm.popoviciu_increment(w, x, k) for k in levels]
        lhs = mm.product_form_lhs(w, x)
        back = mm.y_to_x(w, mm.x_to_y(w, x), scale)
        return rado, popoviciu, lhs, back.tolist()

    def check(self, op, value):
        w_list, x, _ = self._data[op["w"]]
        rado, popoviciu, lhs, back = value
        if not all(math.isfinite(v) for v in (*rado, *popoviciu, lhs, *back)):
            return WRONG, "non-finite output"
        size = float(np.sum(w_list)) * max(1.0, float(np.max(x)))
        if np.max(np.abs(np.subtract(rado, reference.rado_increments(w_list, x, op["s"])))) > 1e-9 * size:
            return WRONG, "Rado increments differ from the reference"
        if np.max(np.abs(np.subtract(popoviciu, reference.popoviciu_increments(w_list, x)))) > 1e-9 * size:
            return WRONG, "Popoviciu increments differ from the reference"
        if not np.allclose(back, x, rtol=1e-12, atol=0.0):
            return WRONG, "x_to_y -> y_to_x round trip off by more than 1e-12"
        w = self._mm.WeightSequence(w_list)
        increment = self._mm.rado_increment(w, x, 0.0, w.n)
        if (lhs <= 1.0) != (increment >= -self._mm.violation_tolerance(w, x)):
            return WRONG, "product form and level-n increment disagree"
        return OK, ""


WORKLOADS = {"certify-mix": CertifyMix, "search": Search, "points": Points}


def write_inputs(name, seed, directory):
    """Generate the workload's inputs under ``directory``: every operation's
    own files in the command-line formats ({"w": [...]}, {"x": [...]}),
    which are all the program receives, plus ``manifest.json``.  Returns a
    digest of everything written."""
    cls = WORKLOADS[name]
    rng = np.random.Generator(np.random.PCG64([seed, list(WORKLOADS).index(name)]))
    os.makedirs(directory, exist_ok=True)
    digest = hashlib.sha256()

    def write(file_name, obj):
        path = os.path.join(directory, file_name)
        text = json.dumps(obj)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        digest.update(text.encode())
        return path

    passes = []
    for j in range(cls.PASSES):
        ops = cls.make_pass(rng, j, lambda i, kind, obj: write(f"p{j:02d}-{i:02d}-{kind}.json", obj))
        order = rng.permutation(len(ops))
        passes.append([ops[k] for k in order])
    write("manifest.json", {"workload": name, "seed": seed, "passes": passes})
    return digest.hexdigest()


def load(directory, mm):
    """The workload whose inputs ``write_inputs`` wrote to ``directory``."""
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return WORKLOADS[manifest["workload"]](manifest, mm)


def run_passes(workload, seconds=None, passes=None, tracer=None):
    """Closed loop with one caller: whole passes in order, cycling, until
    ``seconds`` have passed (at least one pass) or ``passes`` are done.
    Returns the records [(pass, index, Outcome)], the wall time and the
    passes run."""
    clock = time.perf_counter
    records = []
    done = 0
    start = clock()
    while True:
        if passes is not None:
            if done == passes:
                break
        elif done and clock() - start >= seconds:
            break
        p = done % len(workload.passes)
        for i, op in enumerate(workload.passes[p]):
            if tracer is not None:
                tracer.op = len(records)
            records.append((p, i, workload.execute(op, clock)))
        done += 1
    return records, clock() - start, done


def classify(workload, records):
    """(status, reason) for every record.  A repeated input must give the
    same value as its first run; its check is not repeated."""
    first = {}
    out = []
    for p, i, outcome in records:
        if outcome.error is not None:
            out.append((ERROR, outcome.error))
            continue
        seen = first.get((p, i))
        if seen is None:
            status = workload.check(workload.passes[p][i], outcome.value)
            first[(p, i)] = (outcome.value, status)
        elif seen[0] != outcome.value:
            status = (WRONG, "output differs from an earlier run of the same input")
        else:
            status = seen[1]
        out.append(status)
    return out


def labels(workload, records, status):
    """What each operation delivered: the workload's label for a successful
    one (None when there is nothing to tell), the status for a failed one."""
    return [workload.label(outcome.value) if state == OK else state
            for (_, _, outcome), (state, _) in zip(records, status)]
