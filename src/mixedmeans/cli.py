"""Command-line front end.

Subcommands mirror the library: ``means``, ``check``, ``certify``,
``verify``, ``search``, ``scan``, ``gen-weights``.  Inputs are tiny JSON
files ({"w": [...]} for weights and heads, {"x": [...]} for samples);
outputs are JSON on stdout (floats at full round-trip precision) except
``scan``, which emits CSV, and ``gen-weights``, which prints one number.
A command line is a subcommand's name and then its arguments, which that
subcommand's own parser reads (``mixedmeans SUBCOMMAND -h`` lists them).

Exit codes: 0 success / condition holds, 2 condition fails or violation
found, 1 usage or input error (one-line diagnostic on stderr).
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys

import numpy as np

from .conditions import (
    NotApplicableError,
    critical_weight,
    gao_conditions,
    holland_condition,
    nanjundiah_condition,
)
from .functionals import _confirmed_violation, _popoviciu_profile, _rado_increments
from .means import (
    InputError,
    WeightSequence,
    as_samples,
    mixed_mean,
    partial_mean_sequence,
)
from .reduction import SCAN_FIELDS, certify, weight_scan
from .search import SearchConfig, violation_search

__all__ = ["run", "main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract here is 1.
    Arguments such as -1e-3, -.5 and -inf are values, not options."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.I)

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_field(path: str, key: str):
    """Field ``key`` of the JSON object in the file at ``path``.  A file that
    cannot be opened, is not UTF-8 JSON (``ValueError``) or nests too deeply
    to parse raises ``InputError``.  CR and CRLF line breaks read as LF, as
    in text mode, and so count in a parse error's position."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        data = json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    if key not in data:
        raise InputError(f'{path}: missing "{key}" field')
    return data[key]


def _emit(obj) -> None:
    try:
        text = json.dumps(obj, allow_nan=False)
    except ValueError as exc:
        raise InputError(f"result is not finite (NaN or infinity): {exc}") from exc
    sys.stdout.write(text + "\n")


def _cmd_means(args) -> int:
    w = WeightSequence(_load_field(args.weights, "w"))
    x = as_samples(_load_field(args.samples, "x"), w.n)
    out = {
        "r": args.r,
        "s": args.s,
        "partial_means_r": partial_mean_sequence(w, x, args.r).tolist(),
        "partial_means_s": partial_mean_sequence(w, x, args.s).tolist(),
        "mixed_s_of_r": mixed_mean(w, x, outer=args.s, inner=args.r),
        "mixed_r_of_s": mixed_mean(w, x, outer=args.r, inner=args.s),
    }
    _emit(out)
    return 0


def _cmd_check(args) -> int:
    w = WeightSequence(_load_field(args.weights, "w"))
    nan = nanjundiah_condition(w)
    hol = holland_condition(w)
    try:
        gao = gao_conditions(w)
        gao_dict = gao.to_dict()
        gao_holds = gao.holds
    except NotApplicableError:
        gao_dict = None
        gao_holds = False
    _emit({
        "n": w.n,
        "nanjundiah": nan.to_dict(),
        "holland": hol.to_dict(),
        "gao": gao_dict,
    })
    return 0 if (nan.holds or hol.holds or gao_holds) else 2


def _cmd_certify(args) -> int:
    w = WeightSequence(_load_field(args.weights, "w"))
    cert = certify(w)
    _emit(cert.to_dict())
    return 2 if cert.route == "refuted-numeric" else 0


def _cmd_verify(args) -> int:
    w = WeightSequence(_load_field(args.weights, "w"))
    x = as_samples(_load_field(args.samples, "x"), w.n)
    z = np.log(x)
    rado = _rado_increments(w, z, args.s)
    pop = np.diff(_popoviciu_profile(w, z))
    levels = [
        {"k": k, "rado_increment": inc, "popoviciu_increment": p}
        for k, inc, p in zip(range(2, w.n + 1), rado.tolist(), pop.tolist())
    ]
    failed = _confirmed_violation(w, x, args.s, rado, 2)
    _emit({"s": args.s, "levels": levels})
    return 2 if failed else 0


def _cmd_search(args) -> int:
    w = WeightSequence(_load_field(args.weights, "w"))
    config = SearchConfig(
        seed=args.seed, trials=args.trials, local_steps=args.local_steps
    )
    result = violation_search(w, args.s, config)
    _emit(result.to_dict())
    return 2 if result.violation else 0


def _cmd_scan(args) -> int:
    head = _load_field(args.head, "w")
    try:
        lo_s, hi_s = args.range.split(":", 1)
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise InputError(f"--range must be LO:HI, got {args.range!r}") from exc
    rows = weight_scan(head, (lo, hi), args.steps)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(SCAN_FIELDS)
    for row in rows:
        writer.writerow(
            ["" if row[k] is None else repr(row[k]) for k in SCAN_FIELDS]
        )
    return 0


def _cmd_gen_weights(args) -> int:
    sys.stdout.write("%.17g\n" % critical_weight(_load_field(args.head, "w")))
    return 0


def _finite(text: str) -> float:
    """argparse type of the exponent options: a finite float."""
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


@functools.cache
def _build_parser() -> tuple[_Parser, dict]:
    """The parser tree and a map from each subcommand's name to its parser,
    built on the first call and shared after that; parsing leaves them
    unchanged and fills a fresh namespace every time."""
    parser = _Parser(prog="mixedmeans", description=__doc__.replace("``", ""))
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, func, summary, *positionals):
        commands[name] = p = sub.add_parser(name, help=summary)
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(func=func)
        return p

    p = command("means", _cmd_means, "partial and mixed means for w, x, r, s",
                "weights", "samples")
    p.add_argument("--r", type=_finite, default=1.0)
    p.add_argument("--s", type=_finite, default=0.0)
    command("check", _cmd_check, "all weight-condition reports", "weights")
    command("certify", _cmd_certify, "certification route and slack", "weights")
    p = command("verify", _cmd_verify, "increment values for k = 2..n", "weights", "samples")
    p.add_argument("--s", type=_finite, default=0.0)
    p = command("search", _cmd_search, "multistart violation search", "weights")
    p.add_argument("--s", type=_finite, default=0.0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--local-steps", type=int, default=8)
    p = command("scan", _cmd_scan, "tail-weight region scan (CSV)", "head")
    p.add_argument("--range", required=True, help="LO:HI, geometric grid")
    p.add_argument("--steps", type=int, default=31)
    command("gen-weights", _cmd_gen_weights, "critical tail weight for a head", "head")
    return parser, commands


def run(argv: list[str]) -> int:
    parser, commands = _build_parser()
    try:  # the top-level parser would hand the rest of argv to the same one
        if (command := commands.get(argv[0]) if argv else None) is None:
            args = parser.parse_args(argv)
        else:
            args, extra = command.parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:  # no numpy warning lines: a result that is not finite ends as one error
        with np.errstate(all="ignore"):
            return args.func(args)
    except (InputError, NotApplicableError) as exc:
        sys.stderr.write(f"mixedmeans: error: {exc}\n")
        return 1
    except OverflowError as exc:
        sys.stderr.write(f"mixedmeans: error: floating-point overflow: {exc}\n")
        return 1
    except MemoryError as exc:
        sys.stderr.write(f"mixedmeans: error: out of memory: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
