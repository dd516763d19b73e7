import contextlib
import csv
import io
import json
import math
import sys
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkout import run_python
from mixedmeans import (
    WeightSequence,
    cli,
    critical_weight,
    objective_F,
    popoviciu_increment,
    rado_increment,
    search,
    violation_tolerance,
)
from mixedmeans.cli import run
from mixedmeans.functionals import _rado_increment_precise
from mixedmeans.reduction import SCAN_FIELDS
from sampling import random_samples, random_weights


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")

    return {
        "w111": write("w111.json", {"w": [1, 1, 1]}),
        "w405": write("w405.json", {"w": [1, 1, 4.05]}),
        "w45": write("w45.json", {"w": [1, 1, 4.5]}),
        "w6": write("w6.json", {"w": [1, 1, 6]}),
        "x123": write("x123.json", {"x": [1, 2, 3]}),
        "head11": write("head11.json", {"w": [1, 1]}),
        "bad": write("bad.json", {"weights": [1, 2]}),
        "garbage": str(garbage),
    }


def _reject_constant(constant):
    raise ValueError(f"non-finite {constant} on stdout")


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeans:
    def test_uniform_example(self, capsys, files):
        code, out, _ = invoke(capsys, ["means", files["w111"], files["x123"]])
        assert code == 0
        data = json.loads(out)
        assert data["r"] == 1.0 and data["s"] == 0.0
        assert data["partial_means_r"] == pytest.approx([1.0, 1.5, 2.0])
        assert data["mixed_s_of_r"] == pytest.approx(1.4422495703074083)
        assert data["mixed_r_of_s"] == pytest.approx(1.4104447184017448)

    def test_length_mismatch_exits_one(self, capsys, files, tmp_path):
        short = tmp_path / "short.json"
        short.write_text('{"x": [1, 2]}')
        code, _, err = invoke(capsys, ["means", files["w111"], str(short)])
        assert code == 1
        assert "error" in err


class TestCheck:
    def test_holds(self, capsys, files):
        code, out, _ = invoke(capsys, ["check", files["w405"]])
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 3
        assert not data["nanjundiah"]["holds"]
        assert not data["holland"]["holds"]
        assert data["gao"]["holds"]
        assert data["gao"]["margins"][0]["value"] == pytest.approx(0.0125)

    def test_fails(self, capsys, files):
        code, out, _ = invoke(capsys, ["check", files["w45"]])
        assert code == 2
        data = json.loads(out)
        assert not any(data[k]["holds"] for k in ("nanjundiah", "holland", "gao"))

    def test_pair_has_null_gao(self, capsys, files):
        code, out, _ = invoke(capsys, ["check", files["head11"]])
        assert code == 0
        assert json.loads(out)["gao"] is None


class TestCertify:
    def test_routes(self, capsys, files):
        code, out, _ = invoke(capsys, ["certify", files["w111"]])
        assert code == 0
        data = json.loads(out)
        assert data["route"] == "holland"
        assert data["slack"] >= 0

        code, out, _ = invoke(capsys, ["certify", files["w405"]])
        assert code == 0
        assert json.loads(out)["route"] == "gao"

    def test_refuted(self, capsys, files):
        code, out, _ = invoke(capsys, ["certify", files["w6"]])
        assert code == 2
        data = json.loads(out)
        assert data["route"] == "refuted-numeric"
        assert data["numeric_max"]["value"] > 1.0


    def test_corner_maximum_past_w_star(self, capsys, tmp_path):
        # seven weights: the multistart route, which once read 1.0 inside
        # the box where F at the origin corner exceeds 1
        p = tmp_path / "w7.json"
        p.write_text('{"w": [1, 1, 1, 1, 1, 1, 3.0125]}')
        code, out, _ = invoke(capsys, ["certify", str(p)])
        assert code == 2
        data = json.loads(out)
        assert data["route"] == "refuted-numeric"
        assert data["numeric_max"]["value"] == pytest.approx(1.000466, abs=1e-6)
        assert data["numeric_max"]["argmax"] == [0.0] * 6

    def test_stdout_is_strict_json(self, capsys, tmp_path):
        # tail weights far apart underflow an exponent of F to 0, which the
        # numeric route refuses
        p = tmp_path / "wide.json"
        p.write_text('{"w": [1, 1e-300, 1e300]}')
        code, out, err = invoke(capsys, ["certify", str(p)])
        assert (code, out) == (1, "")
        assert err == (
            "mixedmeans: error: weights out of float64 range for the reduced problem\n"
        )

    def test_box_bound_rounding_to_one(self, capsys, tmp_path):
        # W_3 / W_2 rounds to 1: certify refuses; scan leaves grid_max blank
        # there and where beta_1 underflows
        p = tmp_path / "tiny.json"
        p.write_text('{"w": [1, 2, 1e-300, 4]}')
        code, out, err = invoke(capsys, ["certify", str(p)])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and "out of float64 range" in err
        for head, tail in (([1, 2, 1e-300], "4"), ([1, 1e-300], "1e300")):
            p = tmp_path / "head.json"
            p.write_text(json.dumps({"w": head}))
            code, out, _ = invoke(
                capsys, ["scan", str(p), "--range", f"{tail}:{tail}", "--steps", "2"]
            )
            assert code == 0
            rows = list(csv.DictReader(out.splitlines()))
            assert [row["grid_max"] for row in rows] == ["", ""]
            assert all(row["boundary_bound"] for row in rows)

    def test_five_weights_at_default_resolution(self, capsys, tmp_path):
        # a 4-D lattice of 201^4 cells, which once ran out of memory
        p = tmp_path / "w5.json"
        p.write_text('{"w": [1, 1, 1, 1, 9]}')
        code, out, _ = invoke(capsys, ["certify", str(p)])
        assert code == 2
        numeric = json.loads(out, parse_constant=_reject_constant)["numeric_max"]
        assert len(numeric["argmax"]) == 4
        w = WeightSequence([1, 1, 1, 1, 9])
        assert objective_F(w, numeric["argmax"]) == numeric["value"]


class TestVerify:
    def test_uniform_example(self, capsys, files):
        code, out, _ = invoke(capsys, ["verify", files["w111"], files["x123"]])
        assert code == 0
        levels = json.loads(out)["levels"]
        assert [lv["k"] for lv in levels] == [2, 3]
        assert levels[1]["rado_increment"] == pytest.approx(0.06013837530690753)
        assert levels[1]["popoviciu_increment"] == pytest.approx(
            0.037884820130820694
        )

    def test_levels_match_library(self, capsys, tmp_path):
        rng = np.random.default_rng(72)
        for n, s in ((2, 0.0), (5, -1.0), (9, 0.5), (30, 2.0)):
            w = random_weights(rng, n)
            x = random_samples(rng, n)
            wf, xf = tmp_path / "w.json", tmp_path / "x.json"
            wf.write_text(json.dumps({"w": w.w.tolist()}))
            xf.write_text(json.dumps({"x": x.tolist()}))
            code, out, _ = invoke(capsys, ["verify", str(wf), str(xf), "--s", str(s)])
            assert code in (0, 2)
            levels = json.loads(out)["levels"]
            assert [lv["k"] for lv in levels] == list(range(2, n + 1))
            for lv in levels:
                k = lv["k"]
                assert lv["rado_increment"] == rado_increment(w, x, s, k)
                assert lv["popoviciu_increment"] == popoviciu_increment(w, x, k)

    def test_violating_point_exits_two(self, capsys, files, tmp_path):
        xf = tmp_path / "xv.json"
        xf.write_text('{"x": [0.001, 1.0, 1000.0]}')
        code, out, _ = invoke(capsys, ["verify", files["w6"], str(xf)])
        assert code == 2
        assert json.loads(out)["levels"][-1]["rado_increment"] < 0


    def test_violation_made_up_by_rounding_exits_zero(self, capsys, files, tmp_path):
        # At s = 1e-12 the level-2 increment reads -8.5e-5 in floats, past
        # the tolerance 6.0e-7, but +6.8e-5 at 50 digits: no violation
        xf = tmp_path / "x.json"
        xf.write_text('{"x": [1.154, 1.119, 201.511]}')
        w, x = WeightSequence([1, 1, 1]), [1.154, 1.119, 201.511]
        code, out, _ = invoke(capsys, ["verify", files["w111"], str(xf), "--s", "1e-12"])
        assert code == 0
        assert json.loads(out)["levels"][0]["rado_increment"] < -violation_tolerance(w, x)
        assert _rado_increment_precise(w, x, 1e-12, 2) == pytest.approx(6.8e-5, rel=0.05)


class TestSearch:
    def test_clean_region(self, capsys, files):
        code, out, _ = invoke(
            capsys, ["search", files["w111"], "--trials", "40", "--seed", "1"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["violation"] is False
        assert data["trials_run"] == 40

    def test_violation_region(self, capsys, files):
        code, out, _ = invoke(
            capsys, ["search", files["w6"], "--trials", "40", "--seed", "1"]
        )
        assert code == 2
        assert json.loads(out)["violation"] is True

    def test_violation_at_small_scale(self, capsys, tmp_path):
        # the walk ends at data of scale ~1e-5, where the increment is -3e-7
        # (test_search.TestViolationSearch.test_violation_at_small_scale)
        w = [1.7030417326851062, 1.216843312378811, 1.1014381992620612,
             0.8423990253330988, 0.8838727362440361, 5.47685358903886]
        p = tmp_path / "w.json"
        p.write_text(json.dumps({"w": w}))
        code, out, _ = invoke(capsys, ["search", str(p), "--trials", "1", "--seed", "1"])
        assert code == 2
        assert json.loads(out)["violation"] is True

    def test_holding_direction_above_one(self, capsys, tmp_path):
        # For s > 1 the inequality reverses and a violation is a positive
        # increment, as verify reads it; Nanjundiah's condition, which holds
        # for every exponent pair, holds for both weight vectors
        for w in ([1, 1, 1], [1, 2, 3]):
            p = tmp_path / "w.json"
            p.write_text(json.dumps({"w": w}))
            for s in ("2", "3"):
                code, out, err = invoke(capsys, ["search", str(p), "--s", s])
                assert (code, err) == (0, ""), (w, s)
                assert json.loads(out)["violation"] is False

    def test_violations_above_one_fail_verify(self, capsys, tmp_path):
        # every violation the search reports for s > 1 is one verify finds
        rng = np.random.default_rng(76)
        corpus = [[1, 1, 6], [1, 1, 30]] + [
            random_weights(rng, n, 0.1, 30.0).w.tolist() for n in (3, 4, 5, 3, 4, 5)
        ]
        wf, xf = tmp_path / "w.json", tmp_path / "x.json"
        found = 0
        for j, w in enumerate(corpus):
            wf.write_text(json.dumps({"w": w}))
            for s in ("1.5", "2", "3"):
                argv = ["search", str(wf), "--s", s, "--trials", "40", "--seed", str(j)]
                code, out, _ = invoke(capsys, argv)
                assert code in (0, 2)
                doc = json.loads(out)
                if not doc["violation"]:
                    continue
                found += 1
                assert doc["best_value"] > 0
                xf.write_text(json.dumps({"x": doc["best_point"]}))
                code, out, _ = invoke(capsys, ["verify", str(wf), str(xf), "--s", s])
                assert code == 2, (w, s)
                assert json.loads(out)["levels"][-1]["rado_increment"] > 0
        assert found >= 2

    def test_negative_local_steps_exits_one(self, capsys, files):
        code, out, err = invoke(
            capsys, ["search", files["w6"], "--local-steps", "-1"]
        )
        assert code == 1
        assert out == ""
        assert "local steps" in err


class TestScan:
    def test_header_and_shape(self, capsys, files):
        code, out, _ = invoke(
            capsys,
            ["scan", files["head11"], "--range", "3:6", "--steps", "5"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "w_n,holland_margin,gao_a,gao_b,gao_c,gao_d,"
            "boundary_bound,interior_bound,grid_max"
        )
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(3.0)
        # interior bound is blank while the excess is nonpositive
        assert first[7] == ""

    def test_four_weight_head_fills_grid_max(self, capsys, tmp_path):
        head = tmp_path / "head4.json"
        head.write_text('{"w": [1, 1, 1, 1]}')
        code, out, _ = invoke(
            capsys, ["scan", str(head), "--range", "9:12", "--steps", "2"]
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 2
        assert all(float(row["grid_max"]) > 1.0 for row in rows)
        # past four box axes too: the curve maximum of every row's weights
        head6 = [1, 2, 1, 1, 1, 1]
        head.write_text(json.dumps({"w": head6}))
        code, out, _ = invoke(
            capsys, ["scan", str(head), "--range", "1:12", "--steps", "3"]
        )
        assert code == 0
        for row in csv.DictReader(out.splitlines()):
            w = WeightSequence([*head6, float(row["w_n"])])
            assert float(row["grid_max"]) == search.curve_max_F(w).best_value

    def test_huge_tail_weight(self, tmp_path):
        # the table is representable, but the head product's corner value
        # overflows float64: its Gao margin reads the most negative float,
        # the boundary bound inf, and the curve refutes (F = 1.414)
        w, head = tmp_path / "w.json", tmp_path / "head.json"
        w.write_text('{"w": [1, 1, 1e200]}')
        head.write_text('{"w": [1, 1]}')
        code, out, err = _run_captured(["check", str(w)])
        assert (code, err) == (2, "")
        gao = json.loads(out, parse_constant=_reject_constant)["gao"]
        assert gao["margins"][2]["value"] == -sys.float_info.max
        code, out, err = _run_captured(["certify", str(w)])
        assert (code, err) == (2, "")
        doc = json.loads(out, parse_constant=_reject_constant)
        assert doc["route"] == "refuted-numeric"
        assert doc["numeric_max"]["value"] == pytest.approx(math.sqrt(2.0))
        argv = ["scan", str(head), "--range", "1e199:1e200", "--steps", "3"]
        code, out, err = _run_captured(argv)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == ",".join(SCAN_FIELDS) and len(lines) == 4
        for row in csv.DictReader(lines):
            assert row["boundary_bound"] == "inf"
            assert float(row["grid_max"]) == pytest.approx(math.sqrt(2.0))

    def test_bad_range_exits_one(self, capsys, files):
        code, _, err = invoke(
            capsys, ["scan", files["head11"], "--range", "six"]
        )
        assert code == 1
        assert "LO:HI" in err

    @pytest.mark.parametrize(
        "bounds", ["1:inf", "inf:inf", "-inf:1", "nan:2", "0:1", "2:1"]
    )
    def test_range_outside_zero_to_inf_exits_one(self, capsys, files, bounds):
        code, out, err = invoke(capsys, ["scan", files["head11"], "--range", bounds])
        assert (code, out) == (1, "")
        assert err.startswith("mixedmeans: error: tail range ")
        assert err.endswith(" must satisfy 0 < lo <= hi < inf\n")

    def test_range_wider_than_float64_ratio(self, capsys, files):
        # hi / lo overflows float64; the grid is formed in logs, ends exact
        code, out, err = invoke(
            capsys,
            ["scan", files["head11"], "--range", "1e-300:1e10", "--steps", "3"],
        )
        assert (code, err) == (0, "")
        w_n = [float(row["w_n"]) for row in csv.DictReader(out.splitlines())]
        assert w_n[0] == 1e-300 and w_n[2] == 1e10
        assert w_n[1] == pytest.approx(1e-145, rel=1e-12)


class TestGenWeights:
    def test_pair_head(self, capsys, files):
        code, out, _ = invoke(capsys, ["gen-weights", files["head11"]])
        assert code == 0
        assert out == "4\n"

    def test_singleton_head_exits_one(self, capsys, tmp_path):
        p = tmp_path / "one.json"
        p.write_text('{"w": [2.0]}')
        code, _, err = invoke(capsys, ["gen-weights", str(p)])
        assert code == 1
        assert "error" in err


class TestErrorPaths:
    def test_missing_field(self, capsys, files):
        code, _, err = invoke(capsys, ["check", files["bad"]])
        assert code == 1
        assert '"w"' in err

    def test_malformed_json(self, capsys, files):
        code, _, err = invoke(capsys, ["check", files["garbage"]])
        assert code == 1
        assert "cannot read" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = invoke(capsys, ["check", str(tmp_path / "nope.json")])
        assert code == 1

    def test_unknown_flag(self, capsys, files):
        code, _, err = invoke(capsys, ["check", files["w111"], "--bogus"])
        assert code == 1

    def test_resolution_option_is_gone(self, capsys, files):
        for argv in (
            ["certify", files["w45"], "--resolution", "201"],
            ["scan", files["head11"], "--range", "3:6", "--resolution", "51"],
        ):
            code, out, err = invoke(capsys, argv)
            assert (code, out) == (1, "")
            assert len(err.splitlines()) == 1
            assert "unrecognized arguments: --resolution" in err
            assert "Traceback" not in err

    def test_no_command(self, capsys):
        code, _, _ = invoke(capsys, [])
        assert code == 1

    def test_negative_weight(self, capsys, tmp_path):
        p = tmp_path / "neg.json"
        p.write_text('{"w": [1, -1, 2]}')
        code, _, err = invoke(capsys, ["check", str(p)])
        assert code == 1


    def _one_line_error(self, capsys, argv):
        code, out, err = invoke(capsys, argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        return err

    def test_non_numeric_weights(self, capsys, tmp_path):
        for i, text in enumerate(('{"w": [1, 1, "a"]}', '{"w": {"a": 1}}')):
            p = tmp_path / f"nan{i}.json"
            p.write_text(text)
            for command in ("check", "certify", "gen-weights"):
                self._one_line_error(capsys, [command, str(p)])

    def test_overflow(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        big.write_text('{"w": [1, 1e200, 1]}')
        for command in ("check", "certify"):
            self._one_line_error(capsys, [command, str(big)])
        wide = tmp_path / "wide.json"
        wide.write_text('{"w": [1, 1e-300, 1e300]}')
        self._one_line_error(capsys, ["gen-weights", str(wide)])

    def test_overflow_without_warnings(self, tmp_path):
        # in a fresh process, so numpy warnings reach stderr uncaptured
        big = tmp_path / "big.json"
        big.write_text('{"w": [1, 1e200, 1]}')
        for command in ("check", "certify"):
            proc = run_python(
                ["-m", "mixedmeans.cli", command, str(big)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 1
            assert proc.stdout == ""
            assert len(proc.stderr.splitlines()) == 1
            assert "overflow" in proc.stderr

    def test_prefix_sum_overflow_without_warnings(self, tmp_path):
        p = tmp_path / "huge.json"
        p.write_text('{"w": [1, 1e308, 1e308]}')
        proc = run_python(
            ["-m", "mixedmeans.cli", "search", str(p)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert "overflow" in proc.stderr

    @pytest.mark.parametrize(
        "command", ["check", "certify", "scan", "search", "gen-weights"]
    )
    def test_unreadable_files(self, capsys, tmp_path, command):
        # not UTF-8, a UTF-8 byte order mark, and arrays nested past the
        # parser's recursion limit: one line naming the file
        extra = ["--range", "1:2"] if command == "scan" else []
        deep = "[" * 100_000 + "]" * 100_000
        for i, data in enumerate((
            b"\xff\xfe", b"\xef\xbb\xbf{}", f'{{"w": {deep}}}'.encode(),
        )):
            p = tmp_path / f"bad{i}.json"
            p.write_bytes(data)
            err = self._one_line_error(capsys, [command, str(p), *extra])
            assert err.startswith(f"mixedmeans: error: cannot read {p}: ")

    def test_line_breaks_and_encodings(self, capsys, tmp_path):
        # CRLF and CR read as LF, in values and in a parse error's position;
        # a UTF-8 byte order mark, UTF-16 and invalid UTF-8 are one-line errors
        def write(name, data):
            p = tmp_path / name
            p.write_bytes(data)
            return str(p)

        lf = invoke(capsys, ["certify", write("lf.json", b'{\n"w": [1, 1, 6]\n}\n')])
        crlf = invoke(capsys, ["certify", write("crlf.json", b'{\r\n"w": [1, 1, 6]\r\n}\r\n')])
        assert crlf == lf and lf[0] == 2
        for i, data in enumerate((b'{\n"w": [1,,2]\n}', b'{\r\n"w": [1,,2]\r\n}', b'{\r"w": [1,,2]}')):
            err = self._one_line_error(capsys, ["check", write(f"comma{i}.json", data)])
            assert err.endswith(": Expecting value: line 2 column 9 (char 10)\n")
        for i, (data, reason) in enumerate((
            (b'\xef\xbb\xbf{"w": [1, 2]}', "Unexpected UTF-8 BOM (decode using utf-8-sig)"
             ": line 1 column 1 (char 0)"),
            ('{"w": [1, 2]}'.encode("utf-16"), "'utf-8' codec can't decode byte 0xff in "
             "position 0: invalid start byte"),
            (b'{"w": [1, \xc3 2]}', "'utf-8' codec can't decode byte 0xc3 in position 10: "
             "invalid continuation byte"),
        )):
            p = write(f"enc{i}.json", data)
            err = self._one_line_error(capsys, ["certify", p])
            assert err == f"mixedmeans: error: cannot read {p}: {reason}\n"

    def test_unreadable_samples(self, capsys, files, tmp_path):
        p = tmp_path / "x.json"
        p.write_bytes(b'{"x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}")
        for command in ("verify", "means"):
            err = self._one_line_error(capsys, [command, files["w111"], str(p)])
            assert "cannot read" in err

    def test_booleans_and_strings_are_not_numbers(self, capsys, files, tmp_path):
        # numpy reads true as 1 and "2" as 2.0; the weights contract is numbers
        for i, text in enumerate(('{"w": [true, 2, 3]}', '{"w": [1, "2", 3]}')):
            p = tmp_path / f"w{i}.json"
            p.write_text(text)
            for command in ("check", "certify", "gen-weights", "search"):
                err = self._one_line_error(capsys, [command, str(p)])
                assert "must be numbers, not booleans or strings" in err
        p = tmp_path / "x.json"
        p.write_text('{"x": [1, false, 3]}')
        self._one_line_error(capsys, ["verify", files["w111"], str(p)])

    def test_one_stderr_line_without_warnings(self, tmp_path):
        # in a fresh process, so numpy warnings would reach stderr: sums
        # that overflow float64, in the head and in the increments
        head, w, x = (tmp_path / f"{k}.json" for k in ("head", "w", "x"))
        head.write_text('{"w": [1e308, 1e308]}')
        w.write_text('{"w": [1, 1, 1]}')
        x.write_text('{"x": [1e308, 1e308, 1e308]}')
        for argv, message in (
            (["gen-weights", str(head)], "prefix sums of the weights overflow"),
            (["verify", str(w), str(x), "--s", "2"], "result is not finite"),
        ):
            proc = run_python(
                ["-m", "mixedmeans.cli", *argv], capture_output=True, text=True
            )
            assert (proc.returncode, proc.stdout) == (1, ""), argv
            assert len(proc.stderr.splitlines()) == 1, proc.stderr
            assert message in proc.stderr

    def test_critical_weight_out_of_range(self, capsys, tmp_path):
        # W_2^2 / S_1 is 1e360 for the first head, whose sums are finite,
        # and underflows to 0 for the second
        p = tmp_path / "head.json"
        for text in ('{"w": [1e-300, 1e30]}', '{"w": [5e-324, 5e-324]}'):
            p.write_text(text)
            err = self._one_line_error(capsys, ["gen-weights", str(p)])
            assert "critical weight is out of float64 range" in err

    def test_reduced_problem_out_of_range(self, tmp_path):
        # p_2 = w_n/W_n underflows to 0; the products in alpha overflow
        for command, text in (
            ("check", '{"w": [1e20, 1, 1e-310]}'),
            ("certify", '{"w": [1, 1, 1, 1e308]}'),
        ):
            p = tmp_path / f"{command}.json"
            p.write_text(text)
            proc = run_python(
                ["-m", "mixedmeans.cli", command, str(p)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 1
            assert proc.stdout == ""
            assert len(proc.stderr.splitlines()) == 1
            assert "Traceback" not in proc.stderr
            assert "out of float64 range" in proc.stderr

    def test_out_of_memory(self, capsys, monkeypatch, files):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 12.2 GiB for an array")

        monkeypatch.setattr(cli, "certify", exhausted)
        code, out, err = invoke(capsys, ["certify", files["w6"]])
        assert (code, out) == (1, "")
        assert err == (
            "mixedmeans: error: out of memory: "
            "Unable to allocate 12.2 GiB for an array\n"
        )

    def test_search_errors(self, capsys, tmp_path):
        # one weight has no increment, and the line names the input; weights
        # whose sums overflow have no finite one
        for i, text in enumerate(('{"w": [2]}', '{"w": [1, 1e308, 1e308]}')):
            p = tmp_path / f"w{i}.json"
            p.write_text(text)
            err = self._one_line_error(capsys, ["search", str(p), "--trials", "3"])
            if i == 0:
                assert err == "mixedmeans: error: need at least two weights\n"

    @staticmethod
    def _exponent_argvs(files, value, joined=True):
        """Each exponent option of each subcommand, set to ``value`` in the
        form ``--s=VALUE``, or ``--s VALUE`` unless ``joined``."""
        for command, option in (
            ("search", "--s"), ("verify", "--s"), ("means", "--r"), ("means", "--s")
        ):
            inputs = [files["w6"]] if command == "search" else [files["w111"], files["x123"]]
            given = [f"{option}={value}"] if joined else [option, value]
            yield option, [command, *inputs, *given]

    @pytest.mark.parametrize("value", ["-1e-3", "-2e-5", "-inf"])
    def test_negative_exponent_as_next_argument(self, capsys, files, value):
        # argparse alone takes "-1e-3" and "-inf" for options; they are values
        pairs = zip(
            self._exponent_argvs(files, value, joined=False),
            self._exponent_argvs(files, value),
        )
        for (option, spaced), (_, joined) in pairs:
            code, out, err = invoke(capsys, spaced)
            assert (code, out, err) == invoke(capsys, joined)
            assert "Traceback" not in err
            if value == "-inf":
                assert code == 1 and out == ""
                assert err.splitlines() == [
                    f"mixedmeans {spaced[0]}: error: argument {option}: "
                    f"not a finite number: '-inf'"
                ]
            else:
                assert code in (0, 2) and err == ""
                if spaced[0] != "search":  # the search does not echo s
                    assert json.loads(out)[option[2:]] == float(value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_exponent(self, capsys, monkeypatch, files, value):
        def no_trials(*args, **kwargs):
            raise AssertionError("the search ran a trial")

        monkeypatch.setattr(search, "_multistart", no_trials)
        for option, argv in self._exponent_argvs(files, value):
            err = self._one_line_error(capsys, argv)
            assert f"argument {option}: not a finite number" in err
            assert "Warning" not in err

    def test_non_finite_exponent_without_warnings(self, files):
        # in a fresh process, so numpy warnings reach stderr uncaptured
        for option, argv in self._exponent_argvs(files, "nan"):
            proc = run_python(
                ["-m", "mixedmeans.cli", *argv], capture_output=True, text=True
            )
            assert proc.returncode == 1
            assert proc.stdout == ""
            assert len(proc.stderr.splitlines()) == 1
            assert option in proc.stderr
            assert "Warning" not in proc.stderr


class TestParserReuse:
    def test_in_process_sequence_matches_fresh_processes(
        self, capsys, monkeypatch, files
    ):
        # one shared parser: no flag or default of one call reaches the next
        monkeypatch.setenv("COLUMNS", "80")  # same help layout in both
        sequence = (
            (["certify", files["w45"]], 0),
            (["search", files["w6"], "--trials", "many"], 1),
            (["search", files["w6"], "--trials", "3", "--seed", "5"], 2),
            (["search", files["w6"]], 2),
            (["--help"], 0),
        )
        for argv, expected in sequence:
            code, out, err = invoke(capsys, argv)
            fresh = run_python(
                ["-m", "mixedmeans.cli", *argv],
                capture_output=True,
            )
            assert code == fresh.returncode == expected, argv
            assert out.encode() == fresh.stdout, argv
            if code == 1:
                assert out == "" and len(err.splitlines()) == 1
        assert cli._build_parser() is cli._build_parser()


class TestHelp:
    def test_top_level_help_prints_plain_names(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = invoke(capsys, ["-h"])
        assert (code, err) == (0, "")
        assert "``" not in out
        assert "Subcommands mirror the library: means, check, certify," in out
        listed = [  # the rows indented by four spaces: one per subcommand
            line.split()[0] for line in out.splitlines()
            if line.startswith("    ") and not line.startswith("     ")
        ]
        assert listed == [
            "means", "check", "certify", "verify", "search", "scan", "gen-weights"
        ]


# argv with a known subcommand name first goes to that subcommand's parser
# alone; {w}, {x} and {h} stand for weights, samples and head files
_DISPATCH_ARGV = (
    [], ["-h"], ["--help"], ["-x", "certify", "{w}"], ["--", "certify", "{w}"],
    ["frobnicate"], ["cert", "{w}"], ["certify"], ["certify", "{w}"],
    ["certify", "-h"], ["certify", "{w}", "-h"], ["certify", "{w}", "--tri", "3"],
    ["certify", "{w}", "extra"], ["certify", "{w}", "extra", "-1e-3"],
    ["certify", "{w}", "{w}", "--s", "1"], ["certify", "--", "{w}"],
    ["certify", "{w}", "--"], ["certify", "certify", "{w}"], ["check", "-h"],
    ["check", "{w}"], ["means", "-h"], ["means", "{w}", "{x}", "--r", "2", "--s", "-1"],
    ["verify", "-h"], ["verify", "{w}", "{x}", "--s", "-1e-3"], ["verify", "{w}", "{x}", "--s"],
    ["search", "-h"], ["search", "{w}", "--tri", "1"], ["search", "{w}", "--s=-inf"],
    ["search", "{w}", "--s", "-1e-3", "--trials", "1"], ["search", "{w}", "--s", "1e400"],
    ["search", "{w}", "--seed", "1", "--seed", "2", "--trials", "1", "--trials", "2"],
    ["search", "{w}", "--trials", "1", "--", "extra"], ["search", "{w}", "--", "--s", "1"],
    ["search", "{w}", "--trials", "many"], ["search", "{w}", "--bogus", "--trials=1"],
    ["scan", "-h"], ["scan", "{h}"], ["scan", "{h}", "--range", "3:6", "--steps", "3", "x"],
    ["gen-weights", "-h"], ["gen-weights", "{h}"], ["gen-weights", "{h}", "{h}"],
)


class TestDispatch:
    @pytest.mark.parametrize("argv", _DISPATCH_ARGV, ids=" ".join)
    def test_same_as_the_top_level_parser(self, capsys, monkeypatch, files, argv):
        monkeypatch.setenv("COLUMNS", "80")
        paths = {"{w}": files["w45"], "{x}": files["x123"], "{h}": files["head11"]}
        argv = [paths.get(a, a) for a in argv]
        dispatched = invoke(capsys, argv)
        parser, _ = cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))
        assert dispatched == invoke(capsys, argv)


class TestTinyHead:
    # W_{n-1}^2 underflows to 0: the excess once divided by it
    def test_certify_and_check(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"w": [1e-300, 1e-300, 1.0]}))
        for command in ("certify", "check"):
            code, out, err = invoke(capsys, [command, str(path)])
            assert (code, err) == (2, ""), command
            gao = json.loads(out, parse_constant=_reject_constant)["reports"][-1] if (
                command == "certify") else json.loads(out)["gao"]
            assert gao["margins"][0]["value"] == pytest.approx(2.5e299, rel=1e-15)

    def test_scan(self, capsys, tmp_path):
        path = tmp_path / "head.json"
        path.write_text(json.dumps({"w": [1e-300, 1e-300]}))
        code, out, err = invoke(capsys, ["scan", str(path), "--range", "0.5:2"])
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 31 and all(row["interior_bound"] for row in rows)


class TestDeterminism:
    def _run(self, argv):
        return run_python(
            ["-m", "mixedmeans.cli", *argv],
            capture_output=True,
        )

    def test_byte_identical_stdout(self, files):
        for argv in (
            ["search", files["w6"], "--trials", "25", "--seed", "7"],
            ["scan", files["head11"], "--range", "3:6", "--steps", "4"],
            ["certify", files["w405"]],
            ["certify", files["w45"]],
        ):
            a = self._run(argv)
            b = self._run(argv)
            assert a.stdout == b.stdout
            assert a.returncode == b.returncode


# n = 1..7 weights, extreme or moderate
_FUZZ_WEIGHTS = st.lists(
    st.one_of(
        st.sampled_from([5e-324, 1e-300, 1e-200, 1e-30, 1.0, 4.5, 1e30, 1e300, 1.7e308]),
        st.floats(min_value=1e-6, max_value=1e6),
    ),
    min_size=1,
    max_size=7,
)
# heads of 2..6 weights with a tail on either side of the critical weight:
# the Holland, Gao and numeric routes of ``certify``
_FUZZ_ROUTES = st.tuples(
    st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=2, max_size=6),
    st.one_of(st.floats(min_value=0.5, max_value=3.0), st.just(1.0 + 1e-5)),
).map(lambda pair: [*pair[0], critical_weight(pair[0]) * pair[1]])
_FUZZ = settings(max_examples=60, deadline=timedelta(seconds=10), derandomize=True)


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _check_exit(code, out, err, codes=(0, 1, 2)):
    """A documented exit code, no traceback, and for exit 1 nothing on stdout
    and one stderr line."""
    assert code in codes
    assert "Traceback" not in err
    if code == 1:
        assert out == "" and len(err.splitlines()) == 1


class TestSearchFuzz:
    """``search`` on extreme weights, short runs, seeds outside int64 and any
    finite exponent, in both option forms: a documented exit code, no
    traceback, strict JSON on stdout for 0 and 2, one stderr line for 1."""

    @_FUZZ
    @given(
        w=_FUZZ_WEIGHTS,
        trials=st.integers(1, 3),
        local_steps=st.integers(0, 3),
        seed=st.one_of(st.integers(-(2**80), -1), st.integers(2**63, 2**80)),
        s=st.one_of(
            st.sampled_from([-1e-3, -0.0, 0.0, 0.5, 1.0, 2.0, -1e300, 1e-300, 1e308]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
    )
    def test_search(self, tmp_path_factory, w, trials, local_steps, seed, s):
        path = tmp_path_factory.mktemp("fuzz") / "w.json"
        path.write_text(json.dumps({"w": w}))
        argv = ["search", str(path), "--trials", str(trials),
                "--local-steps", str(local_steps), "--seed", str(seed)]
        code, out, err = _run_captured([*argv, "--s", repr(s)])
        _check_exit(code, out, err)
        if code != 1:
            doc = json.loads(out, parse_constant=_reject_constant)
            assert doc["trials_run"] == trials and len(doc["best_point"]) == len(w)
            assert doc["violation"] == (code == 2)
        assert _run_captured([*argv, f"--s={s!r}"]) == (code, out, err)


class TestCertifyScanFuzz:
    """``certify`` and ``scan`` on extreme weights (``scan`` on heads, with
    any tail range and a few steps): a documented exit code, no traceback,
    strict JSON (``certify``) or the fixed CSV header (``scan``) on success,
    one stderr line for 1."""

    @_FUZZ
    @given(w=st.one_of(_FUZZ_WEIGHTS, _FUZZ_ROUTES))
    def test_certify(self, tmp_path_factory, w):
        path = tmp_path_factory.mktemp("fuzz") / "w.json"
        path.write_text(json.dumps({"w": w}))
        code, out, err = _run_captured(["certify", str(path)])
        _check_exit(code, out, err)
        if code != 1:
            doc = json.loads(out, parse_constant=_reject_constant)
            assert (doc["route"] == "refuted-numeric") == (code == 2)

    @_FUZZ
    @given(
        case=st.one_of(
            st.tuples(  # head, lo, hi / lo, steps
                st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=1, max_size=6),
                st.floats(min_value=0.1, max_value=10.0),
                st.floats(min_value=1.0, max_value=100.0),
                st.integers(2, 4),
            ),
            st.tuples(
                _FUZZ_WEIGHTS,
                st.sampled_from([5e-324, 1e-300, 1.0, 1e300]),
                st.sampled_from([1.0, 1e300, math.inf, math.nan, -1.0]),
                st.integers(-1, 4),
            ),
        )
    )
    def test_scan(self, tmp_path_factory, case):
        head, lo, ratio, steps = case
        path = tmp_path_factory.mktemp("fuzz") / "head.json"
        path.write_text(json.dumps({"w": head}))
        hi = lo * ratio
        argv = ["scan", str(path), f"--range={lo!r}:{hi!r}", "--steps", str(steps)]
        code, out, err = _run_captured(argv)
        _check_exit(code, out, err, codes=(0, 1))
        if code == 0:
            lines = out.splitlines()
            assert lines[0] == ",".join(SCAN_FIELDS) and len(lines) == steps + 1


# Every argv of the fuzz below, with the weights file at {w} and the samples
# file at {x}: each subcommand that reads a file, on short runs
_READERS = {
    "check": ["check", "{w}"],
    "certify": ["certify", "{w}"],
    "gen-weights": ["gen-weights", "{w}"],
    "scan": ["scan", "{w}", "--range", "1:8", "--steps", "2"],
    "search": ["search", "{w}", "--trials", "2", "--local-steps", "2"],
    "verify": ["verify", "{w}", "{x}", "--s", "{s}"],
    "means": ["means", "{w}", "{x}", "--r", "{s}", "--s", "0.5"],
}
# finite extremes, the moderate range, and entries that are not positive
_ENTRIES = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-30, 1.0, 4.5, 1e30, 1e300, 1.7e308]),
    st.floats(min_value=1e-6, max_value=1e6),
    st.sampled_from([0.0, -0.0, -1.0]),
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["w", "x", "y"]), inner, max_size=3),
    max_leaves=12,
)


def _nested(depth, key):
    return ('{"%s": ' % key + "[" * depth + "1" + "]" * depth + "}").encode()


def _files(key):
    """File contents for the field ``key``: random bytes, bytes that are not
    UTF-8, any JSON value (objects with or without the key; NaN and infinities
    as json writes them), the key over lists of numbers, booleans and strings,
    nested lists up to and past the parser's recursion limit, and literals
    that parse as non-finite or non-numbers."""
    field = st.one_of(_JSON, st.lists(st.one_of(_ENTRIES, _JSON), max_size=8))
    return st.one_of(
        st.binary(max_size=40),
        st.binary(max_size=20).map(lambda b: b"\xff" + b),
        _JSON.map(lambda v: json.dumps(v).encode()),
        field.map(lambda v: json.dumps({key: v}).encode()),
        st.one_of(st.integers(2, 3000), st.just(100_000)).map(
            lambda depth: _nested(depth, key)
        ),
        st.sampled_from([
            '{"%s": [NaN, 1, 2]}', '{"%s": [1, Infinity]}', '{"%s": [-Infinity]}',
            '{"%s": [1e999, 1]}', '{"%s": [1, 1e-999]}', '{"%s": [1, 2]',
            '{"%s": [true, 2, 3]}', '{"%s": ["1", "2"]}', '{"%s": "12"}',
        ]).map(lambda text: (text % key).encode()),
    )


def _vector(key, n):
    return st.lists(_ENTRIES, min_size=n, max_size=n).map(
        lambda v: json.dumps({key: v}).encode()
    )


def _check_stdout(command, code, out, err):
    """``_check_exit``, and on exit 0 or 2 the subcommand's stdout: strict
    JSON, CSV with the scan header, or one finite positive number."""
    verdicts = command in ("check", "certify", "search", "verify")
    _check_exit(code, out, err, (0, 1, 2) if verdicts else (0, 1))
    if code == 1:
        return
    assert err == ""
    if command == "gen-weights":
        assert out.endswith("\n") and out.count("\n") == 1
        assert 0.0 < float(out) < math.inf
    elif command == "scan":
        lines = out.splitlines()
        assert lines[0] == ",".join(SCAN_FIELDS) and len(lines) == 3
    else:
        assert out.endswith("\n") and out.count("\n") == 1
        assert isinstance(json.loads(out, parse_constant=_reject_constant), dict)


class TestReaderFuzz:
    """Every subcommand that reads a file, on files of any bytes, and
    ``verify`` and ``means`` on extreme vectors of equal length: a documented
    exit code, no traceback, the subcommand's stdout format for 0 and 2, one
    stderr line for 1, each example within the deadline."""

    @staticmethod
    def _run(tmp_path_factory, command, weights, samples, s="0.0"):
        d = tmp_path_factory.mktemp("fuzz")
        (d / "w.json").write_bytes(weights)
        (d / "x.json").write_bytes(samples)
        paths = {"w": d / "w.json", "x": d / "x.json", "s": s}
        argv = [a.format(**paths) for a in _READERS[command]]
        _check_stdout(command, *_run_captured(argv))

    @settings(_FUZZ, max_examples=150)
    @given(
        command=st.sampled_from(sorted(_READERS)),
        weights=st.one_of(
            _files("w"), _FUZZ_WEIGHTS.map(lambda w: json.dumps({"w": w}).encode())
        ),
        samples=_files("x"),
    )
    def test_any_file(self, tmp_path_factory, command, weights, samples):
        self._run(tmp_path_factory, command, weights, samples)

    @_FUZZ
    @given(
        command=st.sampled_from(["verify", "means"]),
        pair=st.integers(1, 7).flatmap(
            lambda n: st.tuples(_vector("w", n), _vector("x", n))
        ),
        s=st.sampled_from(["-1", "0", "0.5", "1", "2", "1e300", "-1e-300"]),
    )
    def test_extreme_vectors(self, tmp_path_factory, command, pair, s):
        self._run(tmp_path_factory, command, *pair, s)
