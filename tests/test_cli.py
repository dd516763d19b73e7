import csv
import json

import numpy as np
import pytest

from checkout import run_python
from mixedmeans import (
    WeightSequence,
    cli,
    objective_F,
    popoviciu_increment,
    rado_increment,
    search,
)
from mixedmeans.cli import run
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

    def test_bad_range_exits_one(self, capsys, files):
        code, _, err = invoke(
            capsys, ["scan", files["head11"], "--range", "six"]
        )
        assert code == 1
        assert "LO:HI" in err


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
        # one weight has no increment; weights whose sums overflow have no
        # finite one
        for i, text in enumerate(('{"w": [2]}', '{"w": [1, 1e308, 1e308]}')):
            p = tmp_path / f"w{i}.json"
            p.write_text(text)
            self._one_line_error(capsys, ["search", str(p), "--trials", "3"])

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
