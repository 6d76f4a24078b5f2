import ast
import json
import os
import random
import sys
import time
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

from cfk import AlexanderPolynomial, PiecewiseLinear, parse_knot_expression, upsilon
from cfk.cli import SCHEMA_VERSION, run
from oracles import alexander_by_telescoping


@pytest.fixture(autouse=True)
def no_ambient_cache(monkeypatch):
    """A cache directory set in the caller's environment would turn misses into hits."""
    monkeypatch.delenv("CFK_CACHE_DIR", raising=False)


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def printed_report(capsys, argv):
    """The JSON object that run(argv) prints, for an argv that exits 0 or 1."""
    code, out, err = run_capture(capsys, argv)
    assert code in (0, 1) and err == ""
    return json.loads(out)


def invariants_json(capsys, expression):
    """The report of ``cfk invariants expression --no-timing``."""
    return printed_report(capsys, ["invariants", expression, "--no-timing"])


def distinguish_json(capsys, expr1, expr2):
    """The report of ``cfk distinguish expr1 expr2 --json``."""
    return printed_report(capsys, ["distinguish", expr1, expr2, "--json"])


def recursion_json(capsys, p, q):
    """The report of ``cfk verify-recursion p q --json``."""
    return printed_report(capsys, ["verify-recursion", str(p), str(q), "--json"])


def child_env():
    """Environment for a child process that imports the same cfk as this one, installed or not."""
    import cfk

    src = os.path.dirname(os.path.dirname(cfk.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestInvariants:
    def test_t34_report(self, capsys):
        code, out, _ = run_capture(capsys, ["invariants", "T(3,4)", "--no-timing"])
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 1
        assert report["expression"] == "T(3,4)"
        assert report["generator_count"] == 5
        assert ["2/3", "-2"] in report["upsilon"]["breakpoints"]
        entry = next(s for s in report["singularities"] if s["t"] == "2/3")
        assert entry["upsilon2"] == "-4/3"

    def test_t57_report(self, capsys):
        code, out, _ = run_capture(capsys, ["invariants", "T(5,7)", "--no-timing"])
        assert code == 0
        report = json.loads(out)
        entry = next(s for s in report["singularities"] if s["t"] == "4/5")
        assert entry["upsilon2"] == "-8/5"

    def test_negative_jump_gets_reason(self, capsys):
        code, out, _ = run_capture(capsys, ["invariants", "-T(2,3)", "--no-timing"])
        assert code == 0
        report = json.loads(out)
        entry = report["singularities"][0]
        assert entry["upsilon2"] is None
        assert "not positive" in entry["reason"]

    def test_invalid_pair_exits_2(self, capsys):
        code, _, err = run_capture(capsys, ["invariants", "T(2,2)"])
        assert code == 2
        assert "coprime" in err

    def test_parse_error_exits_2_with_position(self, capsys):
        code, _, err = run_capture(capsys, ["invariants", "T(2,3) @ T(2,5)"])
        assert code == 2
        assert "position 7" in err

    @pytest.mark.parametrize("expression, position", [
        ("-T(2,x)", 5), ("T(2,x)", 4), ("-(T(2,3) # T(2,x))", 15), ("(T(2,3) # T(2,x))", 14),
    ])
    def test_parse_error_position_indexes_the_argument(self, capsys, expression, position):
        # the expression reaches the parser as typed, so the position indexes the
        # argument itself, a mirror's leading dash included
        assert expression[position] == "x"
        code, out, err = run_capture(capsys, ["invariants", expression])
        assert (code, out) == (2, "")
        assert err == f"error: expected an integer (at position {position})\n"

    def test_timing_field_is_last_and_optional(self, capsys):
        code, out, _ = run_capture(capsys, ["invariants", "T(2,3)"])
        assert code == 0
        report = json.loads(out)
        assert list(report)[-1] == "timing_ms"
        code, out, _ = run_capture(capsys, ["invariants", "T(2,3)", "--no-timing"])
        assert "timing_ms" not in json.loads(out)

    def test_deterministic_output(self, capsys):
        _, first, _ = run_capture(capsys, ["invariants", "T(2,5) # T(2,3)", "--no-timing"])
        _, second, _ = run_capture(capsys, ["invariants", "T(2,5) # T(2,3)", "--no-timing"])
        assert first == second

    def test_cache_round_trip(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        argv = ["invariants", "T(3,4) # T(2,3)", "--no-timing", "--cache", cache]
        code, fresh, _ = run_capture(capsys, argv)
        assert code == 0
        code, cached, _ = run_capture(capsys, argv)
        assert code == 0
        assert cached == fresh
        # canonically equal expression hits the same entry
        argv2 = ["invariants", "T(2,3) # T(4,3)", "--no-timing", "--cache", cache]
        code, other, _ = run_capture(capsys, argv2)
        assert other == fresh

    def test_cache_hit_across_unknot_spellings(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = ["--no-timing", "--cache", str(cache)]
        code, fresh, _ = run_capture(capsys, ["invariants", "T(2,3)"] + argv)
        assert code == 0
        code, other, _ = run_capture(capsys, ["invariants", "T(1,5) # T(2,3)"] + argv)
        assert code == 0 and other == fresh
        assert len(list(cache.iterdir())) == 1

    def test_unusable_cache_directory_exits_3(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory", encoding="utf-8")
        for cache in (blocker, blocker / "below"):
            code, out, err = run_capture(
                capsys, ["invariants", "T(2,3)", "--no-timing", "--cache", str(cache)]
            )
            assert code == 3 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_failed_cache_write_leaves_no_entry(self, capsys, tmp_path, monkeypatch):
        import cfk.cli

        real_fdopen = os.fdopen

        def fdopen_write_then_fail(*args, **kwargs):
            fh = real_fdopen(*args, **kwargs)
            write = fh.write

            def write_then_fail(text):
                write("{")
                raise OSError(28, "No space left on device")

            fh.write = write_then_fail
            return fh

        monkeypatch.setattr(cfk.cli.os, "fdopen", fdopen_write_then_fail)
        cache = tmp_path / "cache"
        code, out, err = run_capture(
            capsys, ["invariants", "T(3,4)", "--no-timing", "--cache", str(cache)]
        )
        assert code == 3 and out == "" and err.startswith("error: ")
        # neither a half-written entry nor the temp file is left behind
        assert list(cache.iterdir()) == []

    def _bad_entry_is_a_miss(self, capsys, tmp_path, content):
        from cfk.cli import _cache_path

        cache = tmp_path / "cache"
        cache.mkdir()
        entry = cache / os.path.basename(_cache_path(str(cache), "T(3,4)"))
        entry.write_text(content, encoding="utf-8")
        code, out, err = run_capture(
            capsys, ["invariants", "T(3,4)", "--no-timing", "--cache", str(cache)]
        )
        assert code == 0 and err == ""
        _, fresh, _ = run_capture(capsys, ["invariants", "T(3,4)", "--no-timing"])
        assert out == fresh
        # the bad entry was rewritten with the fresh report
        assert json.loads(entry.read_text(encoding="utf-8")) == json.loads(fresh)

    def test_cache_truncated_entry_is_a_miss(self, capsys, tmp_path):
        report = json.dumps(invariants_json(capsys, "T(3,4)"), indent=2)
        self._bad_entry_is_a_miss(capsys, tmp_path, report[: len(report) // 2])

    def test_cache_empty_object_is_a_miss(self, capsys, tmp_path):
        self._bad_entry_is_a_miss(capsys, tmp_path, "{}")

    def test_cache_entry_for_another_expression_is_a_miss(self, capsys, tmp_path):
        other = json.dumps(invariants_json(capsys, "T(2,3)"), indent=2)
        self._bad_entry_is_a_miss(capsys, tmp_path, other)

    def test_cache_partial_report_is_a_miss(self, capsys, tmp_path):
        partial = {"schema_version": SCHEMA_VERSION, "expression": "T(3,4)"}
        self._bad_entry_is_a_miss(capsys, tmp_path, json.dumps(partial))

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_cache_schema_version_of_another_type_is_a_miss(self, capsys, tmp_path, version):
        # both compare equal to 1, but a hit would print them as stored
        report = dict(invariants_json(capsys, "T(3,4)"), schema_version=version)
        self._bad_entry_is_a_miss(capsys, tmp_path, json.dumps(report, indent=2))

    def test_timing_is_the_last_field_on_a_miss_and_on_a_hit(self, capsys, tmp_path):
        expression = "T(3,4) # T(2,5)"
        _, plain, _ = run_capture(capsys, ["invariants", expression, "--no-timing"])
        for _ in ("miss", "hit"):
            code, out, err = run_capture(
                capsys, ["invariants", expression, "--cache", str(tmp_path)])
            assert code == 0 and err == ""
            assert len(list(tmp_path.iterdir())) == 1
            report = json.loads(out)
            # the bytes of the indent-2 encoding with timing_ms added last
            assert out == json.dumps(report, indent=2, ensure_ascii=False) + "\n"
            assert list(report)[-1] == "timing_ms"
            timing = report.pop("timing_ms")
            assert type(timing) is int and timing >= 0
            assert json.dumps(report, indent=2, ensure_ascii=False) + "\n" == plain

    def test_cache_compact_whole_entry_is_served_as_stored(self, capsys, tmp_path):
        from cfk.cli import _cache_path

        entry = Path(_cache_path(str(tmp_path), "T(3,4)"))
        stored = json.dumps(invariants_json(capsys, "T(3,4)"))
        entry.write_text(stored, encoding="utf-8")
        argv = ["invariants", "T(3,4)", "--cache", str(tmp_path)]
        code, out, _ = run_capture(capsys, argv + ["--no-timing"])
        assert code == 0 and out == stored + "\n"
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        report = json.loads(out)
        assert list(report)[-1] == "timing_ms" and type(report.pop("timing_ms")) is int
        assert report == invariants_json(capsys, "T(3,4)")
        assert entry.read_text(encoding="utf-8") == stored

    def test_cache_whole_entry_is_a_hit(self, capsys, tmp_path):
        from cfk.cli import _cache_path

        cache = tmp_path / "cache"
        cache.mkdir()
        entry = cache / os.path.basename(_cache_path(str(cache), "T(3,4)"))
        # a whole report is served as it stands, so a changed value shows a hit
        stored = invariants_json(capsys, "T(3,4)")
        stored["generator_count"] = 1
        entry.write_text(json.dumps(stored, indent=2), encoding="utf-8")
        code, out, _ = run_capture(
            capsys, ["invariants", "T(3,4)", "--no-timing", "--cache", str(cache)]
        )
        assert code == 0 and json.loads(out) == stored

    def test_cache_whole_entry_with_cr_line_ends_is_served_with_lf(self, capsys, tmp_path):
        from cfk.cli import _cache_path

        entry = Path(_cache_path(str(tmp_path), "T(3,4)"))
        # a changed value shows a hit; CRLF and lone CR each end some lines
        stored = invariants_json(capsys, "T(3,4)")
        stored["generator_count"] = 1
        lines = json.dumps(stored, indent=2).split("\n")
        raw = "".join(line + ("\r\n", "\r")[k % 2] for k, line in enumerate(lines))
        entry.write_bytes(raw.encode("utf-8"))
        code, out, err = run_capture(
            capsys, ["invariants", "T(3,4)", "--no-timing", "--cache", str(tmp_path)])
        assert code == 0 and err == ""
        assert out == "\n".join(lines) + "\n\n"
        assert entry.read_bytes() == raw.encode("utf-8")

    def test_cache_entry_that_is_not_utf8_is_a_miss(self, capsys, tmp_path):
        from cfk.cli import _cache_path

        entry = Path(_cache_path(str(tmp_path), "T(3,4)"))
        # whole and a hit if read as Latin-1, or with the bad byte replaced
        stored = invariants_json(capsys, "T(3,4)")
        stored["upsilon"]["breakpoints"][0][0] = "0é"
        entry.write_bytes(json.dumps(stored, indent=2, ensure_ascii=False).encode("latin-1"))
        argv = ["invariants", "T(3,4)", "--no-timing"]
        code, out, err = run_capture(capsys, argv + ["--cache", str(tmp_path)])
        assert code == 0 and err == ""
        _, fresh, _ = run_capture(capsys, argv)
        assert out == fresh
        assert entry.read_bytes() + b"\n" == fresh.encode("utf-8")

    def test_cache_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CFK_CACHE_DIR", str(tmp_path / "envcache"))
        code, first, _ = run_capture(capsys, ["invariants", "T(2,3)", "--no-timing"])
        assert code == 0
        assert (tmp_path / "envcache").is_dir()
        code, second, _ = run_capture(capsys, ["invariants", "T(2,3)", "--no-timing"])
        assert second == first

    def test_module_entry_point(self, tmp_path):
        import subprocess

        proc = subprocess.run(
            [sys.executable, "-m", "cfk", "staircase", "3", "4"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["steps"] == [1, 2, 2, 1]

    def test_a_run_without_cache_loads_no_hashlib(self):
        import subprocess

        script = ("import sys; from cfk.cli import run; "
                  "code = run(['invariants', 'T(3,4)', '--no-timing']); "
                  "print(code, '_hashlib' in sys.modules, file=sys.stderr)")
        env = {k: v for k, v in child_env().items() if k != "CFK_CACHE_DIR"}
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.stderr == "0 False\n"
        assert json.loads(proc.stdout)["expression"] == "T(3,4)"

    def test_cache_file_is_named_by_the_sha256_of_the_canonical_form(self, tmp_path):
        import hashlib
        import subprocess

        proc = subprocess.run(
            [sys.executable, "-m", "cfk", "invariants", "T(4,3) # T(1,5)", "--no-timing",
             "--cache", str(tmp_path)],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        # the name caches written before keep, so they keep hitting
        name = hashlib.sha256(b"T(3,4)").hexdigest()[:24] + ".json"
        assert os.listdir(tmp_path) == [name]
        assert json.loads((tmp_path / name).read_text())["expression"] == "T(3,4)"

    def test_dash_expression_accepted(self, capsys):
        code, out, _ = run_capture(capsys, ["invariants", "-T(3,4)", "--no-timing"])
        assert code == 0
        assert json.loads(out)["expression"] == "-T(3,4)"


class TestMirroredArguments:
    """An argument that starts -T( or -( is an expression, read as it was typed."""

    def test_a_usage_error_quotes_a_leftover_expression_as_typed(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            run(["invariants", "T(2,3)", "-T(2,5)"])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.endswith("cfk: error: unrecognized arguments: -T(2,5)\n")

    def test_a_usage_error_quotes_an_expression_in_place_of_a_command_as_typed(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            run(["-T(2,3)"])
        assert exit_.value.code == 2
        assert "invalid choice: '-T(2,3)'" in capsys.readouterr().err

    def test_an_option_value_that_looks_like_a_mirror_reaches_its_option(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_capture(capsys, ["plot", "T(2,3)", "--out", "-(x).csv"])
        assert (code, out, err) == (0, "", "")
        assert os.listdir(tmp_path) == ["-(x).csv"]
        assert (tmp_path / "-(x).csv").read_text().splitlines()[1:] == [
            "0,1,0,1", "1,1,-1,1", "2,1,0,1"]

    def test_a_cache_directory_that_looks_like_a_mirror_is_used(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["invariants", "-T(3,4)", "--cache", "-T(c)", "--no-timing"]
        code, miss, _ = run_capture(capsys, argv)
        assert code == 0 and json.loads(miss)["expression"] == "-T(3,4)"
        assert os.listdir(tmp_path) == ["-T(c)"]
        (entry,) = os.listdir(tmp_path / "-T(c)")
        assert (tmp_path / "-T(c)" / entry).read_text() + "\n" == miss
        assert run_capture(capsys, argv) == (0, miss, "")


class TestVerifyRecursion:
    def test_five_seven(self, capsys):
        code, out, _ = run_capture(capsys, ["verify-recursion", "5", "7"])
        assert code == 0
        assert "EQUAL" in out

    def test_seven_nine_json(self, capsys):
        code, out, _ = run_capture(capsys, ["verify-recursion", "7", "9", "--json"])
        assert code == 0
        assert json.loads(out)["equal"] is True

    def test_degenerate_base_case(self, capsys):
        code, out, _ = run_capture(capsys, ["verify-recursion", "3", "4"])
        assert code == 0

    def test_invalid_exits_2(self, capsys):
        code, _, err = run_capture(capsys, ["verify-recursion", "4", "6"])
        assert code == 2


class TestDistinguish:
    def test_theorem_pair(self, capsys):
        code, out, _ = run_capture(
            capsys, ["distinguish", "T(5,7)", "T(2,5) # T(5,6)"]
        )
        assert code == 0
        assert "DISTINGUISHED" in out
        assert "4/5" in out

    def test_self_comparison(self, capsys):
        code, out, _ = run_capture(capsys, ["distinguish", "T(3,4)", "T(3,4)"])
        assert code == 1
        assert "NOT DISTINGUISHED" in out
        assert "not a proof" in out.lower() or "does not prove" in out

    def test_seven_nine_pair(self, capsys):
        code, out, _ = run_capture(
            capsys, ["distinguish", "T(7,9)", "T(2,7) # T(7,8)", "--json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["distinguished"] is True
        assert report["by"] == "upsilon2"

    def test_upsilon_differs(self, capsys):
        code, out, _ = run_capture(capsys, ["distinguish", "T(2,3)", "T(2,5)", "--json"])
        assert code == 0
        assert json.loads(out)["by"] == "upsilon"

    def test_parse_error(self, capsys):
        code, _, err = run_capture(capsys, ["distinguish", "T(2,3)", "nope"])
        assert code == 2

    @pytest.mark.parametrize("expressions", [
        ["-(T(2,3)", "T(2,5)"], ["T(2,5)", "-(T(2,3)"], ["(T(2,3)", "T(2,5)"],
    ])
    def test_parse_error_at_the_end_names_the_argument_length(self, capsys, expressions):
        text = next(e for e in expressions if e.endswith("(T(2,3)"))
        code, out, err = run_capture(capsys, ["distinguish"] + expressions)
        assert (code, out) == (2, "")
        assert err == f"error: expected ')' (at position {len(text)})\n"

    @pytest.mark.parametrize("command, opener", [
        (["invariants", "--no-timing"], "("), (["distinguish", "T(2,3)"], "-("),
    ])
    def test_over_deep_nesting_is_a_usage_error(self, capsys, command, opener):
        # a RecursionError would exit 1, which distinguish uses for NOT DISTINGUISHED
        deep = opener * 600 + "T(2,3)" + ")" * 600
        code, out, err = run_capture(capsys, command + [deep])
        assert (code, out) == (2, "")
        assert err.startswith("error: parentheses nested deeper than 100")
        assert len(err.splitlines()) == 1


class TestConjecture:
    def test_p5_k2(self, capsys):
        code, out, _ = run_capture(capsys, ["conjecture", "5", "2"])
        assert code == 0
        assert "DISTINGUISHED" in out

    def test_p5_k3_runs(self, capsys):
        code, out, _ = run_capture(capsys, ["conjecture", "5", "3", "--json"])
        assert code in (0, 1)
        json.loads(out)

    def test_preconditions(self, capsys):
        for argv in (["conjecture", "4", "2"], ["conjecture", "5", "4"],
                     ["conjecture", "6", "2"], ["conjecture", "5", "1"]):
            code, _, err = run_capture(capsys, argv)
            assert code == 2


class TestPlot:
    def test_csv(self, capsys, tmp_path):
        out_file = tmp_path / "u.csv"
        code, _, _ = run_capture(
            capsys, ["plot", "T(2,3)", "--out", str(out_file), "--format", "csv"]
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "t_num,t_den,v_num,v_den"
        assert lines[1:] == ["0,1,0,1", "1,1,-1,1", "2,1,0,1"]

    def test_flat_line_for_unknot(self, capsys, tmp_path):
        out_file = tmp_path / "flat.csv"
        code, _, _ = run_capture(
            capsys, ["plot", "T(2,1)", "--out", str(out_file), "--format", "csv"]
        )
        assert code == 0
        assert out_file.read_text().splitlines()[1:] == ["0,1,0,1", "2,1,0,1"]

    def test_svg_marks_singularity(self, capsys, tmp_path):
        out_file = tmp_path / "u.svg"
        code, _, _ = run_capture(
            capsys, ["plot", "T(5,7)", "--out", str(out_file), "--format", "svg"]
        )
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("<svg")
        assert "<title>t=4/5</title>" in text
        # deterministic bytes
        out2 = tmp_path / "u2.svg"
        run_capture(capsys, ["plot", "T(5,7)", "--out", str(out2), "--format", "svg"])
        assert out2.read_text() == text

    def test_svg_of_a_flat_upsilon(self, capsys, tmp_path):
        # every value is 0, so the plot spans [-1, 1] and the curve is the axis
        out_file = tmp_path / "flat.svg"
        code, out, err = run_capture(
            capsys, ["plot", "T(1,1)", "--out", str(out_file), "--format", "svg"]
        )
        assert (code, out, err) == (0, "", "")
        assert out_file.read_text(encoding="utf-8") == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" '
            'viewBox="0 0 640 480">\n'
            '<line x1="48.00" y1="240.00" x2="592.00" y2="240.00" stroke="#999" '
            'stroke-width="1"/>\n'
            '<polyline fill="none" stroke="#1f5fa8" stroke-width="2" '
            'points="48.00,240.00 592.00,240.00"/>\n'
            "</svg>\n"
        )

    def test_io_error_exits_3(self, capsys, tmp_path):
        code, _, err = run_capture(
            capsys,
            ["plot", "T(2,3)", "--out", str(tmp_path / "missing" / "u.csv")],
        )
        assert code == 3

    def test_parse_error_exits_2(self, capsys, tmp_path):
        code, _, _ = run_capture(
            capsys, ["plot", "T(6,9)", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2


class TestStaircase:
    def test_t34(self, capsys):
        code, out, _ = run_capture(capsys, ["staircase", "3", "4"])
        assert code == 0
        report = json.loads(out)
        assert report["steps"] == [1, 2, 2, 1]
        assert report["complex"]["generators"][0] == {
            "id": "x0", "alg": 0, "alex": 3, "maslov": 0
        }

    def test_t57(self, capsys):
        code, out, _ = run_capture(capsys, ["staircase", "5", "7"])
        report = json.loads(out)
        assert report["steps"] == [1, 4, 1, 1, 1, 2, 1, 1, 1, 1, 2, 1, 1, 1, 4, 1]

    def test_invalid(self, capsys):
        code, _, _ = run_capture(capsys, ["staircase", "4", "6"])
        assert code == 2

    def test_the_steps_are_the_gaps_of_the_alexander_exponents(self, capsys):
        pairs = [(p, q) for q in range(1, 16) for p in range(1, q + 1) if gcd(p, q) == 1]
        for p, q in pairs:
            # the unknot's polynomial 1 has one exponent, and so no gap
            exps = alexander_by_telescoping(p, q) if p > 1 else (0,)
            gaps = [b - a for a, b in zip(exps, exps[1:])]
            for args in ((p, q), (q, p)):
                report = printed_report(capsys, ["staircase", *map(str, args)])
                assert report["steps"] == gaps, args

    def test_the_alexander_polynomial_is_built_once(self, capsys, monkeypatch):
        built = []
        real = AlexanderPolynomial.__init__

        def counting(self, exponents):
            built.append(1)
            real(self, exponents)

        monkeypatch.setattr(AlexanderPolynomial, "__init__", counting)
        code, _, _ = run_capture(capsys, ["staircase", "5", "7"])
        assert code == 0 and len(built) == 1


def _count_functionals(monkeypatch):
    """A list that grows by one entry each time the class functional is eliminated."""
    complexes_module = sys.modules["cfk.complexes"]
    solved = []
    original = complexes_module._solve_lam

    def counting(gens, *args):
        solved.append(len(gens))
        return original(gens, *args)

    monkeypatch.setattr(complexes_module, "_solve_lam", counting)
    return solved


class TestReportHelpers:
    def test_recursion_report_gap_zero(self, capsys):
        report = recursion_json(capsys, 5, 7)
        assert report["equal"] and report["max_breakpoint_gap"] == "0"

    REFUSALS = {
        (0, 3): "torus knot parameters must be positive integers, got (0, 3)",
        (4, 6): "(4, 6) are not coprime",
        (5, 3): "need coprime 1 <= p < q, got (5, 3)",
        (1, 1): "need coprime 1 <= p < q, got (1, 1)",
    }

    @pytest.mark.parametrize("p, q", [
        (True, 3), (2, True), (2.0, 3), (2, "5"), (0, 3), (4, 6), (5, 3), (1, 1),
    ], ids=repr)
    def test_recursion_report_refuses_a_pair_out_of_scope(self, capsys, p, q):
        # each parameter as Python writes it: what is not an int, argparse refuses
        argv = ["verify-recursion", repr(p), repr(q), "--json"]
        if type(p) is type(q) is int:
            assert run_capture(capsys, argv) == (2, "", f"error: {self.REFUSALS[p, q]}\n")
            return
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid int value" in captured.err

    def test_build_report_counts(self, capsys):
        report = invariants_json(capsys, "T(2,5) # T(5,6)")
        assert report["generator_count"] == 45

    def test_distinguish_report_lists_separating_singularities(self, capsys):
        report = distinguish_json(capsys, "T(5,7)", "T(2,5) # T(5,6)")
        assert {"t": "4/5", "values": ["-8/5", "-12/5"]} in report[
            "separating_singularities"
        ]
        # the mirror-symmetric singularity separates as well
        assert {"t": "6/5", "values": ["-8/5", "-12/5"]} in report[
            "separating_singularities"
        ]

    def test_report_solves_no_class_functional(self, capsys, monkeypatch):
        # upsilon and every gamma2 build their own tables, and all of them
        # read the functional the builders derived
        solved = _count_functionals(monkeypatch)
        report = invariants_json(capsys, "-T(2,3) # T(5,6)")
        assert sum(s["upsilon2"] is not None for s in report["singularities"]) >= 2
        assert solved == []

    def test_distinguish_solves_no_class_functional(self, capsys, monkeypatch):
        solved = _count_functionals(monkeypatch)
        report = distinguish_json(capsys, "T(5,7)", "T(2,5) # T(5,6)")
        assert report["by"] == "upsilon2"
        assert solved == []


def _record_upsilon2_calls(monkeypatch):
    """A list that grows by (generator count, t0) each time the CLI computes an upsilon2."""
    cli = sys.modules["cfk.cli"]
    calls = []
    original = cli.upsilon2_at

    def recording(c, t0, ups=None):
        calls.append((len(c.generators), t0))
        return original(c, t0, ups=ups)

    monkeypatch.setattr(cli, "upsilon2_at", recording)
    return calls


class TestOneSingularityPass:
    def test_invariants_computes_upsilon2_at_each_positive_jump_in_order(
            self, capsys, monkeypatch):
        expression = "-T(2,3) # T(5,6)"
        calls = _record_upsilon2_calls(monkeypatch)
        report = invariants_json(capsys, expression)
        jumps = {F(s["t"]): F(s["slope_jump"]) for s in report["singularities"]}
        assert min(jumps.values()) < 0 < max(jumps.values())  # both kinds of jump
        positive = [t0 for t0, jump in jumps.items() if jump > 0]
        assert positive == sorted(positive)
        assert calls == [(report["generator_count"], t0) for t0 in positive]

    def test_distinguish_alternates_the_two_complexes(self, capsys, monkeypatch):
        calls = _record_upsilon2_calls(monkeypatch)
        report = distinguish_json(capsys, "T(5,7)", "T(2,5) # T(5,6)")
        assert report["by"] == "upsilon2"
        c1 = parse_knot_expression("T(5,7)")
        n1 = len(c1.generators)
        positive = [t0 for t0, jump in upsilon(c1).singularities() if jump > 0]
        assert len(positive) >= 2 and n1 != 45
        assert calls == [call for t0 in positive for call in ((n1, t0), (45, t0))]

    @pytest.mark.parametrize("expr1, expr2, by", [
        ("T(2,3)", "T(2,5)", "upsilon"),  # upsilon differs
        ("-T(2,3)", "-T(2,3)", None),  # no positive jump
    ])
    def test_distinguish_makes_no_call_without_a_positive_jump_to_compare(
            self, capsys, monkeypatch, expr1, expr2, by):
        calls = _record_upsilon2_calls(monkeypatch)
        report = distinguish_json(capsys, expr1, expr2)
        assert report.get("by") == by
        assert calls == []

    @pytest.mark.parametrize("expr1, expr2", [
        ("T(5,7)", "T(2,5) # T(5,6)"),
        ("-T(5,7)", "-T(2,5) # -T(5,6)"),
        ("T(5,7) # -T(3,4)", "T(2,5) # T(5,6) # -T(3,4)"),  # null at 2/3 and 4/3
        ("T(3,4) # -T(2,5)", "-T(2,5) # T(3,4)"),
    ])
    def test_distinguish_lists_where_the_invariant_reports_differ(self, capsys, expr1, expr2):
        reports = [invariants_json(capsys, e) for e in (expr1, expr2)]
        assert reports[0]["upsilon"] == reports[1]["upsilon"]
        values = [{s["t"]: s["upsilon2"] for s in r["singularities"]} for r in reports]
        expected = [{"t": t, "values": [v, values[1][t]]} for t, v in values[0].items()
                    if v is not None and v != values[1][t]]
        report = distinguish_json(capsys, expr1, expr2)
        assert report.get("separating_singularities", []) == expected
        assert report["distinguished"] == bool(expected)

    def test_recursion_gap_is_the_largest_difference_at_either_breakpoints(
            self, capsys, monkeypatch):
        # the torus knot recursion always holds, so fake upsilons give a nonzero gap
        rng = random.Random(1)

        def random_function():
            ts = sorted({F(rng.randint(1, 11), 6) for _ in range(rng.randint(0, 4))})
            return PiecewiseLinear(tuple((t, F(rng.randint(-9, 9), rng.randint(1, 4)))
                                         for t in [F(0), *ts, F(2)]))

        cli = sys.modules["cfk.cli"]
        for _ in range(40):
            lhs, rhs1, rhs2 = (random_function() for _ in range(3))
            fakes = iter([lhs, rhs1, rhs2])  # in the order verify-recursion asks
            monkeypatch.setattr(cli, "upsilon", lambda c: next(fakes))
            rhs = rhs1 + rhs2
            ts = {t for t, _ in lhs.breakpoints} | {t for t, _ in rhs.breakpoints}
            report = recursion_json(capsys, 2, 3)
            assert report["max_breakpoint_gap"] == str(max(abs(lhs(t) - rhs(t)) for t in ts))
            assert report["equal"] == (lhs == rhs)


def _upsilon2_references(tree: ast.Module) -> list[str]:
    """The top-level definition holding each reference to upsilon2_at, in order."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == "upsilon2_at"
                    or isinstance(node, ast.Attribute) and node.attr == "upsilon2_at"):
                found.append(getattr(top, "name", "<module>"))
    return found


def test_the_cli_computes_upsilon2_in_one_place():
    # the rule for which singularity gets an upsilon2 is written once
    path = Path(__file__).resolve().parents[1] / "src" / "cfk" / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert _upsilon2_references(tree) == ["_upsilon2s"]


def test_an_upsilon2_reference_is_found():
    tree = ast.parse("from .upsilon2 import upsilon2_at\n"
                     "def a(c):\n    return [upsilon2_at(c, t) for t in (1, 2)]\n"
                     "class B:\n    def f(self, m):\n        return m.upsilon2_at\n"
                     "g = upsilon2_at\n")
    assert _upsilon2_references(tree) == ["a", "B", "<module>"]


TEN_TREFOILS = " # ".join(["T(2,3)"] * 10)


@pytest.fixture
def count_scans(monkeypatch):
    """A list that gets the text of each scan of a knot expression."""
    import cfk.expressions

    scans = []
    real = cfk.expressions.parse_knot_factors

    def counting(text):
        scans.append(text)
        return real(text)

    monkeypatch.setattr(cfk.expressions, "parse_knot_factors", counting)
    return scans


class TestSizeGuard:
    def test_refused_before_anything_is_built(self, capsys, monkeypatch, tmp_path):
        # every command that builds a complex answers from the factor sizes alone
        import cfk.cli

        def forbidden(*args, **kwargs):
            raise AssertionError("a complex was built")

        monkeypatch.setattr(cfk.cli, "knot_complex", forbidden)
        monkeypatch.setattr(cfk.cli, "torus_knot_complex", forbidden)
        for argv, count in (
            (["invariants", TEN_TREFOILS], "59049"),
            (["distinguish", "T(2,3)", TEN_TREFOILS], "59049"),
            (["plot", TEN_TREFOILS, "--out", str(tmp_path / "u.csv")], "59049"),
            (["conjecture", "101", "2"], "5201"),
            (["verify-recursion", "2", "5003"], "5003"),
            (["staircase", "1001", "200000"], "1990009"),
        ):
            started = time.perf_counter()
            code, out, err = run_capture(capsys, argv)
            assert time.perf_counter() - started < 1
            assert code == 2
            assert out == ""
            assert err.count("\n") == 1 and err.startswith("error: ")
            assert count in err
        assert not (tmp_path / "u.csv").exists()

    def test_the_size_is_counted_from_one_parse(self, capsys, monkeypatch, count_scans):
        import cfk.cli

        # the size is counted from the factors of the one scan
        factors = cfk.cli.canonical_factors("T(3,4) # T(2,5)")
        cfk.cli._check_size(factors, 25)
        assert count_scans == ["T(3,4) # T(2,5)"]
        with pytest.raises(cfk.cli.ComplexTooLargeError, match="has 25 generators"):
            cfk.cli._check_size(factors, 24)
        count_scans.clear()
        # a miss: the canonical form, the size, the cache key and the complex
        # all come from one scan
        code, _, _ = run_capture(capsys, ["invariants", "T(2,5) # T(4,3)", "--no-timing"])
        assert code == 0 and len(count_scans) == 1

    def test_limit_is_inclusive(self, capsys):
        # T(2,5) # T(5,6) has 45 generators
        code, _, _ = run_capture(
            capsys, ["invariants", "T(2,5) # T(5,6)", "--no-timing", "--max-generators", "45"]
        )
        assert code == 0
        code, _, err = run_capture(
            capsys, ["invariants", "T(2,5) # T(5,6)", "--max-generators", "44"]
        )
        assert code == 2 and "45" in err

    def test_refused_expression_is_not_cached(self, capsys, tmp_path):
        code, _, _ = run_capture(
            capsys, ["invariants", "T(3,4)", "--cache", str(tmp_path), "--max-generators", "4"]
        )
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_lower_bound_refuses_before_counting(self, capsys):
        # the semigroup of T(1001,200000) has about 2e8 elements below its
        # conductor; the exact count needs only 1001 exponent runs
        started = time.perf_counter()
        code, out, err = run_capture(capsys, ["invariants", "T(1001,200000)"])
        assert time.perf_counter() - started < 1
        assert code == 2 and out == ""
        assert err == ("error: T(1001,200000) has 1990009 generators, "
                       "more than --max-generators 5000\n")

    @pytest.mark.parametrize("argv", [
        ["invariants", "T(2,100000000000000000001)"],
        ["staircase", "2", "100000000000000000001"],
        ["verify-recursion", "3", "100000000000000000000"],
        ["conjecture", "100000000000000000001", "2"],
    ])
    def test_huge_parameters_are_refused_quickly(self, capsys, argv):
        started = time.perf_counter()
        code, out, err = run_capture(capsys, argv)
        assert time.perf_counter() - started < 1
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "more than --max-generators 5000" in err

    def test_factor_above_the_limit_is_refused_without_counting(self, capsys, monkeypatch):
        # T(p,q) with 2 <= p < q has at least q generators
        import cfk.complexes

        def forbidden(*args, **kwargs):
            raise AssertionError("exponent runs were counted")

        monkeypatch.setattr(cfk.complexes, "_exponent_runs", forbidden)
        code, out, err = run_capture(capsys, ["invariants", "T(2,3) # T(5001,5002)"])
        assert code == 2 and out == ""
        assert err == ("error: T(2,3) # T(5001,5002) has at least 5002 generators, "
                       "more than --max-generators 5000\n")

    def test_exact_count_near_the_limit_is_quick(self, capsys):
        # about twice the limit, from a semigroup of 2.5e7 elements below its conductor
        started = time.perf_counter()
        code, out, err = run_capture(capsys, ["invariants", "T(4999,5000)"])
        assert time.perf_counter() - started < 1
        assert code == 2 and out == ""
        assert "9997" in err

    @pytest.mark.parametrize("argv", [
        ["invariants", "T(2,{nines})"],
        ["distinguish", "T(2,3)", "-T(2,{nines})"],
        ["plot", "T(2,{nines})", "--out", "{tmp}/p.csv"],
    ], ids=lambda argv: argv[0])
    def test_overlong_integer_is_bad_input(self, capsys, tmp_path, argv):
        # more digits than int() converts by default (sys.int_info.default_max_str_digits)
        argv = [a.format(nines="9" * 4400, tmp=tmp_path) for a in argv]
        started = time.perf_counter()
        code, out, err = run_capture(capsys, argv)
        assert time.perf_counter() - started < 1
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "4400 digits" in err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["invariants", "T(2,{nines}) # T(2,{nines})"],
        ["distinguish", "T(2,3)", "T(2,{nines}) # -T(2,{nines})"],
        ["plot", "T(2,{nines}) # T(2,{nines})", "--out", "{tmp}/p.csv"],
    ], ids=lambda argv: argv[0])
    def test_count_with_more_digits_than_str_converts(self, capsys, tmp_path, argv):
        # each parameter parses, but their product has 6000 digits
        argv = [a.format(nines="9" * 3000, tmp=tmp_path) for a in argv]
        started = time.perf_counter()
        code, out, err = run_capture(capsys, argv)
        assert time.perf_counter() - started < 1
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert err.endswith(" has a 6000-digit number of generators, "
                           "more than --max-generators 5000\n")
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["invariants", "T(2,3)"],
        ["distinguish", "T(2,3)", "T(2,5)"],
        ["plot", "T(2,3)", "--out", "{tmp}/p.csv"],
        ["conjecture", "5", "2"],
        ["verify-recursion", "2", "5"],
        ["staircase", "2", "3"],
    ], ids=lambda argv: argv[0])
    def test_limit_below_one_is_a_usage_error(self, capsys, tmp_path, argv):
        for limit in ("0", "-5"):
            with pytest.raises(SystemExit) as info:
                run([a.format(tmp=tmp_path) for a in argv] + ["--max-generators", limit])
            assert info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage: ")
            assert f"argument --max-generators: must be at least 1, got {limit}" in captured.err
        assert not (tmp_path / "p.csv").exists()


# (subcommand, bad input, good input, the cfk.cli name the good input calls)
BOUNDARY_CASES = [
    ("invariants", ["T(2,3) @ T(2,5)"], ["T(3,4)", "--no-timing"], "upsilon"),
    ("verify-recursion", ["4", "6"], ["5", "7"], "upsilon"),
    ("distinguish", ["T(2,3)", "nope"], ["T(3,4)", "T(2,5)"], "upsilon"),
    ("conjecture", ["4", "2"], ["5", "2"], "upsilon"),
    ("plot", ["T(6,9)", "--out", "{tmp}/x.csv"], ["T(2,3)", "--out", "{tmp}/y.csv"], "upsilon"),
    ("staircase", ["4", "6"], ["3", "4"], "torus_knot_complex"),
]


@pytest.mark.parametrize("command, bad, good, callee", BOUNDARY_CASES,
                         ids=[case[0] for case in BOUNDARY_CASES])
def test_error_boundary(capsys, tmp_path, monkeypatch, command, bad, good, callee):
    import cfk.cli

    def argv(args):
        return [command] + [a.format(tmp=tmp_path) for a in args]

    code, out, err = run_capture(capsys, argv(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1

    # a fault that is not bad input is a bug: it propagates, it is not exit 2
    def broken(*args, **kwargs):
        raise RuntimeError("bug")

    monkeypatch.setattr(cfk.cli, callee, broken)
    with pytest.raises(RuntimeError, match="bug"):
        run(argv(good))


@pytest.fixture
def fresh_parser():
    """Clear the memoised parser before and after the test."""
    import cfk.cli

    cfk.cli._parser.cache_clear()
    yield cfk.cli._parser
    cfk.cli._parser.cache_clear()


class TestParserReuse:
    def test_two_runs_build_the_parser_once(self, capsys, monkeypatch, fresh_parser):
        import cfk.cli

        built = []
        real = cfk.cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cfk.cli, "build_parser", counting)
        assert run(["staircase", "2", "3"]) == 0
        assert run(["invariants", "T(2,3)", "--no-timing"]) == 0
        assert len(built) == 1

    def test_no_state_carries_across_calls(self, capsys, tmp_path, monkeypatch, fresh_parser):
        from cfk.cli import _cache_path

        cache = tmp_path / "cache"
        cache.mkdir()
        # a doctored entry shows whether a call read the cache
        doctored = invariants_json(capsys, "T(3,4)")
        doctored["generator_count"] = 1
        entry = _cache_path(str(cache), "T(3,4)")
        with open(entry, "w", encoding="utf-8") as fh:
            json.dump(doctored, fh, indent=2)
        # (argv, CFK_CACHE_DIR): each call would change if the one before leaked
        steps = [
            (["invariants", "T(3,4)", "--no-timing", "--max-generators", "24"], None),
            (["invariants", "T(3,4) # T(2,5)", "--no-timing"], None),  # 25 generators
            (["invariants", "T(3,4)", "--no-timing", "--cache", str(cache)], None),
            (["invariants", "T(3,4)", "--no-timing"], None),
            (["invariants", "T(3,4)", "--no-timing"], str(cache)),
            (["invariants", "T(3,4)", "--no-timing"], None),
            (["invariants", "T(3,4)", "--max-generators", "0"], None),
            (["plot", "T(2,3)"], None),
            (["--help"], None),
            (["invariants", "--help"], None),
            (["invariants", "T(3,4)", "--no-timing"], None),
            # refused after the subparser has filled in its arguments
            (["invariants", "T(3,4)", "--no-timing", "extra"], None),
            (["invariants", "-T(3,4)", "--no-timing", "--cache", str(cache), "-x"], None),
            (["invariants", "T(3,4)", "--no-timing"], None),
        ]

        def run_step(argv, env):
            if env is None:
                monkeypatch.delenv("CFK_CACHE_DIR", raising=False)
            else:
                monkeypatch.setenv("CFK_CACHE_DIR", env)
            # a usage error or --help ends in SystemExit; its code is compared too
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        expected = []
        for argv, env in steps:
            fresh_parser.cache_clear()
            expected.append(run_step(argv, env))
        fresh_parser.cache_clear()
        assert [run_step(argv, env) for argv, env in steps] == expected
        assert fresh_parser.cache_info().misses == 1

        codes = [code for code, _, _ in expected]
        assert codes == [0, 0, 0, 0, 0, 0, 2, 2, 0, 0, 0, 2, 2, 0]
        served = [json.loads(out)["generator_count"] for _, out, _ in expected[2:6]]
        assert served == [1, 5, 1, 5]
        assert expected[1][1] and expected[8][1].startswith("usage: cfk")
        assert expected[10] == expected[13]
        assert [err.splitlines()[-1] for _, _, err in expected[11:13]] == [
            "cfk: error: unrecognized arguments: extra",
            "cfk: error: unrecognized arguments: -x"]
        assert os.listdir(cache) == [os.path.basename(entry)]

    def test_import_builds_no_parser(self):
        import subprocess

        proc = subprocess.run(
            [sys.executable, "-c",
             "import cfk.cli; print(cfk.cli._parser.cache_info().currsize)"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0 and proc.stdout == "0\n"

    def test_a_hit_builds_nothing(self, capsys, tmp_path, monkeypatch, count_scans):
        import cfk.cli

        argv = ["invariants", "T(3,4) # T(2,5)", "--no-timing", "--cache", str(tmp_path)]
        code, fresh, _ = run_capture(capsys, argv)
        assert code == 0

        def forbidden(*args, **kwargs):
            raise AssertionError("a cache hit built something")

        for name in ("knot_complex", "upsilon", "_check_size"):
            monkeypatch.setattr(cfk.cli, name, forbidden)
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(cfk.cli, "open", counting_open, raising=False)
        count_scans.clear()
        assert run_capture(capsys, argv) == (0, fresh, "")
        # one scan of the expression and one open of the entry
        assert count_scans == ["T(3,4) # T(2,5)"]
        assert opened == [str(next(tmp_path.iterdir()))]

    def test_a_hit_encodes_nothing_and_prints_the_fresh_bytes(
            self, capsys, tmp_path, monkeypatch):
        import cfk.cli

        argv = ["invariants", "T(3,4) # T(2,5)", "--no-timing", "--cache", str(tmp_path)]
        code, fresh, _ = run_capture(capsys, argv)
        assert code == 0
        [entry] = tmp_path.iterdir()
        assert entry.read_bytes() + b"\n" == fresh.encode("utf-8")

        def forbidden(*args, **kwargs):
            raise AssertionError("a cache hit encoded a report")

        for name in ("dumps", "dump"):
            monkeypatch.setattr(cfk.cli.json, name, forbidden)
        assert run_capture(capsys, argv) == (0, fresh, "")


# argvs that end in the parser, with a usage error or with help
PARSE_EXITS = [
    *[[command, "--help"] for command in
      ("invariants", "verify-recursion", "distinguish", "conjecture", "plot", "staircase")],
    ["invariants"], ["verify-recursion", "5"], ["distinguish", "T(2,3)"],
    ["conjecture", "5"], ["plot", "T(2,3)"], ["staircase"],
    ["invariants", "T(2,3)", "extra"], ["staircase", "2", "3", "4"],
    ["distinguish", "T(2,3)", "T(3,4)", "T(2,5)", "--json"],
    ["invariants", "T(2,3)", "--bogus"], ["conjecture", "5", "2", "--x=1"],
    ["invariants", "T(2,3)", "--bogus", "x", "y"],
    ["-h"], ["invariants", "-h"], ["invariants", "T(2,3)", "--he"], [],
    ["invariant", "T(2,3)"], ["bogus"], ["--", "invariants", "T(2,3)"],
    ["--help", "invariants"], ["-h", "staircase", "2", "3"],
    ["--no-timing", "invariants", "T(2,3)"],
    ["invariants", "-T(2,3)", "-T(3,4)"], ["distinguish", "-T(2,3)"], ["-T(2,3)"],
    ["invariants", "--", "-T(2,3)", "-(T(2,3))"],
    ["staircase", "x", "3"], ["invariants", "T(2,3)", "--max-generators", "0"],
    ["invariants", "T(2,3)", "--m", "many"], ["invariants", "T(2,3)", "--cache"],
    ["plot", "T(2,3)", "--out", "u.csv", "--format", "png"],
]

# argvs that parse
PARSES = [
    ["invariants", "T(2,3)"], ["invariants", "invariants"],
    ["invariants", "-T(2,3)", "--no-timing", "--cache", "d", "--max-generators", "7"],
    ["invariants", "--no", "-(T(2,3) # T(3,4))"], ["invariants", "--", "-T(2,3)"],
    ["verify-recursion", "3", "7", "--json"], ["distinguish", "T(2,3)", "-T(2,3)", "--json"],
    ["conjecture", "5", "2", "--max-generators=9"],
    ["plot", "T(2,3)", "--out=u.svg", "--format", "svg"], ["staircase", "-5", "3"],
]


def top_parse(argv):
    """parse_args of a fresh top parser, which hands a command word to its subparser."""
    from cfk.cli import build_parser

    return build_parser().parse_args(argv)


@pytest.fixture
def count_parses(monkeypatch):
    """A list that gets one entry per ArgumentParser.parse_known_args call."""
    import argparse

    calls = []
    real = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    return calls


class TestDirectDispatch:
    @pytest.mark.parametrize("argv", PARSE_EXITS, ids=" ".join)
    def test_a_parse_exit_is_the_top_parsers(self, capsys, argv):
        with pytest.raises(SystemExit) as expected:
            top_parse(argv)
        expected_out = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            run(argv)
        assert got.value.code == expected.value.code
        assert capsys.readouterr() == expected_out

    @pytest.mark.parametrize("argv", PARSES, ids=" ".join)
    def test_a_parse_gives_the_top_parsers_namespace(self, argv):
        from cfk.cli import _parse

        args, expected = _parse(argv), top_parse(argv)
        assert args == expected and list(vars(args)) == list(vars(expected))

    @pytest.mark.parametrize("argv", [
        ["invariants", "T(2,3)", "--no-timing"],
        ["verify-recursion", "2", "5"],
        ["distinguish", "T(2,3)", "-T(2,3)"],
        ["conjecture", "5", "2"],
        ["plot", "T(2,3)", "--out", "{tmp}/u.csv"],
        ["staircase", "2", "3"],
    ], ids=lambda argv: argv[0])
    def test_each_command_parses_once(self, capsys, tmp_path, count_parses, argv):
        argv = [a.format(tmp=tmp_path) for a in argv]
        top_parse(argv)
        assert count_parses == ["cfk", f"cfk {argv[0]}"]
        count_parses.clear()
        assert run(argv) in (0, 1)
        assert count_parses == [f"cfk {argv[0]}"]
