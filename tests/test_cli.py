"""Command-line interface: parsing, commands, exit codes, determinism."""

import fractions
import gc
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from closurelab import cli, cone as cone_module, covering, errors, linalg, polyhedron, verify
from closurelab.cli import main
from closurelab.errors import (
    ContractViolation,
    EmptyClosureError,
    InconsistentSystemError,
    InternalInvariantError,
    InvalidInequalityError,
    NotFullDimensionalError,
    NotPointedError,
    ParseError,
)
from closurelab.lp import ConeMembership, LpResult, LpStatus
from closurelab.io import format_cone, parse_instance
from closurelab.polyhedron import parse_inequality
from closurelab.covering import CoveringInstance
from closurelab.cone import GeneratedCone, is_valid_for_closure
from closurelab.verify import random_pointed_cones

COVERING = """\
kind: covering
n: 2
m: 1
M: 1 2
d: 3
"""

TWO_ROW = """\
# a two-row covering instance
kind: covering
n: 2
m: 2
M: 1 2
M: 2 1
d: 3 3
"""

CONE = """\
kind: cone
n: 2
G: 1 0 1
G: 0 1 1
G: -1 0 0
G: 0 -1 0
G: 0 0 1
"""

LINE_CONE = """\
kind: cone
n: 2
G: 1 0 0
G: -1 0 0
G: 0 0 1
"""


SRC = str(Path(__file__).resolve().parent.parent / "src")
INSTANCES = Path(__file__).resolve().parent.parent / "instances"
UNIT_SQUARE = str(INSTANCES / "unit_square_cone.txt")

# one digit more than int() reads from a string
LONG = "1" * (sys.get_int_max_str_digits() + 1)
TOO_LONG = f"number has more than {sys.get_int_max_str_digits()} digits"


def cli_env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_instance_kinds():
    assert isinstance(parse_instance(COVERING).payload, CoveringInstance)
    assert isinstance(parse_instance(CONE).payload, GeneratedCone)
    # no command reads the H-, V- or point-set kinds, so the format has none
    for text in ("kind: hrep\nn: 2\nH: 1 1 <= 2\nH: 1 0 >= 0\n",
                 "kind: vrep\nn: 2\nV: 0 2\nR: 1 0\n",
                 "kind: pointset\nn: 2\nP: 1 2\nP: 0 2\n"):
        with pytest.raises(ParseError):
            parse_instance(text)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_instance("kind: covering\nn: 2\nm: 1\nM: 1 0.5\nd: 3\n")
    assert err.value.line == 4
    with pytest.raises(ParseError):
        parse_instance("kind: widget\nn: 2\n")
    with pytest.raises(ParseError):
        parse_instance("n: 2\nkind: covering\n")
    with pytest.raises(ParseError):
        parse_instance("kind: covering\nm: 1\nM: 1 2\nd: 3\n")
    with pytest.raises(ParseError):  # m says 2, only one M row
        parse_instance("kind: covering\nn: 2\nm: 2\nM: 1 2\nd: 3 3\n")
    with pytest.raises(ParseError):  # generator width must be n+1
        parse_instance("kind: cone\nn: 2\nG: 1 0\n")


def test_parse_instance_rejects_repeated_sizes_and_cone_m():
    cases = [
        ("kind: covering\nn: 2\nm: 1\nM: 1 1\nd: 3\nd: 5\n", 6, "repeated 'd' line"),
        ("kind: covering\nn: 2\nn: 3\nm: 1\nM: 1 1\nd: 3\n", 3, "repeated 'n' line"),
        ("kind: covering\nn: 2\nm: 1\nm: 1\nM: 1 1\nd: 3\n", 4, "repeated 'm' line"),
        ("kind: cone\nn: 2\nm: 1\nG: 1 0 1\n", 3, "kind 'cone' does not accept 'm' lines"),
    ]
    for text, line, message in cases:
        with pytest.raises(ParseError, match=message) as err:
            parse_instance(text)
        assert (err.value.line, err.value.column) == (line, 1)


def test_repeated_demand_line_exits_2(tmp_path, capsys):
    path = write(tmp_path, "cov.txt", COVERING + "d: 5\n")
    code, out, err = run_cli(["hull", path], capsys)
    assert (code, out) == (2, "")
    assert err == "error: line 6, column 1: repeated 'd' line\n"


@pytest.mark.parametrize("text, err_text", [
    ("kind: covering\nn: 2\nm: 1\nM:  1   x\nd: 3\n",
     "error: line 4, column 9: not a rational token: 'x'\n"),
    ("kind: covering\nn: 2\nm: 1\nM: 1 1\nd: 3 1/0\n",
     "error: line 5, column 6: not a rational token: '1/0'\n"),
    ("kind: cone\nn: 2\nG:\t1 y 0  # tab and comment\n",
     "error: line 3, column 6: not a rational token: 'y'\n"),
    ("kind: covering\nn:   abc\n", "error: line 2, column 6: n must be an integer, got 'abc'\n"),
    ("kind: covering\nn: 2\n m:  0\n", "error: line 3, column 6: m must be at least 1, got 0\n"),
    ("kind:   widget\nn: 2\n",
     "error: line 1, column 9: unknown kind 'widget'; expected one of covering, cone\n"),
    ("kind: covering\nn: 1_0\n", "error: line 2, column 4: n must be an integer, got '1_0'\n"),
    ("kind: covering\nn: \uff12\n",
     "error: line 2, column 4: n must be an integer, got '\uff12'\n"),
    ("kind: covering\nn: 2\nm: 1\nM: 1 \u0663\nd: 3\n",
     "error: line 4, column 6: not a rational token: '\u0663'\n"),
    # cone generators are read with int(), which alone would take both tokens
    ("kind: cone\nn: 2\nG: 1_0 0 1\n", "error: line 3, column 4: not a rational token: '1_0'\n"),
    ("kind: cone\nn: 2\nG: 1 \u0663 1\n",
     "error: line 3, column 6: not a rational token: '\u0663'\n"),
    # more digits than int() reads
    (f"kind: covering\nn: 2\nm: 1\nM: 1 {LONG}\nd: 3\n",
     f"error: line 4, column 6: {TOO_LONG}\n"),
    (f"kind: covering\nn: {LONG}\n", f"error: line 2, column 4: {TOO_LONG}\n"),
], ids=["M token", "d token", "tab", "n integer", "m at least 1", "kind",
        "n underscore", "n fullwidth digit", "M arabic-indic digit",
        "G underscore", "G arabic-indic digit", "M over-long", "n over-long"])
def test_instance_parse_error_columns_count_in_the_raw_line(tmp_path, capsys, text, err_text):
    code, out, err = run_cli(["hull", write(tmp_path, "bad.txt", text)], capsys)
    assert (code, out, err) == (2, "", err_text)


@pytest.mark.parametrize("command, text, err_text", [
    (("cone", "theorem1"), "kind: cone\nn: 2\n   m: 1\nG: 1 0 0\n",
     "error: line 3, column 4: kind 'cone' does not accept 'm' lines (expected G)\n"),
    (("hull",), "kind: covering\nn: 2\n  n: 3\n",
     "error: line 3, column 3: repeated 'n' line\n"),
    (("hull",), "kind: covering\nn: 2\nm: 1\nM: 1 1\nd: 3\n\td: 5\n",
     "error: line 6, column 2: repeated 'd' line\n"),
    (("hull",), "# header\n    n: 2\nkind: covering\n",
     "error: line 2, column 5: first directive must be 'kind', got 'n'\n"),
], ids=["key not accepted", "repeated size", "repeated d", "first not kind"])
def test_indented_key_errors_report_the_key_column(tmp_path, capsys, command, text,
                                                    err_text):
    name, *rest = command
    code, out, err = run_cli([name, write(tmp_path, "bad.txt", text), *rest], capsys)
    assert (code, out, err) == (2, "", err_text)


@pytest.mark.parametrize("command, text, err_text", [
    (("hull",), "kind: covering\nn: 2\nm: 2\nM: 1 1\nM: 1 -1\nd: 3 3\n",
     "error: line 5, column 6: covering data must be nonnegative: M[2][2] = -1\n"),
    (("hull",), "kind: covering\nn: 2\nm: 2\nM: 1 1\nM: 1 1\nd: 3 -3\n",
     "error: line 6, column 6: covering data must be nonnegative: d[2] = -3\n"),
    (("hull",), "kind: covering\nn: 2\nm: 2\nM: 1 1\nM: 0 0\nd: 3 3\n",
     "error: line 5, column 4: row 2 demands 3 with all-zero coefficients; "
     "the instance would be empty\n"),
    (("cone", "rays"), "kind: cone\nn: 2\nG: 1 0 0\nG: 0 0 0\n",
     "error: line 4, column 4: the zero vector is not a legal generator\n"),
    # rational data is stored times one common denominator; values print as given
    (("hull",), "kind: covering\nn: 2\nm: 2\nM: 1/2 1\nM: 1 -1/3\nd: 3 3\n",
     "error: line 5, column 6: covering data must be nonnegative: M[2][2] = -1/3\n"),
    (("hull",), "kind: covering\nn: 2\nm: 2\nM: 1 1\nM: 1 1/2\nd: 3/2 -3/4\n",
     "error: line 6, column 8: covering data must be nonnegative: d[2] = -3/4\n"),
    (("hull",), "kind: covering\nn: 2\nm: 2\nM: 1 1/3\nM: 0 0\nd: 3 5/2\n",
     "error: line 5, column 4: row 2 demands 5/2 with all-zero coefficients; "
     "the instance would be empty\n"),
], ids=["negative M entry", "negative demand", "zero row with demand", "zero generator",
        "negative rational M entry", "negative rational demand",
        "zero row with rational demand"])
def test_instance_data_errors_point_at_the_bad_value(tmp_path, capsys, command, text,
                                                     err_text):
    # an entry error points at its token, a whole-row error at the row's first token
    name, *rest = command
    code, out, err = run_cli([name, write(tmp_path, "bad.txt", text), *rest], capsys)
    assert (code, out, err) == (2, "", err_text)


# error paths no other test reaches: each exits 2 with one stderr line.
# ``text`` is written to a file passed as the instance; None passes a
# path that does not exist
@pytest.mark.parametrize("args, text, err_text", [
    (("hull",), "", "error: line 1, column 1: empty instance file\n"),
    (("hull",), "# only a comment\n", "error: line 1, column 1: empty instance file\n"),
    (("hull",), "kind: covering\nn 2\n", "error: line 2, column 1: expected 'key: value'\n"),
    (("hull",), "kind: covering\nn: 2\nM: 1 1\nd: 3\n",
     "error: line 3, column 1: covering instance needs an 'm' directive\n"),
    (("hull",), "kind: covering\nn: 2\nm: 1\nM: 1 1\n",
     "error: line 4, column 1: covering instance needs a 'd' line\n"),
    (("hull",), "kind: covering\nn: 2\nm: 1\nM: 1 1\nd: 3 3\n",
     "error: line 5, column 1: 'd' needs 1 entries, found 2\n"),
    (("cone", "rays"), "kind: cone\nn: 2\n",
     "error: line 1, column 1: cone instance needs at least one 'G' line\n"),
    (("hull",), None, "error: cannot read {path}: No such file or directory\n"),
    (("cone", "fii"), CONE,
     'error: fii needs an inequality argument, e.g. "x1 + x2 <= 2"\n'),
    (("cone", "fii", "x1 + x2"), CONE, "error: inequality needs '<=' or '>=': 'x1 + x2'\n"),
], ids=["empty file", "comments only", "no colon", "covering without m",
        "covering without d", "d too long", "cone without G", "missing file",
        "fii without inequality", "inequality without relation"])
def test_input_error_paths_exit_2(tmp_path, capsys, args, text, err_text):
    command, *rest = args
    path = str(tmp_path / "missing.txt") if text is None else write(tmp_path, "in.txt", text)
    code, out, err = run_cli([command, path, *rest], capsys)
    assert (code, out, err) == (2, "", err_text.format(path=path))


def test_verify_prints_counterexamples_and_exits_5(monkeypatch, capsys):
    # a failing suite's dumps are printed line by line under
    # <suite>-counterexamples, and the run exits 5
    def failing(seed):
        report = verify.SuiteReport("cone", seed)
        report.check(True, lambda: "not printed")
        report.check(False, lambda: f"first failure at seed {seed}\nkind: cone")
        report.check(False, lambda: "second failure")
        return report

    monkeypatch.setattr(verify, "suite_cone", failing)
    code, out, err = run_cli(["verify", "cone", "--seed", "3"], capsys)
    assert (code, err) == (5, "")
    assert out == ("command: verify\nversion: 0.1.0\nseed: 3\nsuite: cone\n"
                   "cone: FAIL (3 checks)\ncone-counterexamples: 3\n"
                   "  first failure at seed 3\n  kind: cone\n  second failure\n"
                   "result: FAIL\n")


def _dumped(out, suite, head):
    """The dumps under <suite>-counterexamples, each a (first line, rest)
    pair; a dump starts at an entry that begins with ``head``."""
    block = out.split(f"\n{suite}-counterexamples: ", 1)[1]
    dumps = []
    for line in block.splitlines()[1:]:
        if not line.startswith("  "):
            break
        if line[2:].startswith(head):
            dumps.append((line[2:], []))
        else:
            dumps[-1][1].append(line[2:] + "\n")
    return [(first, "".join(rest)) for first, rest in dumps]


def test_verify_covering_dumps_parse_back_to_the_drawn_instances(monkeypatch, capsys):
    # an oracle that drops a point fails the oracle and the enlarged-box
    # checks on every instance; each dump is the drawn instance, printed
    # by format_covering
    drawn = []
    real_draw, real_oracle = verify.random_covering, verify.brute_force_minimal_points

    def draw(rng):
        drawn.append(real_draw(rng))
        return drawn[-1]

    monkeypatch.setattr(verify, "random_covering", draw)
    monkeypatch.setattr(verify, "brute_force_minimal_points",
                        lambda q, slack=0: real_oracle(q, slack)[1:])
    code, out, err = run_cli(["verify", "covering", "--seed", "1"], capsys)
    assert (code, err) == (5, "")
    assert "\ncovering: FAIL (800 checks)\ncovering-counterexamples: " in out
    assert out.endswith("\nresult: FAIL\n")
    dumps = _dumped(out, "covering", "instance ")
    assert len(dumps) == 2 * len(drawn) == 200
    for i, (first, text) in enumerate(dumps):
        reason = "minimal points " if i % 2 == 0 else "minimal points change when the box grows"
        assert first.startswith(f"instance {i // 2}: {reason}")
        assert parse_instance(text).payload == drawn[i // 2]


def test_verify_cone_dumps_shrink_to_the_failing_generators(monkeypatch, capsys):
    # check_theorem1 made to fail on every cone of three or more
    # generators: each dump is its drawn cone shrunk to three of them
    real = verify.check_theorem1

    def failing(k):
        rep = real(k)
        if len(k.int_generators) < 3:
            return rep
        return cone_module.Theorem1Report(False, rep.pointed, rep.extreme_rows, "forced")

    monkeypatch.setattr(verify, "check_theorem1", failing)
    code, out, err = run_cli(["verify", "cone", "--seed", "1"], capsys)
    assert (code, err) == (5, "")
    assert out.endswith("\nresult: FAIL\n")
    drawn = [k.int_generators for k in random_pointed_cones(seed=1)
             if len(k.int_generators) >= 3]
    dumps = _dumped(out, "cone", "theorem-1 cross-check failed")
    assert f"\ncone-counterexamples: {6 * len(dumps)}\n" in out
    assert len(dumps) == len(drawn) and any(len(gens) > 3 for gens in drawn)
    for gens, (first, text) in zip(drawn, dumps):
        assert first == "theorem-1 cross-check failed: forced"
        shrunk = parse_instance(text).payload.int_generators
        assert len(shrunk) == 3 and set(shrunk) <= set(gens)
        assert len(shrunk) < len(gens) or shrunk == gens


def test_fii_with_juxtaposed_terms_exits_2(capsys):
    code, out, err = run_cli(["cone", UNIT_SQUARE, "fii", "x1 x2 <= 1"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: column 4: expected '+' or '-' before 'x2'\n"


def test_fii_parse_error_column_counts_in_the_argument(capsys):
    # leading blanks count: the column points into the argument as typed
    for arg, err_text in (
            ("  x1 x2 <= 1", "error: column 6: expected '+' or '-' before 'x2'\n"),
            ("x1 + x9 <= 1", "error: column 4: variable x9 out of range for n=2\n"),
            (" x1 + y1 >= 0", "error: column 5: cannot read term at '+ y1'\n"),
            ("  <= 1", "error: column 1: inequality needs a left-hand side "
                       "(write '0' for none)\n"),
            (f"x{LONG} <= 1", f"error: column 1: {TOO_LONG}\n"),
            # a number the term pattern admits but rational() refuses
            ("3/0 x1 <= 1", "error: column 1: not a rational token "
                            "(expected 'p' or 'p/q'): '3/0'\n"),
            ("x2 + 3/0 x1 <= 1", "error: column 6: not a rational token "
                                 "(expected 'p' or 'p/q'): '3/0'\n"),
            ("x1 <= 1/0", "error: column 7: not a rational token "
                          "(expected 'p' or 'p/q'): '1/0'\n"),
            (f"x2 <= {LONG}", f"error: column 7: {TOO_LONG}\n"),
            (f"x1 <=   {LONG}", f"error: column 9: {TOO_LONG}\n"),
            (f"{LONG} x1 <= 1", f"error: column 1: {TOO_LONG}\n")):
        code, out, err = run_cli(["cone", UNIT_SQUARE, "fii", arg], capsys)
        assert (code, out, err) == (2, "", err_text), arg


def test_hull_command(tmp_path, capsys):
    path = write(tmp_path, "cov.txt", COVERING)
    code, out, _ = run_cli(["hull", path], capsys)
    assert code == 0
    assert "minimal-points: 3" in out
    assert "  1 1" in out
    assert "  1 2 >= 3" in out
    assert "  1 1 >= 2" in out


def test_hull_scans_the_box_once(tmp_path, capsys, monkeypatch):
    scanned = []
    original = covering.minimal_integer_points

    def counted(q):
        scanned.append(q)
        return original(q)

    monkeypatch.setattr(covering, "minimal_integer_points", counted)
    monkeypatch.setattr(cli, "minimal_integer_points", counted)
    code, _, _ = run_cli(["hull", write(tmp_path, "two.txt", TWO_ROW)], capsys)
    assert code == 0
    assert len(scanned) == 1


def test_hull_rejects_negative_entry(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "kind: covering\nn: 2\nm: 1\nM: -1 2\nd: 3\n")
    code, out, err = run_cli(["hull", path], capsys)
    assert code == 2
    assert "M[1][1]" in err


def test_closure_command_stabilized(tmp_path, capsys):
    path = write(tmp_path, "cov.txt", COVERING)
    code, out, _ = run_cli(["closure", path, "--k", "1", "--density", "2"], capsys)
    assert code == 0
    assert "stabilized: true" in out
    assert "| SIGN" in out and "| HULL_FACET" in out


def test_closure_not_stabilized_exits_3(tmp_path, capsys):
    # at density 1 this instance misses the x1+x2 >= 2 aggregation cut
    path = write(tmp_path, "knap.txt",
                 "kind: covering\nn: 2\nm: 2\nM: 2 1\nM: 1 2\nd: 2 2\n")
    code, out, _ = run_cli(["closure", path, "--density", "1"], capsys)
    assert code == 3
    assert "stabilized: false" in out
    assert "facets:" in out  # result still printed


def test_closure_reports_samples_used(tmp_path, capsys):
    path = write(tmp_path, "cov.txt", COVERING)
    code, out, _ = run_cli(["closure", path, "--density", "2"], capsys)
    assert code == 0
    assert "samples-used: 1" in out
    assert "  [1]" in out


def test_closure_verbose_note_counts_the_hulls_built(capsys):
    path = str(INSTANCES / "three_row.txt")
    code, out, err = run_cli(["closure", path, "--k", "2", "--density", "8", "-v"], capsys)
    assert code == 0
    assert "samples: 6903" in out and "stabilized: true" in out
    assert err.splitlines()[-1] == "closure: 31 of 6903 sample hulls built, stabilized=True"
    assert run_cli(["closure", path, "--k", "2", "--density", "8"], capsys) == (0, out, "")


def test_cone_pointed_command(tmp_path, capsys):
    path = write(tmp_path, "cone.txt", CONE)
    code, out, _ = run_cli(["cone", path, "pointed"], capsys)
    assert code == 0
    assert "pointed: true" in out and "support:" in out
    path = write(tmp_path, "line.txt", LINE_CONE)
    code, out, _ = run_cli(["cone", path, "pointed"], capsys)
    assert code == 0
    assert "pointed: false" in out and "line: 1 0 0" in out


def test_closure_usage_error_on_zero_density(tmp_path, capsys):
    path = write(tmp_path, "cov.txt", COVERING)
    with pytest.raises(SystemExit) as err:
        main(["closure", path, "--density", "0"])
    assert err.value.code == 2
    capsys.readouterr()


# int() reads the first three (as 10, 2 and 3), and each names a valid
# run; the last has more digits than int() reads
@pytest.mark.parametrize("value", ["1_0", "２", "٣", pytest.param(LONG, id="over-long")])
@pytest.mark.parametrize("command, flag", [
    ("hull", "--seed"), ("closure", "--seed"), ("closure", "--k"), ("closure", "--density"),
])
def test_integer_flags_take_ascii_digits_only(command, flag, value, capsys):
    instance = str(INSTANCES / ("single_row.txt" if command == "hull" else "knapsack_pair.txt"))
    with pytest.raises(SystemExit) as err:
        main([command, instance, flag, value])
    assert err.value.code == 2
    out, err_text = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}: invalid int value: {value!r}" in err_text


def test_cone_rays_command(tmp_path, capsys):
    path = write(tmp_path, "cone.txt", CONE)
    code, out, _ = run_cli(["cone", path, "rays"], capsys)
    assert code == 0
    assert "rays: 4" in out


def test_cone_rays_non_pointed_exits_4(tmp_path, capsys):
    path = write(tmp_path, "line.txt", LINE_CONE)
    code, out, err = run_cli(["cone", path, "rays"], capsys)
    assert code == 4
    assert "line witness" in err


def test_cone_theorem1_command(tmp_path, capsys):
    path = write(tmp_path, "cone.txt", CONE)
    code, out, _ = run_cli(["cone", path, "theorem1"], capsys)
    assert code == 0
    assert "result: PASS" in out


@pytest.mark.parametrize("sub", ["rays", "pointed", "closure", "theorem1"])
def test_cone_inequality_outside_fii_is_a_usage_error(sub, capsys):
    with pytest.raises(SystemExit) as err:
        main(["cone", str(INSTANCES / "strip_cone.txt"), sub, "x1 <= 1"])
    assert err.value.code == 2
    out, err_text = capsys.readouterr()
    assert out == ""
    assert f"cone {sub} takes no inequality; only fii does" in err_text


def test_cone_fii_command(tmp_path, capsys):
    path = write(tmp_path, "cone.txt", CONE)
    code, out, _ = run_cli(["cone", path, "fii", "x1 + x2 <= 2"], capsys)
    assert code == 0
    assert "NOT FII (multipliers:" in out
    code, out, _ = run_cli(["cone", path, "fii", "x1 <= 1"], capsys)
    assert code == 0
    assert "result: FII" in out


def test_cone_fii_standin_multipliers(tmp_path, capsys):
    standin = "kind: cone\nn: 2\nG: -1 2 7\nG: 1 2 7\nG: 0 0 1\n"
    path = write(tmp_path, "standin.txt", standin)
    code, out, _ = run_cli(["cone", path, "fii", "x2 <= 7/2"], capsys)
    assert code == 0
    assert "NOT FII (multipliers: 1/4 1/4 0)" in out


def test_cone_closure_command(tmp_path, capsys):
    path = write(tmp_path, "cone.txt", "kind: cone\nn: 2\nG: 1 1 2\nG: 1 2 3\n")
    code, out, _ = run_cli(["cone", path, "closure"], capsys)
    assert code == 0
    assert "unit-last-added: true" in out
    assert "  1 1 <= 2" in out


def test_cone_without_a_closure_system(tmp_path, capsys):
    # the generator 0.x <= -1 makes the cone's closure system the standard
    # empty system: closure prints it, and theorem1 and fii refuse it
    path = write(tmp_path, "cone.txt", "kind: cone\nn: 2\nG: 0 0 -1\nG: 1 0 1\n")
    code, out, _ = run_cli(["cone", path, "closure"], capsys)
    assert code == 0
    lines = out.splitlines()
    for line in ("empty: true", "inequalities: 2", "  1 0 <= -1", "  -1 0 <= 0"):
        assert line in lines
    code, _, err = run_cli(["cone", path, "theorem1"], capsys)
    assert code == 4 and "found dimension -1 in R^2" in err
    code, _, err = run_cli(["cone", path, "fii", "x1 <= 1"], capsys)
    assert code == 4 and "assumes a full-dimensional closure" in err


def test_verify_command(tmp_path, capsys):
    code, out, _ = run_cli(["verify", "farkas", "--seed", "1"], capsys)
    assert code == 0
    assert "result: PASS" in out
    assert "checks" in out


def test_structured_output_is_json(tmp_path, capsys):
    path = write(tmp_path, "cov.txt", COVERING)
    code, out, _ = run_cli(["hull", path, "--format", "structured"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "hull"
    assert doc["version"] == "0.1.0"
    assert doc["minimal_points"] == ["0 2", "1 1", "3 0"]


def test_out_flag_writes_same_bytes(tmp_path, capsys):
    path = write(tmp_path, "cov.txt", COVERING)
    out_path = tmp_path / "report.txt"
    code, out, _ = run_cli(["hull", path, "--out", str(out_path)], capsys)
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == out


def test_non_utf8_instance_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes("# caf\xe9\n".encode("latin-1") + COVERING.encode("ascii"))
    code, out, err = run_cli(["hull", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: cannot read {path}: not UTF-8 text\n"


def test_instance_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + COVERING.encode("ascii"))
    assert run_cli(["hull", str(path)], capsys) == run_cli(
        ["hull", write(tmp_path, "plain.txt", COVERING)], capsys)


# the characters other than CR and LF that str.splitlines breaks at; a
# row reads each of them as a blank
SPLITLINES_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("newline", ["\r\n", "\r", *(c + "\n" for c in SPLITLINES_ONLY)],
                         ids=["CRLF", "CR", *(f"U+{ord(c):04X} LF" for c in SPLITLINES_ONLY)])
@pytest.mark.parametrize("text", [TWO_ROW, TWO_ROW.replace("M: 2 1", "M: 2 x")],
                         ids=["valid", "bad token"])
def test_instance_line_endings_read_as_newlines(tmp_path, capsys, newline, text):
    # only CR, LF and CRLF end a line, so a bad token keeps its line number
    path = tmp_path / "endings.txt"
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    assert run_cli(["hull", str(path)], capsys) == run_cli(
        ["hull", write(tmp_path, "plain.txt", text)], capsys)


@pytest.mark.parametrize("blank", SPLITLINES_ONLY + ["\x1f"],
                         ids=[f"U+{ord(c):04X}" for c in SPLITLINES_ONLY + ["\x1f"]])
def test_unicode_blanks_read_as_blanks_in_rows_and_sizes(tmp_path, capsys, blank):
    path = tmp_path / "blank.txt"
    text = TWO_ROW.replace("M: 1 2", f"M: 1{blank}2").replace("n: 2", f"n: 2{blank}")
    path.write_bytes(text.encode("utf-8"))
    assert run_cli(["hull", str(path)], capsys) == run_cli(
        ["hull", write(tmp_path, "plain.txt", TWO_ROW)], capsys)


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    path = write(tmp_path, "cov.txt", COVERING)
    _, report, _ = run_cli(["hull", path], capsys)
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(["hull", path, "--out", str(target)], capsys)
    assert code == 2
    assert out == report
    assert err == f"error: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize("argv, code, line", [
    (["hull", "single_row.txt"], 0, None),
    (["closure", "knapsack_pair.txt", "--density", "1"], 3, "stabilized: false"),
    (["closure", "knapsack_pair.txt", "--density", "2"], 0, "stabilized: true"),
    (["cone", "strip_cone.txt", "fii", "x2 <= 7/2"], 0,
     "result: NOT FII (multipliers: 1/4 1/4 0)"),
])
def test_readme_sample_commands(argv, code, line, capsys):
    argv = [argv[0], str(INSTANCES / argv[1])] + argv[2:]
    got, out, _ = run_cli(argv, capsys)
    assert got == code
    if line is not None:
        assert line in out.splitlines()


# an invalid target exits 4 with check_implication's violating point: the
# LP's optimum when bounded, a feasible point stepped along its ray when not
@pytest.mark.parametrize("target, point", [("x2 <= 1", "0 7/2"),
                                           ("x1 + x2 <= 100", "195 -94")])
def test_fii_invalid_target_prints_the_violating_point(target, point, capsys):
    code, out, err = run_cli(["cone", str(INSTANCES / "strip_cone.txt"), "fii", target], capsys)
    assert (code, out) == (4, "")
    assert f"violating point: {point}" in err.splitlines()


def test_over_long_violating_point_is_printed_in_full(tmp_path, capsys):
    # generators with 2500-digit entries make a violating point whose
    # coordinates are longer than str() of an int writes by default
    sevens, threes = "7" * 2500, "3" * 2500
    path = write(tmp_path, "long.txt",
                 f"kind: cone\nn: 2\nG: {sevens} 1 1\nG: 1 {threes} 1\nG: 0 0 1\n")
    code, out, err = run_cli(["cone", path, "fii", "x1 + x2 <= 0"], capsys)
    assert (code, out) == (4, "")
    message, point = err.splitlines()
    assert message == "error: inequality is not valid for the closure"
    witness = is_valid_for_closure(parse_instance(Path(path).read_text()).payload,
                                   parse_inequality("x1 + x2 <= 0", 2)).witness
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = " ".join(map(str, witness))
    finally:
        sys.set_int_max_str_digits(limit)
    assert max(map(len, expected.split())) > limit
    assert point == f"violating point: {expected}"


# integral tokens are read as ints and p/q tokens as Fractions; each file
# below is a shipped instance written with p/q tokens (knapsack_pair's
# [M | d] halved), stored as the same int rows, so it prints the same report
# and exits with the same code
FRACTIONAL_STRIP_CONE = "kind: cone\nn: 2\nG: -1/2 1 7/2\nG: 1/3 2/3 7/3\nG: 0 0 5\n"
FRACTIONAL_KNAPSACK_PAIR = "kind: covering\nn: 2\nm: 2\nM: 1 1/2\nM: 1/2 1\nd: 1 1\n"


@pytest.mark.parametrize("name, text, args", [
    ("strip_cone", FRACTIONAL_STRIP_CONE, ("cone", "theorem1")),
    ("knapsack_pair", FRACTIONAL_KNAPSACK_PAIR, ("hull",)),
    ("knapsack_pair", FRACTIONAL_KNAPSACK_PAIR, ("closure", "--density", "1")),
    ("knapsack_pair", FRACTIONAL_KNAPSACK_PAIR, ("closure", "--k", "2", "--density", "2")),
], ids=["strip_cone theorem1", "knapsack_pair hull", "knapsack_pair closure D1",
        "knapsack_pair closure k2 D2"])
def test_fractional_tokens_print_the_integral_report(tmp_path, capsys, name, text, args):
    command, *rest = args
    fractional = run_cli([command, write(tmp_path, "fractional.txt", text), *rest], capsys)
    assert fractional == run_cli([command, str(INSTANCES / f"{name}.txt"), *rest], capsys)


def test_cli_determinism_subprocess(tmp_path):
    path = write(tmp_path, "two.txt", TWO_ROW)
    cmd = [sys.executable, "-m", "closurelab.cli", "closure", str(path),
           "--k", "1", "--density", "3", "--seed", "5"]
    first = subprocess.run(cmd, capture_output=True, env=cli_env())
    second = subprocess.run(cmd, capture_output=True, env=cli_env())
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0


def test_repeated_main_leaves_no_argparse_garbage(capsys):
    # the parser is built once per process, so a second main() call
    # leaves no parser, action or formatter in reference cycles
    argv = ["cone", UNIT_SQUARE, "pointed"]
    assert main(argv) == 0
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    capsys.readouterr()
    assert leaked == []


SINGLE_ROW = str(INSTANCES / "single_row.txt")
KNAPSACK = str(INSTANCES / "knapsack_pair.txt")
STRIP = str(INSTANCES / "strip_cone.txt")

ROUTED_ARGV = [
    ["hull", SINGLE_ROW],
    ["hull", SINGLE_ROW, "--seed", "3"],
    ["hull", "--seed", "3", SINGLE_ROW],
    ["hull", SINGLE_ROW, "--format", "structured"],
    ["hull", SINGLE_ROW, "--format=structured", "--out", "report.txt"],
    ["hull", SINGLE_ROW, "-vv"],
    ["hull", "-v", SINGLE_ROW, "--verbose"],
    ["hull", "--", SINGLE_ROW],
    ["closure", KNAPSACK, "--k=2"],
    ["closure", KNAPSACK, "--dens", "3"],
    ["closure", KNAPSACK, "--k", "2", "--density", "3"],
    ["closure", "--density", "2", KNAPSACK, "--k", "1"],
    ["closure", KNAPSACK, "--seed=-3"],
    ["cone", STRIP, "theorem1"],
    ["cone", STRIP, "pointed", "-v"],
    ["cone", "--format", "structured", STRIP, "rays"],
    ["cone", STRIP, "fii", "x2 <= 7/2"],
    ["cone", STRIP, "fii", "-x1 <= 2"],
    ["cone", STRIP, "fii", "--", "-x2 <= 7/2"],
    ["verify", "cone", "--seed", "2"],
    ["verify", "--seed", "-1", "all"],
]


@pytest.mark.parametrize("argv", ROUTED_ARGV, ids=" ".join)
def test_argv_goes_to_the_command_parser_alone(argv, monkeypatch):
    expected = cli.build_parser().parse_args(argv)

    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser ran")

    monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_args", refuse)
    assert cli.parse_argv(argv) == expected


TOP_USAGE = "usage: closurelab [-h] {hull,closure,cone,verify} ...\n"
# argparse quotes the choices in its message on some Python versions only
COMMANDS = ("'hull', 'closure', 'cone', 'verify'", "hull, closure, cone, verify")


def _invalid_command(name):
    return {f"{TOP_USAGE}closurelab: error: argument command: invalid choice: "
            f"'{name}' (choose from {choices})\n" for choices in COMMANDS}


@pytest.mark.parametrize("argv, errs", [
    ([], {f"{TOP_USAGE}closurelab: error: the following arguments are required: command\n"}),
    (["nope"], _invalid_command("nope")),
    (["hull", SINGLE_ROW, "--bogus"],
     {f"{TOP_USAGE}closurelab: error: unrecognized arguments: --bogus\n"}),
    (["hull", SINGLE_ROW, "extra"],
     {f"{TOP_USAGE}closurelab: error: unrecognized arguments: extra\n"}),
    (["--seed", "3", "hull", SINGLE_ROW], _invalid_command("3")),
], ids=["no command", "unknown command", "unknown flag", "extra positional", "flag first"])
def test_argv_errors_come_from_the_top_level_parser(argv, errs, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    out, err = capsys.readouterr()
    assert (exit_.value.code, out) == (2, "")
    assert err in errs
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)
    assert capsys.readouterr().err == err


def _returning(result):
    return lambda *args, **kwargs: result


NOT_A_MEMBER = ConeMembership(False, separator=(1, 0, 0))


def _assert_internal_exit(argv, message, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 5
    assert f"internal invariant failure: {message}" in err


def test_pointed_exits_5_when_support_lp_is_not_optimal(monkeypatch, capsys):
    monkeypatch.setattr(cone_module, "solve_lp",
                        _returning(LpResult(LpStatus.INFEASIBLE, certificate=(1,))))
    _assert_internal_exit(["cone", UNIT_SQUARE, "pointed"],
                          "support LP is bounded and feasible", capsys)


def test_pointed_exits_5_when_support_fails_substitution(monkeypatch, capsys):
    zero = (0, 0, 0, 0)
    monkeypatch.setattr(cone_module, "solve_lp",
                        _returning(LpResult(LpStatus.OPTIMAL, x=zero, objective=1)))
    _assert_internal_exit(["cone", UNIT_SQUARE, "pointed"],
                          "support vector fails substitution", capsys)


def test_pointed_exits_5_when_line_search_disagrees(monkeypatch, capsys):
    zero = (0, 0, 0, 0)
    monkeypatch.setattr(cone_module, "solve_lp",
                        _returning(LpResult(LpStatus.OPTIMAL, x=zero, objective=0)))
    monkeypatch.setattr(cone_module, "cone_membership", _returning(NOT_A_MEMBER))
    _assert_internal_exit(["cone", UNIT_SQUARE, "pointed"],
                          "support LP and line search disagree", capsys)


def test_fii_exits_5_when_invalidity_witness_fails(monkeypatch, capsys):
    # a valid inequality reported as outside the cone: the LP point found
    # as a violating witness satisfies it
    monkeypatch.setattr(cone_module, "cone_membership", _returning(NOT_A_MEMBER))
    _assert_internal_exit(["cone", UNIT_SQUARE, "fii", "x1 <= 1"],
                          "invalidity witness fails substitution", capsys)


def test_fii_exits_5_when_implication_witness_fails(monkeypatch, capsys):
    # every implication LP reports the origin as an optimum above any rhs,
    # so the violating point for the invalid x1 <= 1/2 fails its
    # substitution check
    real = polyhedron.solve_lp

    def above_rhs(a, b, c, sense="max"):
        res = real(a, b, c, sense)
        if res.status is not LpStatus.OPTIMAL or not any(c):
            return res
        return LpResult(LpStatus.OPTIMAL, x=(F(0),) * len(c), objective=F(10**9))

    monkeypatch.setattr(polyhedron, "solve_lp", above_rhs)
    _assert_internal_exit(["cone", UNIT_SQUARE, "fii", "x1 <= 1/2"],
                          "witness fails substitution check", capsys)


def test_theorem1_on_a_pointed_cone_solves_no_lp(monkeypatch, capsys):
    # pointedness and extreme rays come from the polar cone's DD: no line
    # search, no cone membership and no other LP
    def refused(*args, **kwargs):
        raise AssertionError("theorem1 searched for a line or solved an LP")

    for name in ("_line_through", "cone_membership", "solve_lp"):
        monkeypatch.setattr(cone_module, name, refused)
    monkeypatch.setattr(polyhedron, "solve_lp", refused)
    for path in (UNIT_SQUARE, str(INSTANCES / "strip_cone.txt")):
        code, out, _ = run_cli(["cone", path, "theorem1"], capsys)
        assert code == 0 and "result: PASS" in out


def test_verify_containment_questions_solve_no_lp(monkeypatch, capsys):
    # the verify containment checks read the cached double description;
    # only a certificate needs an LP
    def refused(*args, **kwargs):
        raise AssertionError("a yes/no question solved an LP")

    monkeypatch.setattr(polyhedron, "solve_lp", refused)
    for suite in ("covering", "aggregation"):
        code, out, _ = run_cli(["verify", suite, "--seed", "1"], capsys)
        assert code == 0 and "result: PASS" in out


def test_fii_runs_one_double_description(monkeypatch, capsys):
    # closure_of, dimension and the emptiness test of is_valid_for_closure
    # all read the one DD the cone's closure system keeps
    calls = []
    real = polyhedron.dd_cone

    def counted(rows, dim):
        calls.append(rows)
        return real(rows, dim)

    monkeypatch.setattr(polyhedron, "dd_cone", counted)
    code, out, _ = run_cli(["cone", UNIT_SQUARE, "fii", "x1 <= 1"], capsys)
    assert code == 0 and "result: FII" in out
    assert len(calls) == 1
    # remove_redundant drops no row of the unit square, so the closure it
    # returns is the system itself and its emptiness reads the same DD
    code, out, _ = run_cli(["cone", UNIT_SQUARE, "closure"], capsys)
    assert code == 0 and "empty: false" in out.splitlines()
    assert len(calls) == 2


def test_fii_builds_the_closure_system_once(monkeypatch, capsys):
    # the cone keeps the system fii_check builds, and the validity check
    # reads it; the system is the one HPolyhedron the cone module makes
    calls = []
    real = cone_module.HPolyhedron

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cone_module, "HPolyhedron", counted)
    code, out, _ = run_cli(["cone", str(INSTANCES / "strip_cone.txt"), "fii", "x2 <= 7/2"],
                           capsys)
    assert code == 0 and "result: NOT FII (multipliers: 1/4 1/4 0)" in out.splitlines()
    assert len(calls) == 1


def test_theorem1_takes_one_rank_per_double_description(monkeypatch, capsys):
    # the dimension is kept with each polyhedron's DD, and the facet test reads
    # zero sets, so no rank is taken that a DD did not come with
    counts = {"rank": 0, "dd_cone": 0}
    real_rank, real_dd = linalg.rank, polyhedron.dd_cone

    def counted_rank(rows):
        counts["rank"] += 1
        return real_rank(rows)

    def counted_dd(rows, dim):
        counts["dd_cone"] += 1
        return real_dd(rows, dim)

    monkeypatch.setattr(linalg, "rank", counted_rank)
    monkeypatch.setattr(polyhedron, "dd_cone", counted_dd)
    for name in ("unit_square_cone.txt", "strip_cone.txt"):
        code, out, _ = run_cli(["cone", str(INSTANCES / name), "theorem1"], capsys)
        assert code == 0 and "result: PASS" in out
    assert 0 < counts["rank"] <= counts["dd_cone"]


def test_theorem1_makes_no_new_double_description(monkeypatch, capsys, tmp_path):
    # the dimension, the facets and the polar cone's rays all come from the
    # DD the closure system keeps, so each run makes one DD and one
    # redundancy pass, even with a redundant generator, and solves no cone
    # membership LP
    calls, passes = [], []
    real_dd, real_remove = polyhedron.dd_cone, cone_module.remove_redundant

    def counted_dd(rows, dim):
        calls.append(rows)
        return real_dd(rows, dim)

    def counted_remove(p):
        passes.append(p)
        return real_remove(p)

    def no_membership(*args):
        raise AssertionError("theorem1 solved a cone-membership LP")

    paths = [str(INSTANCES / name) for name in ("unit_square_cone.txt", "strip_cone.txt")]
    paths.append(write(tmp_path, "redundant.txt",
                       (INSTANCES / "unit_square_cone.txt").read_text() + "G: 1 1 3\n"))
    for i, k in enumerate(random_pointed_cones(seed=4, count=12)):
        paths.append(write(tmp_path, f"pointed{i}.txt", format_cone(k)))
    monkeypatch.setattr(polyhedron, "dd_cone", counted_dd)
    monkeypatch.setattr(cone_module, "dd_cone", counted_dd)
    monkeypatch.setattr(cone_module, "remove_redundant", counted_remove)
    monkeypatch.setattr(cone_module, "cone_membership", no_membership)
    for path in paths:
        code, out, _ = run_cli(["cone", path, "theorem1"], capsys)
        assert code == 0 and "result: PASS" in out
    assert len(calls) == len(paths)
    assert len(passes) == len(paths)


def test_theorem1_and_rays_solve_no_lp(monkeypatch, capsys, tmp_path):
    def no_lp(*args, **kwargs):
        raise AssertionError("solve_lp called")

    paths = [str(p) for p in sorted(INSTANCES.glob("*_cone.txt"))]
    paths.append(write(tmp_path, "line.txt", LINE_CONE))
    # the draws are filtered by is_pointed's LP, so they are made first
    for i, k in enumerate(random_pointed_cones(seed=4, count=12)):
        paths.append(write(tmp_path, f"pointed{i}.txt", format_cone(k)))
    # the two modules that import solve_lp and that cone commands reach
    monkeypatch.setattr(cone_module, "solve_lp", no_lp)
    monkeypatch.setattr(polyhedron, "solve_lp", no_lp)
    for path in paths:
        code, _, _ = run_cli(["cone", path, "rays"], capsys)
        assert code == (4 if path.endswith("line.txt") else 0)
        if not path.endswith("line.txt"):
            code, out, _ = run_cli(["cone", path, "theorem1"], capsys)
            assert code == 0 and "result: PASS" in out


def test_cone_theorem1_and_rays_make_no_fraction(monkeypatch, capsys):
    # integral tokens are read as ints, and the cone, its rays, the closure
    # system's DD and the printed rows all stay int rows
    made = []
    real_new = fractions.Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counted)
    for name in ("strip_cone.txt", "unit_square_cone.txt"):
        for sub in ("theorem1", "rays"):
            code, _, _ = run_cli(["cone", str(INSTANCES / name), sub], capsys)
            assert code == 0
    assert made == []


def _polar_without_rays(monkeypatch):
    # a polar cone with no rays leaves every generator tight at every ray,
    # which is the DD's "not pointed" verdict; the dimension stays the real
    # one.  The unit-square generators are its closure system's rows and
    # unit-last, so the cone queries read this DD.
    real = polyhedron.HPolyhedron._dd.func

    def without_rays(p):
        dd = real(p)
        return dd._replace(rays=(), zero_of=dict.fromkeys(dd.zero_of, 0))

    monkeypatch.setattr(polyhedron.HPolyhedron, "_dd", property(without_rays))


def test_theorem1_reports_a_line_and_exits_5(monkeypatch, capsys):
    # a full-dimensional closure with a non-pointed cone contradicts
    # Theorem 1, so only a broken DD verdict reaches this report
    witness = (F(1), F(0), F(0))
    _polar_without_rays(monkeypatch)
    monkeypatch.setattr(cone_module, "_line_through", _returning(witness))
    code, out, _ = run_cli(["cone", UNIT_SQUARE, "theorem1"], capsys)
    assert code == 5
    assert "result: FAIL\npointed: false\nextreme-rays: 0\n" in out
    assert "rebuilt-closure-equal: false\n" in out
    assert ("detail: full-dimensional closure but cone contains the line "
            "through 1 0 0\n") in out


@pytest.mark.parametrize("sub", ["rays", "theorem1"])
def test_dd_and_line_search_disagreeing_exits_5(sub, monkeypatch, capsys):
    # the DD says "not pointed" on a pointed cone, so the line search
    # finds no line to print
    _polar_without_rays(monkeypatch)
    _assert_internal_exit(["cone", UNIT_SQUARE, sub], "DD and line search disagree", capsys)


LIBRARY_FAILURES = [
    (ParseError("bad token", 3, 4), 2, "error: line 3, column 4: bad token\n"),
    (ContractViolation("dimension mismatch"), 2, "error: dimension mismatch\n"),
    (InconsistentSystemError("system is infeasible", certificate=(F(1),)), 2,
     "error: system is infeasible\n"),
    (NotPointedError("cone contains a line", line_witness=(F(1), F(-1, 2), F(0))), 4,
     "error: cone contains a line\nline witness: 1 -1/2 0\n"),
    (NotFullDimensionalError("closure is flat"), 4, "error: closure is flat\n"),
    (EmptyClosureError("closure is empty"), 4, "error: closure is empty\n"),
    (InvalidInequalityError("inequality is violated", witness=(F(1, 2), F(2))), 4,
     "error: inequality is violated\nviolating point: 1/2 2\n"),
    (InternalInvariantError("certificate fails substitution"), 5,
     "internal invariant failure: certificate fails substitution\n"),
]


@pytest.mark.parametrize("exc, code, err", LIBRARY_FAILURES,
                         ids=[type(exc).__name__ for exc, _, _ in LIBRARY_FAILURES])
def test_library_failure_exit_codes_and_stderr(exc, code, err, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "_load", fail)
    assert run_cli(["hull", str(INSTANCES / "single_row.txt")], capsys) == (code, "", err)


def test_every_error_type_has_a_documented_exit_code():
    readme = (INSTANCES.parent / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("Exit codes:"):].split("\n\n", 1)[0]
    documented = {int(c) for c in re.findall(r"`(\d)`", paragraph)}
    assert documented == {0, 2, 3, 4, 5}
    types = [t for t in vars(errors).values()
             if isinstance(t, type) and issubclass(t, errors.ClosureLabError)]
    assert len(types) == 10
    for t in types:
        assert t.exit_code in {2, 4, 5} & documented, t
        assert t.prefix == ("internal invariant failure" if t.exit_code == 5 else "error"), t
