"""Command-line interface: parsing, commands, exit codes, determinism."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from closurelab import cone as cone_module, polyhedron
from closurelab.cli import main
from closurelab.errors import ParseError
from closurelab.lp import ConeMembership, LpResult, LpStatus
from closurelab.io import parse_instance
from closurelab.covering import CoveringInstance
from closurelab.cone import GeneratedCone
from closurelab.polyhedron import HPolyhedron, VPolyhedron

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
UNIT_SQUARE = str(Path(__file__).resolve().parent.parent / "instances" / "unit_square_cone.txt")


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
    hp = parse_instance("kind: hrep\nn: 2\nH: 1 1 <= 2\nH: 1 0 >= 0\n")
    assert isinstance(hp.payload, HPolyhedron)
    assert len(hp.payload.inequalities) == 2
    vp = parse_instance("kind: vrep\nn: 2\nV: 0 2\nR: 1 0\n")
    assert isinstance(vp.payload, VPolyhedron)
    ps = parse_instance("kind: pointset\nn: 2\nP: 1 2\nP: 0 2\n")
    assert len(ps.payload) == 2


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


def test_hull_command(tmp_path, capsys):
    path = write(tmp_path, "cov.txt", COVERING)
    code, out, _ = run_cli(["hull", path], capsys)
    assert code == 0
    assert "minimal-points: 3" in out
    assert "  1 1" in out
    assert "  1 2 >= 3" in out
    assert "  1 1 >= 2" in out


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


def test_theorem1_exits_5_when_implication_witness_fails(monkeypatch, capsys):
    monkeypatch.setattr(polyhedron, "cone_membership", _returning(NOT_A_MEMBER))
    _assert_internal_exit(["cone", UNIT_SQUARE, "theorem1"],
                          "witness fails substitution check", capsys)
