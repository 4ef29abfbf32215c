"""Fuzz property of the command line: an instance file from ``instances/``,
mutated, and run through ``cli.main`` in process with one of its kind's
commands, exits with a documented code (0, 2, 3 or 4), lets no exception
escape, and on exit 2 prints nothing to stdout and one ``error:`` line to
stderr.  Exit 5 is an internal invariant failure, so the property fails
on it too.

This run takes 200 fixed examples.  ``pytest --hypothesis-profile=cli-fuzz
tests/test_cli_fuzz.py`` draws more at random (the profile is registered
in conftest.py).  No command has a work budget yet, so generated numbers
stay within |x| <= 20, and the only long digit runs are longer than
``sys.get_int_max_str_digits()``, which the parser rejects.
"""

import io
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from closurelab.cli import main

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
BASES = {p.name: p.read_text(encoding="utf-8").splitlines()
         for p in sorted(INSTANCES.glob("*.txt"))}

# each kind's commands, as argv after the command name and the path
COMMANDS = {
    "covering": (("hull",), ("closure", "--density", "1"), ("closure", "--density", "2")),
    "cone": (("cone", "rays"), ("cone", "pointed"), ("cone", "closure"),
             ("cone", "theorem1"), ("cone", "fii", "x1 <= 1")),
}

# the digit zero of three non-ASCII scripts: Arabic-Indic, Devanagari, fullwidth
_DIGIT_ZEROS = (0x660, 0x966, 0xFF10)


def _digit_runs(lines):
    """(line index, match) for every run of ASCII digits."""
    return [(i, m) for i, line in enumerate(lines) for m in re.finditer(r"[0-9]+", line)]


def _replace(lines, i, start, end, text):
    lines[i] = lines[i][:start] + text + lines[i][end:]


@st.composite
def _mutation(draw, lines):
    """lines with one mutation applied in place."""
    kinds = ["drop", "repeat", "swap", "kind", "hash"]
    runs = _digit_runs(lines)
    if runs:
        kinds += ["size", "sign", "zero", "value", "p/0", "non-ascii", "long"]
    what = draw(st.sampled_from(kinds))
    if what in ("drop", "repeat", "swap", "hash"):
        if not lines:
            return
        i = draw(st.integers(0, len(lines) - 1))
        if what == "drop":
            del lines[i]
        elif what == "repeat":
            lines.insert(i, lines[i])
        elif what == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            at = draw(st.integers(0, len(lines[i])))
            _replace(lines, i, at, at, "#")
    elif what == "kind":
        name = draw(st.sampled_from(("cone", "covering", "hull", "")))
        lines[:] = [re.sub(r"^kind:.*", f"kind: {name}", line) for line in lines]
    elif what == "size":
        # a run made long by an earlier mutation stays as it is
        sizes = [(i, m) for i, m in runs
                 if re.match(r"\s*[nm]\s*:", lines[i]) and len(m[0]) < 20]
        if sizes:
            i, m = draw(st.sampled_from(sizes))
            delta = draw(st.sampled_from((-1, 1)))
            _replace(lines, i, m.start(), m.end(), str(int(m[0]) + delta))
    else:
        i, m = draw(st.sampled_from(runs))
        start, end = m.span()
        if what == "sign":
            if start and lines[i][start - 1] == "-":
                _replace(lines, i, start - 1, start, "")
            else:
                _replace(lines, i, start, start, "-")
        elif what == "zero":
            _replace(lines, i, start, end, "0")
        elif what == "value":
            _replace(lines, i, start, end, str(draw(st.integers(-20, 20))))
        elif what == "p/0":
            _replace(lines, i, end, end, "/0")
        elif what == "non-ascii":
            at = draw(st.integers(start, end - 1))
            digit = chr(draw(st.sampled_from(_DIGIT_ZEROS)) + int(lines[i][at]))
            _replace(lines, i, at, at + 1, digit)
        else:
            _replace(lines, i, start, end, "9" * (sys.get_int_max_str_digits() + 1))


@st.composite
def mutated_runs(draw):
    """(the file's bytes, its kind's argv after the path)."""
    name = draw(st.sampled_from(sorted(BASES)))
    lines = list(BASES[name])
    kind = next(line.split(":")[1].strip() for line in lines if line.startswith("kind:"))
    for _ in range(draw(st.integers(1, 2))):
        draw(_mutation(lines))
    end = draw(st.sampled_from(("\n", "\r\n", "\r")))
    text = "".join(line + end for line in lines)
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + text.encode("utf-8"), draw(st.sampled_from(COMMANDS[kind]))


# the cli-fuzz profile, when selected, sets the example count and draws at random
_FIXED = (None if settings.get_current_profile_name() == "cli-fuzz" else
          settings(max_examples=200, derandomize=True, database=None))


@settings(_FIXED, deadline=None)
@given(mutated_runs())
def test_mutated_instances_exit_with_a_documented_code(tmp_path_factory, run):
    data, command = run
    path = tmp_path_factory.getbasetemp() / "cli-fuzz-instance.txt"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command[0], str(path), *command[1:]])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4), (code, err)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
