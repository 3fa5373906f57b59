"""The README's library example and command lines run as written."""

from __future__ import annotations

import json
import pathlib
import re
import shlex

import pytest

from zetacode import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def code_blocks(text: str) -> list[str]:
    return re.findall(r"```\w*\n(.*?)```", text, re.S)


def run(argv, capsys) -> tuple[int, str, str]:
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_library_example_prints_true(capsys):
    block = re.match(r"\s*```python\n(.*?)```", section("Library example"), re.S)
    assert block, "no python block opens the library example section"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out == "True\n"


# the lines of the command summary without placeholders such as MATRIX_FILE or N
LITERAL_COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for line in code_blocks(section("Command line"))[0].splitlines()
    if line.startswith("zetacode ") and not re.search(r"\b[A-Z][A-Z_]*\b", line.split("#")[0])
]


def test_command_summary_has_literal_lines():
    assert [argv[0] for argv in LITERAL_COMMANDS] == ["rh", "grs", "curve-zeta"]


@pytest.mark.parametrize("argv", LITERAL_COMMANDS, ids=lambda argv: argv[0])
def test_literal_command_lines_exit_0(argv, capsys):
    rc, out, err = run(argv, capsys)
    assert (rc, err) == (0, "")
    assert json.loads(out)["command"] == argv[0]


def test_hamming_example(capsys, tmp_path):
    lines = code_blocks(section("Command line"))[1].splitlines()
    printf, command = shlex.split(lines[0]), shlex.split(lines[1])
    assert printf[0] == "printf" and printf[2:] == [">", "hamming.txt"]
    assert command == ["zetacode", "zeta", "hamming.txt"]
    path = tmp_path / "hamming.txt"
    path.write_text(printf[1].replace("\\n", "\n"), encoding="utf-8")
    rc, out, err = run(["zeta", str(path)], capsys)
    assert (rc, err) == (0, "")
    assert json.loads(out)["zeta"]["coefficients"] == ["1/5", "2/5", "2/5"]


# the rh examples quoted in prose: exit code and error
RH_PROSE = {
    "zetacode rh --q 2 -- 1 -1/2": (0, ""),
    "rh --q 2 1 1e-400": (1, "error: the coefficient of T^1 is outside float range\n"),
    "rh --q 4 -- -3 1e210 9e9": (1, "error: a root's size to the power 2 is outside float range\n"),
    "rh --q 1048576 -- 1e-330 0 0 0 1099511627776e-330":
        (1, "error: the coefficient of T^0 is outside float range\n"),
}


def test_rh_examples_in_prose(capsys):
    prose = re.sub(r"```.*?```", "", section("Command line"), flags=re.S)
    quoted = re.findall(r"`((?:zetacode )?rh [^`]*)`", prose.replace("\n", " "))
    assert sorted(quoted) == sorted(RH_PROSE)
    for example, (code, error) in RH_PROSE.items():
        argv = shlex.split(example)
        rc, out, err = run(argv[1:] if argv[0] == "zetacode" else argv, capsys)
        assert (rc, err) == (code, error), example
