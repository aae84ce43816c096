"""The README's "Library use" block runs and prints what its comments say,
and every command of its "CLI" block succeeds."""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from symext.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_prints_its_commented_output():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    # each print(...) line ends in "# <the line it prints>"
    want = [ln.split("# ", 1)[1] for ln in block.splitlines() if ln.startswith("print(")]
    assert want == ["1 / (1-t^3)(1-t^2)"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want


def cli_block_commands() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [ln for ln in block.splitlines() if ln.startswith("symext ")]


def test_the_cli_block_lists_every_subcommand():
    commands = cli_block_commands()
    assert len(commands) == 10
    assert {ln.split()[1] for ln in commands} == {"decompose", "genfun", "closedform", "verify"}


@pytest.mark.parametrize("line", cli_block_commands())
def test_cli_block_command_runs(line):
    argv = shlex.split(line, comments=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv[1:])
    assert code == EXIT_OK and out.getvalue()
