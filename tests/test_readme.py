"""The README's examples run: every Python block executes, every JSON block
parses as a structure, and every ``prior-forge`` command line parses with
the CLI's own parser."""

import json
import pathlib
import re
import shlex

from prior_forge.cli import build_parser
from prior_forge.jsonio import parse_structure

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)


def test_python_blocks_run(capsys):
    blocks = _blocks("python")
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("structure: ")


def test_json_blocks_parse_as_structures():
    blocks = _blocks("json")
    assert blocks
    for doc in blocks:
        assert parse_structure(json.loads(doc)).num_states > 0


def test_command_lines_parse():
    lines = [
        line for block in _blocks("sh") for line in block.splitlines() if line.startswith("prior-forge ")
    ]
    assert len(lines) >= 10
    parser = build_parser()
    refused = []
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            assert parser.parse_args(argv).command == argv[0]
        except SystemExit:
            refused.append(line)
    assert refused == []
