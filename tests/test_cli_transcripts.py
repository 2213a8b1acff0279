"""The CLI's output, byte for byte, on one list of commands: every README
example is among them, and the CI package job runs them all through the
installed `chisum`.

cli_transcripts.json holds one case per command: its argv, the files it
reads (written to a fresh directory, the working directory while it
runs), and the stdout, stderr and exit code it gave.  A change that must
not move the CLI's output keeps this test green; a change that moves it
on purpose rewrites the transcripts with

    PYTHONPATH=src python tests/test_cli_transcripts.py

and the diff of cli_transcripts.json shows what moved.
"""

import contextlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from chisum.cli import main

TRANSCRIPTS = Path(__file__).with_name("cli_transcripts.json")
CASES = json.loads(TRANSCRIPTS.read_text())
README = Path(__file__).parents[1] / "README.md"


def run_case(case: dict, directory: Path) -> dict:
    """stdout, stderr and exit code of main(case["argv"]), run in
    directory with case["files"] written there."""
    for name, text in case["files"].items():
        (directory / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stderr(err):
            code = main(case["argv"], out=out)
    finally:
        os.chdir(cwd)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_output_is_the_transcript(tmp_path, case):
    want = {k: case[k] for k in ("stdout", "stderr", "exit")}
    assert run_case(case, tmp_path) == want


def _not_json(constant):
    raise ValueError(f"{constant} is not valid JSON")


def test_json_output_is_strict():
    # Python's json module writes NaN and Infinity unless told not to.
    cases = [
        c for c in CASES if c["argv"][:2] == ["--format", "json"] and c["exit"] == 0
    ]
    assert cases
    for case in cases:
        json.loads(case["stdout"], parse_constant=_not_json)


def test_readme_examples_are_transcripts():
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    echoed = re.findall(r"^echo '(.*)' > (\S+)$", section, re.M)
    files = {name: text + "\n" for text, name in echoed}
    commands = [line for line in section.splitlines() if line.startswith("chisum ")]
    assert commands
    by_argv = {tuple(c["argv"]): c for c in CASES}
    for line in commands:
        case = by_argv.get(tuple(shlex.split(line)[1:]))
        assert case is not None, f"no transcript for: {line}"
        assert case["files"] == {name: files[name] for name in case["files"]}, line


def record() -> None:
    """Rerun every case and rewrite its transcript."""
    for case in CASES:
        with tempfile.TemporaryDirectory() as directory:
            case.update(run_case(case, Path(directory)))
    TRANSCRIPTS.write_text(json.dumps(CASES, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(record())
