"""The CLI's output, byte for byte, on every README example and every
command of the CI package job.

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
import sys
import tempfile
from pathlib import Path

import pytest

from chisum.cli import main

TRANSCRIPTS = Path(__file__).with_name("cli_transcripts.json")
CASES = json.loads(TRANSCRIPTS.read_text())


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


def record() -> None:
    """Rerun every case and rewrite its transcript."""
    for case in CASES:
        with tempfile.TemporaryDirectory() as directory:
            case.update(run_case(case, Path(directory)))
    TRANSCRIPTS.write_text(json.dumps(CASES, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(record())
