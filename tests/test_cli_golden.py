"""CLI stdout and exit codes, pinned byte for byte against a recorded file.

Every subcommand runs in-process on every `tests/data` dossier, with and
without `--json`. After an intended output change, re-record the file with
`PYTHONPATH=src python tests/test_cli_golden.py`, which first prints the
argv of every row whose exit code or stdout changed and of every row added
or dropped, and say in CHANGES.md which outputs changed and why.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from lndkit.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden" / "cli_stdout.json"

# dossiers with derivations: (name, polynomial for exp, grading, polynomial
# for hdstar-member); the others take the fallback and so hit the errors
WITH_DERIVATIONS = {
    "quadric.json": ("canonical", "y^3", "nope", "x*u + y"),
    "w1.json": ("canonical", "y^3", "halfspin", "x*u + u^2"),
    "w1_cylinder.json": ("mixed", "u*z", "uweight", "x*u1 + u"),
}
FALLBACK = ("canonical", "x", "nope", "x*u")


def invocations():
    for file in sorted(p.name for p in DATA.glob("*.json")):
        name, poly, grading, member = WITH_DERIVATIONS.get(file, FALLBACK)
        cases = [
            ["classify", file],
            ["roots", file],
            ["check-lnd", file, name],
            ["exp", file, name, poly, "formal"],
            ["decompose", file, name, grading],
            ["hdstar-member", file, member],
        ]
        if file in WITH_DERIVATIONS:
            cases += [
                ["check-lnd", file, "nope"],
                ["check-lnd", file, name, "--order", "lex", "--bound", "8"],
                ["classify", file, "--order", "lex"],
                ["hdstar-member", file, member, "--order", "lex"],
                ["exp", file, name, poly, "1/2"],
                ["decompose", file, name, "nope"],
            ]
        if file.startswith("toric"):
            cases += [
                ["classify", file, "--box", "3"],
                ["roots", file, "--box", "3"],
            ]
        # dict.fromkeys drops repeats, such as quadric.json's unknown grading
        for argv in dict.fromkeys(map(tuple, cases)):
            yield list(argv)
            yield [*argv, "--json"]


def run(argv):
    """Exit code and stdout of the CLI; argv[1] names a tests/data file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([argv[0], str(DATA / argv[1]), *argv[2:]])
    return code, out.getvalue()


def _golden():
    rows = json.loads(GOLDEN.read_text())
    return {tuple(row["argv"]): (row["code"], row["stdout"]) for row in rows}


@pytest.fixture(scope="module")
def golden():
    return _golden()


@pytest.mark.parametrize("argv", list(invocations()), ids=" ".join)
def test_cli_stdout_matches_golden(golden, argv):
    assert tuple(argv) in golden, "no recorded output; re-record the golden file"
    assert run(argv) == golden[tuple(argv)]


def test_one_parser_serves_every_row_in_one_process(golden):
    # the parser is built once per process: every recorded row, in reverse
    # order, with a --help call and a usage error between rows, still
    # prints its recorded output
    for argv, expected in reversed(golden.items()):
        assert run(list(argv)) == expected, argv
        for extra, code in (["--help"], 0), (["--nosuch"], 2):
            with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(
                io.StringIO()
            ), contextlib.redirect_stderr(io.StringIO()):
                main([argv[0], *extra])
            assert exc.value.code == code


if __name__ == "__main__":
    old = _golden() if GOLDEN.exists() else {}
    rows = []
    for argv in invocations():
        code, stdout = run(argv)
        rows.append({"argv": argv, "code": code, "stdout": stdout})
        if tuple(argv) not in old:
            print("added:  ", " ".join(argv))
        elif old.pop(tuple(argv)) != (code, stdout):
            print("changed:", " ".join(argv))
    for argv in old:
        print("dropped:", " ".join(argv))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"recorded {len(rows)} invocations in {GOLDEN}")
