"""The README's closed-form table and CLI examples agree with the current CLI."""

import re
from pathlib import Path

import pytest
from test_casimir import CLOSED_FORM_6_TEXT, CLOSED_FORM_7_TEXT

from casimir_eigen.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def closed_form_rows() -> dict[int, str]:
    """The `| m | eigenvalue |` rows of the sample closed-form table."""
    return {int(m): value for m, value in re.findall(r"^\| (\d+) \| (.+) \|$", README, re.MULTILINE)}


def cli_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, output lines) for each command in the CLI block that is followed by `# <output>` lines."""
    block = README.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples, current = [], None
    for line in block.splitlines():
        if line.startswith("casimir-eigen "):
            current = (line.split()[1:], [])
            examples.append(current)
        elif current is not None and line.startswith("# "):
            current[1].append(line[2:])
        else:
            current = None
    return [example for example in examples if example[1]]


ROWS = closed_form_rows()
EXAMPLES = cli_examples()


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out.splitlines()


def test_table_covers_orders_one_to_five():
    assert set(range(1, 6)) <= set(ROWS)


@pytest.mark.parametrize("m", range(1, 6))
def test_closed_form_table_row(capsys, m):
    code, lines = run_cli(capsys, ["closed-form", "--m", str(m)])
    assert (code, lines) == (0, [ROWS[m]])


def test_slow_rows_match_the_pinned_closed_forms():
    # closed_form(6) and closed_form(7) are recomputed only in test_casimir.py
    assert (ROWS[6], ROWS[7]) == (CLOSED_FORM_6_TEXT, CLOSED_FORM_7_TEXT)


def test_cli_block_has_examples():
    assert [argv[0] for argv, _ in EXAMPLES] == ["elementary", "casimir", "closed-form"]


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_cli_example_output(capsys, argv, expected):
    code, lines = run_cli(capsys, argv)
    assert code == 0
    # a last comment ending in " ..." stands for the rest of the output
    if expected[-1].endswith(" ..."):
        head = expected[-1][: -len(" ...")]
        assert lines[: len(expected) - 1] == expected[:-1]
        assert lines[len(expected) - 1].startswith(head)
    else:
        assert lines == expected
