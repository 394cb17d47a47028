"""README's examples run as shown: each `$ partwaves ...` line of the
command-line block through `cli.main`, and the `## Library` block through
`exec`."""

import shlex
from pathlib import Path

import pytest

from partwaves.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _section_block(heading, fence):
    """The body of the first `fence` code block after `heading`."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def _cli_examples():
    """(argv, shown output lines) per `$ partwaves` line; a blank line only
    separates examples."""
    examples = []
    for line in _section_block("## Command line", "sh").splitlines():
        if line.startswith("$ partwaves "):
            examples.append((shlex.split(line)[2:], []))
        elif line:
            examples[-1][1].append(line)
    return examples


EXAMPLES = _cli_examples()


def test_readme_examples_are_found():
    assert sum(1 for _, shown in EXAMPLES if shown) == 6
    assert [argv[0] for argv, shown in EXAMPLES if not shown] == ["verify"] * 3


@pytest.mark.parametrize(
    "argv, shown", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_cli_example_prints_what_readme_shows(capsys, argv, shown):
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    # A trailing `...` shows only the first lines of the output.
    if shown[-1:] == ["..."]:
        shown = shown[:-1]
        out = out[: len(shown)]
    if shown:
        assert out == shown


def test_library_example_runs():
    exec(_section_block("## Library", "python"), {})
