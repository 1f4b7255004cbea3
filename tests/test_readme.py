"""README's examples, run as written: each command of the "Command line"
block exits 0, prints one JSON report and, where the block shows one under
it, that report; and the values the Python snippet claims in its comments
are the values it computes."""

import json
import re
import shlex
from pathlib import Path

import pytest

from weylcyc.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(heading, lang):
    """The first ```lang block after the heading."""
    text = README.read_text()
    match = re.compile(rf"```{lang}\n(.*?)```", re.S).search(text, text.index(heading))
    return match.group(1)


def command_examples():
    """(argv, shown output or None) for each command of the block; a line
    `# {...}` right under a command is its output."""
    examples = []
    for line in fenced_block("## Command line", "sh").replace("\\\n", " ").splitlines():
        if line.startswith("weylcyc "):
            examples.append((shlex.split(line)[1:], None))
        elif line.startswith("# {"):
            examples[-1] = (examples[-1][0], line[2:])
    return examples


EXAMPLES = command_examples()


def test_block_has_every_command():
    assert {argv[0] for argv, _ in EXAMPLES} == {
        "sets", "check", "dual", "factorize", "dims", "sl2-oracle", "selftest"
    }


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[" ".join(a[:2]) for a, _ in EXAMPLES])
def test_command_line_example(capsys, argv, shown):
    assert main(argv) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert isinstance(report, dict)
    if shown is None:
        return
    if shown.endswith(", ...}"):
        # a shown subset of the report's keys
        expected = json.loads(shown[: -len(", ...}")] + "}")
        assert {key: report[key] for key in expected} == expected
    else:
        assert out == shown + "\n"


def test_python_snippet_claims():
    code = fenced_block("## Library layout", "python")
    namespace = {}
    exec(code, namespace)
    claims = re.findall(r"^(\S.*?)\s+# (\S+)", code, re.M)
    assert len(claims) == 2
    for expression, claim in claims:
        assert eval(expression, namespace) == eval(claim, namespace)
