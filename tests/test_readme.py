"""README's examples, run as written: each command of the "Command line"
block exits 0, prints one JSON report and, where the block shows one under
it, that report; the values the Python snippet claims in its comments are
the values it computes; and the "Library layout" table names only what its
modules define."""

import importlib
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


def layout_rows():
    """(module, backticked identifiers of its contents) for each row of the
    "Library layout" table."""
    text = README.read_text()
    section = text[text.index("## Library layout") :]
    rows = re.findall(r"^\| `(\w+)`\s*\|(.*)\|$", section[: section.index("```")], re.M)
    identifier = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)?")
    return [
        (module, [name for name in re.findall(r"`([^`]+)`", contents) if identifier.fullmatch(name)])
        for module, contents in rows
    ]


def test_layout_table_names_module_attributes():
    rows = layout_rows()
    assert [module for module, _ in rows] == [
        "rootsys", "drinfeld", "criteria", "reports", "sl2", "echelon", "weyl_dims", "cli"
    ]
    for module, names in rows:
        assert names, module
        for name in names:
            # a dotted name is read from another module of the package
            owner, _, attr = name.rpartition(".")
            namespace = importlib.import_module(f"weylcyc.{owner or module}")
            assert hasattr(namespace, attr), f"`{name}` in the {module} row"
