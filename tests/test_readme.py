"""The annotated examples of README.md, run: each `compute` line marked
`# -> N`, each line of the library block with a value after `#`, the
`gw_blowup(...) == N` of the text, the package names the text cites, and
the package docstring's list of its public surface."""

import ast
import os
import re
import shlex

import pytest

import tangentcount
from tangentcount import Engine, cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _blocks(text, lang):
    return re.findall(r"^```%s\n(.*?)^```" % lang, text, re.S | re.M)


def _shown(annotation, value):
    """Whether an annotation shows value; '{first, ..., last}' shows the
    first and last entries of a dict."""
    if "..." not in annotation:
        return ast.literal_eval(annotation) == value
    ends = ast.literal_eval(annotation.replace(", ...,", ","))
    items = list(value.items())
    return list(ends.items()) == [items[0], items[-1]]


@pytest.fixture(scope="module")
def readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_compute_examples(readme, capsys, monkeypatch):
    monkeypatch.delenv("TANGENTCOUNT_CACHE", raising=False)
    checked = []
    for block in _blocks(readme, "sh"):
        for line in block.splitlines():
            command, _, expected = line.partition("# -> ")
            if not expected:
                continue
            argv = shlex.split(command)
            assert argv[:2] == ["tangentcount", "compute"], line
            assert cli.main(argv[1:]) == 0
            checked.append((capsys.readouterr().out, expected + "\n"))
    assert len(checked) == 3
    assert [out for out, _ in checked] == [want for _, want in checked]


def test_library_examples(readme):
    (block,) = _blocks(readme, "python")
    namespace, checked = {}, 0
    for line in block.splitlines():
        code, _, annotation = line.partition("  # ")
        if not annotation:
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        assert _shown(annotation.strip(), value), (line, value)
        checked += 1
    assert checked == 5


def test_gw_blowup_example(readme):
    examples = re.findall(r"`(gw_blowup\(.*?\)) == (\d+)`", readme)
    assert len(examples) == 1
    for call, value in examples:
        assert eval(call, vars(tangentcount)) == int(value)


def test_prose_names_exist(readme):
    # each `tangentcount.X`, `cli.X` and `engine.X` (an Engine attribute)
    # of the text names something the package has
    owners = {"tangentcount": tangentcount, "cli": cli, "engine": Engine}
    names = re.findall(r"`(tangentcount|cli|engine)\.(\w+)`", readme)
    assert len(names) == 4
    assert [(owner, name) for owner, name in names
            if not hasattr(owners[owner], name)] == []


def test_the_public_surface_list_names_all():
    # the package docstring's "Public surface" list names exactly __all__
    listing = tangentcount.__doc__.split("Public surface:\n\n", 1)[1]
    names = re.findall(r"^  (\w+)", listing.split("\n\n", 1)[0], re.M)
    assert set(names) == set(tangentcount.__all__) - {"__version__"}
    assert len(names) == len(set(names))
