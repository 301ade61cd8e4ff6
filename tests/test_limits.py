"""Every numerical limit is defined once, in fermicorr.limits, with its reason."""

import ast
import re
from pathlib import Path

import pytest

import fermicorr

PACKAGE = Path(fermicorr.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(PACKAGE.glob("*.py"))
LIMIT_SUFFIXES = ("_TOL", "_FLOOR", "_THRESHOLD", "_UNDERFLOW", "_WEIGHT", "_BYTES", "_OPS")


def module_names(tree: ast.Module) -> list[str]:
    """Names bound by module-level assignments."""
    names = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "limits.py"], ids=lambda p: p.name)
def test_no_limit_outside_the_table(path):
    tree = ast.parse(path.read_text())
    limits = [
        name for name in module_names(tree)
        if name.lstrip("_").startswith("MAX_") or name.endswith(LIMIT_SUFFIXES)
    ]
    assert limits == [], f"{path.name} defines limits of its own"
    tiny = [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value < 1e-6
    ]
    assert tiny == [], f"{path.name} has bare tolerance literals"
    imported = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "limits"
    ]
    assert imported == [], f"{path.name} copies limits instead of reading limits.NAME"


def readme_limits() -> dict:
    """{name: value} of the README's Numerical limits table."""
    section = README.read_text().split("\n## Numerical limits\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for name, cell in re.findall(r"^\| `(\w+)` \| ([^|]+) \|", section, re.MULTILINE):
        number, _, unit = cell.strip().partition(" ")
        table[name] = float(number) * {"": 1, "GiB": 1 << 30}[unit]
    return table


def test_every_limit_states_its_reason():
    import fermicorr.limits

    source = (PACKAGE / "limits.py").read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    assigned = [node for node in tree.body if isinstance(node, ast.Assign)]
    for node in assigned:
        assert lines[node.lineno - 2].lstrip().startswith("#"), lines[node.lineno - 1]
    # the README's table lists exactly these limits, at these values
    names = [target.id for node in assigned for target in node.targets]
    assert {name: getattr(fermicorr.limits, name) for name in names} == readme_limits()
    # cli_files time is mostly interpreter start and import
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(tree))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_refusals_name_a_limit(path):
    # limits.refuse(message, "NAME") looks NAME up when it raises
    import fermicorr.limits

    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "refuse":
            name = node.args[1].value
            assert isinstance(getattr(fermicorr.limits, name), (int, float)), (path.name, name)
