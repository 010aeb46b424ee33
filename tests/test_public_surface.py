"""The public surface: the README example, the package exports, no import
that a module does not use, and no new import at package import time."""

import ast
import contextlib
import io
import re
from pathlib import Path

import skewsep

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "skewsep"


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().split() == ["True", "False", "True"]


def test_every_export_resolves_once():
    names = skewsep.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(skewsep, name) is not None, name


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    annotations = [node.returns for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    annotations += [node.annotation for node in ast.walk(tree)
                    if isinstance(node, (ast.arg, ast.AnnAssign))]
    # a string annotation such as -> "Matrix" names what it parses to
    trees = [tree] + [ast.parse(node.value, mode="eval") for ann in annotations if ann
                      for node in ast.walk(ann)
                      if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    used = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted((ROOT / "tests").glob("*.py"))
    assert modules
    assert [hit for p in modules for hit in _unused_imports(p)] == []


# Every import outside a function body runs at `import skewsep`, and that
# import is almost all of a cold run's set-up time (the `setup_s` of the
# benchmark).  A new one (fractions, decimal, ...) has to change this set.
MODULE_LEVEL_STDLIB = {"argparse", "contextlib", "dataclasses", "itertools", "json",
                       "math", "sys"}


def _module_level_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports that run when the module
    is imported: every import statement outside a function body."""
    names = set()
    stack = list(ast.parse(path.read_text()).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level \
                and node.module != "__future__":
            names.add(node.module.split(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_module_level_imports_are_pinned():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert set().union(*map(_module_level_imports, modules)) == MODULE_LEVEL_STDLIB
