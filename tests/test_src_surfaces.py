"""Every function and method in `src` has a caller in `src`, or a stated
reason to exist without one."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "minet"

KEPT = {
    "printed_residual_poly": "the paper's printed cubic, which acceptance "
                             "criterion 6 compares against",
    "generate_workload": "perfbench calls it",
    "dump": "the table text that the forwarding-table pins hash",
}


def _external_modules(tree: ast.Module) -> set[str]:
    """Names an `import` statement binds to a module outside `minet`."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.split(".")[0] != "minet"}


def test_only_kept_surfaces_lack_a_src_caller():
    # A function is called through its name or an attribute, a method only
    # through an attribute; `json.dump` calls no `dump` of ours.
    functions, methods = set(), set()
    names, attributes = Counter(), Counter()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text())
        external = _external_modules(tree)
        in_class = {id(item) for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                (methods if id(node) in in_class else functions).add(node.name)
            elif isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id in external):
                attributes[node.attr] += 1
    # dunder methods are called by Python itself
    uncalled = {name for name in functions | methods
                if not name.startswith("__") and not attributes[name]
                and not (name in functions and names[name])}
    assert uncalled == set(KEPT)


def test_src_does_not_import_perfbench():
    # the benchmark imports the package, never the other way round
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "perfbench"
                           for m in modules), path
