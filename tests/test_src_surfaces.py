"""Every function and method in `src` has a caller in `src`, or a stated
reason to exist without one."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "minet"

KEPT = {
    "write_interest_log": "a CLI flag for the tunnel's Interest log will call it",
    "read_interest_log": "a CLI flag for the tunnel's Interest log will call it",
    "interest_log": "a CLI flag for the tunnel's Interest log will read it",
    "read_record_store": "reads the record store registry-demo writes",
    "elect_bookkeepers": "the paper's bookkeeper election",
    "printed_residual_poly": "the paper's printed cubic, which acceptance "
                             "criterion 6 compares against",
    "generate_workload": "perfbench calls it",
}


def test_only_kept_surfaces_lack_a_src_caller():
    defined, named = Counter(), Counter()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined[node.name] += 1
                named[node.name] += 1
            elif isinstance(node, ast.Name):
                named[node.id] += 1
            elif isinstance(node, ast.Attribute):
                named[node.attr] += 1
    # dunder methods are called by Python itself
    uncalled = {name for name in defined
                if not name.startswith("__") and named[name] <= defined[name]}
    assert uncalled == set(KEPT)
