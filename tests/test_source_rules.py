"""The runtime rule: stdlib only, with no floating point anywhere.

Every module of the package is parsed, not imported, so a rule broken in
code that no test runs is still caught.
"""

import ast
import os
import sys

import surfbound


def test_stdlib_only_and_no_floating_point():
    package = os.path.dirname(os.path.abspath(surfbound.__file__))
    modules = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert {"ske.py", "groups.py", "cli.py", "bounds.py"} <= set(modules)
    outside, floats = [], []
    for name in modules:
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module]
            else:
                imported = []
            outside += [f"{name}: {m}" for m in imported
                        if m.split(".")[0] not in sys.stdlib_module_names]
            if (isinstance(node, ast.Constant) and type(node.value) in (float, complex)
                    or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float"):
                floats.append(f"{name}:{node.lineno}")
    assert outside == []
    assert floats == []


def _module_level(tree):
    # every node that runs when the module is imported: function bodies are
    # skipped, class bodies and module-level if/try blocks are not
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _sibling_imports(nodes, name):
    # the lines among nodes that import a surfbound module, relatively or by name
    found = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module == "surfbound"
                                                 or node.module.startswith("surfbound.")):
            found.append(f"{name}:{node.lineno}")
        elif isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "surfbound" for alias in node.names):
            found.append(f"{name}:{node.lineno}")
    return found


def _parse(name):
    path = os.path.join(os.path.dirname(os.path.abspath(surfbound.__file__)), name)
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=name)


def test_cli_imports_no_layer_at_module_level():
    # the start-up contract for every command, including those the
    # sys.modules matrix in test_startup.py does not run
    assert _sibling_imports(_module_level(_parse("cli.py")), "cli.py") == []


def test_signatures_is_the_leaf_layer():
    # every other layer builds on signatures, which imports none of them,
    # neither at module level nor inside a function
    assert _sibling_imports(ast.walk(_parse("signatures.py")), "signatures.py") == []
