"""The runtime rule: stdlib only, with no floating point anywhere.

Every module of the package is parsed, not imported, so a rule broken in
code that no test runs is still caught.
"""

import ast
import os
import re
import sys
from collections import Counter

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


def test_bounds_imports_only_covers_late():
    # bounds imports groups, ske and signatures once, at module level; only
    # the discharge ledger and the cover witnesses import covers (and with it
    # linalg), so the genera whose witnesses come from a search load neither
    late = set()
    for fn in ast.walk(_parse("bounds.py")):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    late.update((fn.name, alias.name) for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    late.add((fn.name, "." * node.level + (node.module or "")))
    assert late == {("discharge_prime", ".covers"), ("_cover_witness", ".covers")}



def _fraction_imports(nodes):
    return [node.lineno for node in nodes
            if isinstance(node, ast.ImportFrom) and node.module == "fractions"
            or isinstance(node, ast.Import)
            and any(alias.name == "fractions" for alias in node.names)]


def test_measure_class_alone_builds_fractions_in_signatures():
    # every other rational in signatures is a (numerator, denominator) pair
    # of integers: the one import of fractions is inside measure_class
    tree = _parse("signatures.py")
    measure_class = next(node for node in tree.body
                         if isinstance(node, ast.FunctionDef) and node.name == "measure_class")
    assert _fraction_imports(ast.walk(tree)) == _fraction_imports(ast.walk(measure_class)) != []


def _word(node):
    # the identifier a node names, a keyword argument as "name="
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    if isinstance(node, ast.keyword):
        return f"{node.arg}="
    return None


def test_only_covers_knows_the_cover_step():
    # cli and bounds take a cover step through covers.lift: neither names the
    # presentation-level functions nor passes a presentation
    hidden = {"kernel_presentation", "homology_action", "build_cover", "quotient_ske_from_cover",
              "presentation="}
    named = [f"{name}:{node.lineno}: {_word(node)}" for name in ("cli.py", "bounds.py")
             for node in ast.walk(_parse(name)) if _word(node) in hidden]
    assert named == []


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def test_only_the_cap_readers_touch_the_environment():
    # each resource cap has one input, its variable, and one reader,
    # signatures.resource_cap, for the library and the commands alike.  The
    # one form allowed is a call of os.environ.get there, so nothing sets,
    # pops or deletes a variable
    package = os.path.dirname(os.path.abspath(surfbound.__file__))
    readers, other = set(), []
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        tree = _parse(name)
        gets = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                gets.update((id(node.func.value), fn.name) for node in ast.walk(fn)
                            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "get")
        for node in ast.walk(tree):
            if _word(node) in ENVIRONMENT:
                if id(node) in gets and ast.unparse(node) == "os.environ":
                    readers.add(f"{name[:-3]}.{gets[id(node)]}")
                else:
                    other.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert readers == {"signatures.resource_cap"}
    assert other == []


def test_decimal_alone_reads_integers_from_text():
    # one grammar for every number given as text: the one call of int is
    # inside signatures.decimal, and no argparse option converts with int
    package = os.path.dirname(os.path.abspath(surfbound.__file__))
    calls, options = [], []
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        tree = _parse(name)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                calls += [f"{name[:-3]}.{fn.name}" for node in ast.walk(fn)
                          if isinstance(node, ast.Call) and _word(node.func) == "int"]
        options += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.keyword) and node.arg == "type"
                    and _word(node.value) == "int"]
    assert calls == ["signatures.decimal"]
    assert options == []


def _perfbench_names():
    # what the benchmark reaches in the package, read by path: the dotted
    # names in trace_child.TARGETS, and the names crosscheck.py and
    # workloads.py import or look up as attributes
    root = os.path.join(os.path.dirname(os.path.abspath(surfbound.__file__)), "..", "..",
                        "perfbench")
    names = set()
    for name in ("trace_child.py", "crosscheck.py", "workloads.py"):
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        if name == "trace_child.py":
            targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                           and _word(node.targets[0]) == "TARGETS")
            names.update(part for node in ast.walk(targets) if isinstance(node, ast.Constant)
                         and isinstance(node.value, str) for part in node.value.split("."))
        else:
            names.update(_word(node) for node in ast.walk(tree)
                         if isinstance(node, (ast.alias, ast.Attribute)))
    return names


def test_every_definition_has_a_caller():
    # a function, method or class that nothing in the package names outside
    # its own body is dead code, unless the benchmark uses it or it is the
    # catalog the acceptance test c08 reads; dunder methods are called by
    # Python itself
    package = os.path.dirname(os.path.abspath(surfbound.__file__))
    trees = {name: _parse(name) for name in sorted(os.listdir(package)) if name.endswith(".py")}
    named = Counter(_word(node) for tree in trees.values() for node in ast.walk(tree))
    allowed = _perfbench_names() | {"small_genus_catalog"}
    uncalled = []
    for name, tree in trees.items():
        for fn in ast.walk(tree):
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not fn.name.startswith("__") and fn.name not in allowed):
                inside = sum(_word(node) == fn.name for node in ast.walk(fn))
                if named[fn.name] == inside:
                    uncalled.append(f"{name[:-3]}.{fn.name}")
    assert uncalled == []


def test_the_schema_writes_every_record():
    # a certificate's format is stated once, in its schema: no record is
    # written field by field, and each to_dict is the schema's writer
    package = os.path.dirname(os.path.abspath(surfbound.__file__))
    written, other = [], []
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            source = fh.read()
        other += [f"{name}: _asdict("] * source.count("_asdict(")
        for fn in ast.walk(ast.parse(source, filename=name)):
            if isinstance(fn, ast.FunctionDef) and fn.name == "to_dict":
                body = "\n".join(map(ast.unparse, fn.body))
                if schema := re.fullmatch(r"return write\((\w+), self\)", body):
                    written.append(f"{name[:-3]}.{schema[1]}")
                else:
                    other.append(f"{name}:{fn.lineno}: {body}")
    assert sorted(written) == ["bounds.GENUS", "bounds._LEDGER", "covers.COVER", "ske.SKE"]
    assert other == []
