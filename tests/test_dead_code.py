"""src/lrsnet keeps only what production runs, plus the names it declares.

A function or method in ``src/lrsnet`` must be referenced somewhere in
``src/lrsnet``, be exported through ``lrsnet.__all__``, or be named in
backticks in its own module's docstring, which says why it stays (an oracle
of a fast path, a paper criterion, ...).  A method counts as referenced by
its name or any attribute of that name.  A module-level function counts
only by its name or as an attribute of an lrsnet module (``gf.mat_rank``),
so ``str.encode`` is no caller of ``lrs.encode``.  The docstrings are the
only declaration; this test keeps no list of its own.
"""

import ast
import re
from pathlib import Path

import lrsnet

SRC = Path(lrsnet.__file__).resolve().parent


def _modules():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _used_names(trees, modules):
    """(names, attributes, attributes of a module in `modules`) referenced."""
    names, attrs, module_attrs = set(), set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                owner = node.value
                if getattr(owner, "id", getattr(owner, "attr", None)) in modules:
                    module_attrs.add(node.attr)
    return names, attrs, module_attrs


def _definitions(tree):
    """(name, qualified name) of every function and method, nested ones too;
    a module-level function's qualified name has no dot."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((child.name, prefix + child.name))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def _referenced(name, qualname, used):
    names, attrs, module_attrs = used
    return name in names or name in (attrs if "." in qualname else module_attrs)


def _declared(tree):
    return set(re.findall(r"`([^`\s]+)`", ast.get_docstring(tree) or ""))


def test_every_function_in_src_has_a_caller_or_a_declaration():
    modules = _modules()
    used = _used_names(modules.values(), {Path(f).stem for f in modules})
    exported = set(lrsnet.__all__)
    dead = []
    for filename, tree in modules.items():
        declared = _declared(tree)
        for name, qualname in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if _referenced(name, qualname, used) or name in exported:
                continue
            if name in declared or qualname in declared:
                continue
            dead.append(f"{filename}: {qualname}")
    assert not dead, ("functions with no caller in src/lrsnet and no mention in "
                      "their module docstring: " + ", ".join(dead))


def test_a_module_function_is_not_called_through_another_object():
    tree = ast.parse("import lrsnet.gf\n"
                     "s.encode(); lrs.rank(); lrsnet.gf.solve(); x.enc()\n")
    used = _used_names([tree], {"lrs", "gf"})
    assert not _referenced("encode", "encode", used)
    assert _referenced("rank", "rank", used)
    assert _referenced("solve", "solve", used)
    assert _referenced("enc", "C.enc", used)
