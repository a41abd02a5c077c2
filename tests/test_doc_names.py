"""Every lrsnet name that the README or a docstring in src/lrsnet puts in
backticks exists.

A backticked span that starts with a dotted name counts when its first part
is ``lrsnet``, an lrsnet module (``gf``, ``netsim``, ...) or a class defined
in one (``FieldTower``, ...); the rest must resolve from there by
``getattr``.  Other dotted names (``np.int64``, ``rng.getstate``) are not
lrsnet's and are skipped.  So a deleted function that a doc still names
fails here.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import lrsnet

SRC = Path(lrsnet.__file__).resolve().parent
README = SRC.parent.parent / "README.md"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if not p.stem.startswith("__"))
_DOTTED = re.compile(r"`+([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)")


def _roots():
    """First parts that name lrsnet: the package, its modules and its classes."""
    roots = {"lrsnet": lrsnet}
    for name in MODULES:
        module = importlib.import_module(f"lrsnet.{name}")
        roots[name] = module
        for cls_name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                roots[cls_name] = cls
    return roots


def _docstrings():
    """(file, docstring) of every module, class and function in src/lrsnet."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node)
                if doc:
                    out.append((path.name, doc))
    return out


def _lrsnet_names(text, roots):
    return [name for name in _DOTTED.findall(text) if name.split(".")[0] in roots]


def _resolves(name, roots):
    head, *rest = name.split(".")
    obj = roots[head]
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _unresolved(sources, roots):
    return [f"{where}: {name}" for where, text in sources
            for name in _lrsnet_names(text, roots) if not _resolves(name, roots)]


def test_every_backticked_lrsnet_name_resolves():
    roots = _roots()
    sources = [("README.md", README.read_text())] + _docstrings()
    assert _lrsnet_names(sources[0][1], roots), "README names no lrsnet name"
    assert any(_lrsnet_names(doc, roots) for _, doc in sources[1:])
    missing = _unresolved(sources, roots)
    assert not missing, "names in the docs that lrsnet does not define: " + ", ".join(missing)


def test_a_deleted_name_is_reported():
    roots = _roots()
    text = ("``FieldTower.expand`` and `netsim.transmit` are gone; "
            "`FieldTower.rank_over_base`, `sumrank.enumerable(tower, k)`, "
            "`lrsnet.gf` and `np.int64` are not")
    assert _unresolved([("doc", text)], roots) == [
        "doc: FieldTower.expand", "doc: netsim.transmit"]
