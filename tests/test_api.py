"""``src/mfx`` holds what the product runs: a public top-level function or
class there must be used by the package itself or by the benchmark.  Code
that only the tests use belongs next to them, in ``tests/util.py``.  Nor
may it hold dead code: an import its module never uses, or a private
top-level function, class or constant that the package never uses.

A name counts as used where it appears (as a name, an attribute or an
imported name) in ``src/mfx`` outside its own definition, or anywhere in
``benchmark/``; an imported name is used where its module reads it, or
where another module of the package imports it from there.  Matching is
by name alone, so the check can miss an unused definition whose name is
common, but it never flags a used one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _names(node) -> set:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
    return out


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted((ROOT / "src" / "mfx").glob("*.py"))}


def _statements(modules: dict) -> list:
    """Every top-level statement of every module, with the names it uses."""
    return [(module, st, _names(st))
            for module, tree in modules.items() for st in tree.body]


def test_public_api_in_src_is_used_outside_the_tests():
    statements = _statements(_modules())
    benchmark = set()
    for path in (ROOT / "benchmark").glob("*.py"):
        benchmark |= _names(ast.parse(path.read_text()))
    unused = [
        "%s: %s" % (module, st.name)
        for module, st, _ in statements
        if isinstance(st, (ast.FunctionDef, ast.ClassDef))
        and not st.name.startswith("_") and st.name not in benchmark
        and not any(st.name in names for _, other, names in statements
                    if other is not st)]
    assert unused == []


def test_src_has_no_unused_imports_or_private_definitions():
    modules = _modules()
    # module -> the names other modules of the package import from it
    reexported: dict = {}
    for tree in modules.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.level == 1 and n.module:
                reexported.setdefault(n.module, set()).update(
                    a.name for a in n.names)
    dead = []
    for module, tree in modules.items():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for n in ast.walk(tree):
            if isinstance(n, (ast.Import, ast.ImportFrom)) \
                    and getattr(n, "module", None) != "__future__":
                for a in n.names:
                    bound = a.asname or a.name.partition(".")[0]
                    if bound not in read \
                            and a.name not in reexported.get(module, ()):
                        dead.append("%s: import %s" % (module, a.name))
    statements = _statements(modules)
    for module, st, _ in statements:
        if isinstance(st, (ast.FunctionDef, ast.ClassDef)):
            defined = [st.name]
        elif isinstance(st, (ast.Assign, ast.AnnAssign)):
            targets = st.targets if isinstance(st, ast.Assign) else [st.target]
            defined = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        dead.extend(
            "%s: %s" % (module, name) for name in defined
            if name.startswith("_") and not name.startswith("__")
            and not any(name in names for _, other, names in statements
                        if other is not st))
    assert dead == []


def test_hot_value_classes_are_slotted():
    # a run builds these once per node, event, call argument or rule
    # application; a class that falls back to __dict__ instances costs
    # construction time and memory on every one of them
    from mfx import mft, stream, xmlio
    from mfx.forest import Call, Node, Param
    hot = (Node, Call, Param, xmlio.StartElement, xmlio.StartAttribute,
           xmlio.Text, stream._Susp, stream._Cell, mft._Env, mft._Thunk)
    unslotted = [cls.__name__ for cls in hot
                 if "__slots__" not in vars(cls)
                 or "__dict__" in dir(cls)]
    assert unslotted == []
