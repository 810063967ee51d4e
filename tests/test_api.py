"""``src/mfx`` holds what the product runs: a public top-level function or
class there must be used by the package itself or by the benchmark.  Code
that only the tests use belongs next to them, in ``tests/util.py``.

A name counts as used where it appears (as a name, an attribute or an
imported name) in ``src/mfx`` outside its own definition, or anywhere in
``benchmark/``.  Matching is by name alone, so the check can miss an
unused definition whose name is common, but it never flags a used one.
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


def test_public_api_in_src_is_used_outside_the_tests():
    # every top-level statement of every module, with the names it uses
    statements = []
    for path in sorted((ROOT / "src" / "mfx").glob("*.py")):
        for st in ast.parse(path.read_text()).body:
            statements.append((path.name, st, _names(st)))
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
