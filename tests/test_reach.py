"""Every top-level definition of the package is reached from the CLI,
except the library names the README keeps for the acceptance suite.

A name graph over `src/titeica`, built with the standard library's `ast`:
the nodes are the top-level functions, classes and assignments of each
module (the `__init__` re-exports excluded), and a node points at every
package definition its source names, directly, through an import
alias or as an attribute of an imported package module.  A class counts
as one node with all of its methods.  The roots are `cli.main`,
`cli.run` and `cli.Pipeline`.
"""

import ast
from pathlib import Path

import titeica

PACKAGE = Path(titeica.__file__).parent
ROOTS = [("cli", "main"), ("cli", "run"), ("cli", "Pipeline")]

# kept as library functions for the acceptance suite and the tests;
# `spsolve`, `reality_check` (with `_star`, which only it calls) and
# `develop_rp2` (with `normalize_rp2`) as the benchmark tracer's targets
# too; the README lists them
KEPT = {
    "conormal_dual", "shape_operator_norm", "ch2_continuation_bound",
    "residual_local", "toda_residual_complex", "SingularInputError",
    "gauss_curvature", "global_weight", "polyline_path", "cell_loop",
    "load_mesh_vertices",
    "spsolve", "reality_check", "_star", "develop_rp2", "normalize_rp2",
}

DEF_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _target_names(stmt):
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def _module_of(node):
    """Package module an `from . import` / `from .x import` statement
    names, or None for an import from outside the package."""
    if node.level != 1:
        return None
    return node.module or ""


def parse_package():
    """(defs, aliases): defs maps (module, name) to its AST node; aliases
    maps (module, local name) to a (module, name) definition or to a
    package module ("module", None)."""
    defs, aliases = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        if mod == "__init__":
            continue
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            if isinstance(stmt, DEF_TYPES):
                defs[(mod, stmt.name)] = stmt
            for name in _target_names(stmt):
                defs[(mod, name)] = stmt
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _module_of(node) is not None:
                src = _module_of(node)
                for a in node.names:
                    if src:
                        aliases[(mod, a.asname or a.name)] = (src, a.name)
                    else:
                        aliases[(mod, a.asname or a.name)] = (a.name, None)
    return defs, aliases


def references(mod, node, defs, aliases):
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if (mod, sub.id) in defs:
                out.add((mod, sub.id))
            elif (mod, sub.id) in aliases:
                out.add(aliases[(mod, sub.id)])
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            target = aliases.get((mod, sub.value.id))
            if target is not None and target[1] is None:
                out.add((target[0], sub.attr))
    return {r for r in out if r in defs}


def unreached():
    defs, aliases = parse_package()
    seen, todo = set(), list(ROOTS)
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        todo.extend(references(key[0], defs[key], defs, aliases) - seen)
    return {key for key, node in defs.items()
            if key not in seen and isinstance(node, DEF_TYPES)}


def test_only_the_kept_library_names_are_unreached():
    names = [name for _, name in unreached()]
    assert sorted(names) == sorted(KEPT)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert all(f"`{name}`" in readme for name in KEPT)
