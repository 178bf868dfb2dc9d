"""The package holds what a `cmlab` subcommand reaches.

A walk over the source, from `cmlab.cli.main`, follows every name and
attribute a reached body mentions to each module-level function, class or
assignment of that name in any module of the package.  Only attributes of
modules from outside the package (np.convolve, math.gcd) are not followed.
A reached class brings its bases, decorators, class-level statements and
dunder methods (which Python calls for it); any other method or property is
reached only when its name is mentioned.  Matching by name alone
over-approximates reachability, so a definition the walk misses is reached by
no subcommand: it belongs in tests/oracles.py, or nowhere.
"""

import ast
from pathlib import Path

import cmlab

SRC = Path(cmlab.__file__).parent

# public definitions that stay although no subcommand reaches them, each with its reason
ALLOWED: set = set()


def _definitions():
    """name -> [(owner, node)] for every module-level def, class and assignment
    (owner "module") and every method (owner "module.Class"), and the names
    that `import` binds to modules from outside the package."""
    defs, foreign = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                foreign.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append((path.stem, node))
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        defs.setdefault(method.name, []).append((f"{path.stem}.{node.name}", method))
    return defs, foreign


def _parts(node):
    """The nodes a reached definition walks: a class without the methods that
    are reached by name."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    implicit = [n for n in node.body if not isinstance(n, ast.FunctionDef) or n.name.startswith("__")]
    return [*node.bases, *node.keywords, *node.decorator_list, *implicit]


def _reached(defs, foreign):
    """(owner, name) of every definition reached from cli.main."""
    reached = set()
    todo = [node for module, node in defs["main"] if module == "cli"]
    seen = set()
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for sub in (sub for part in _parts(node) for sub in ast.walk(part)):
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                if isinstance(sub.value, ast.Name) and sub.value.id in foreign:
                    continue
                name = sub.attr
            else:
                continue
            for module, target in defs.get(name, ()):
                reached.add((module, name))
                todo.append(target)
    reached.add(("cli", "main"))
    return reached


def _public(defs, reached):
    """Public module-level functions and classes, and the public methods and
    properties of reached classes."""
    classes = {f"{owner}.{name}" for owner, name in reached}
    return {
        (owner, name)
        for name, entries in defs.items()
        for owner, node in entries
        if not name.startswith("_")
        and isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and ("." not in owner or owner in classes)
    }


def test_every_public_definition_is_reached_from_the_cli():
    defs, foreign = _definitions()
    reached = _reached(defs, foreign)
    unreached = {f"{owner}.{name}" for owner, name in _public(defs, reached) - reached}
    assert unreached == ALLOWED


def test_package_exports_only_reached_names():
    reached = {name for owner, name in _reached(*_definitions()) if "." not in owner}
    exported = {name for name in vars(cmlab) if not name.startswith("_")}
    modules = {path.stem for path in SRC.glob("*.py")}
    assert exported - modules - reached == set()
