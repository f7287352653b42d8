"""List the names the ``ifgame`` package exports, with their public members.

Parses the checkout's own ``src/ifgame/__init__.py`` and prints, sorted,
one per line:

  * every name it imports from the package's modules;
  * for each exported class, each public member defined in its body:
    ``InterferenceOperator.definite``;
  * for each exported function, its parameter list:
    ``condition_report(spec, op)``.

Run it at two commits and ``diff`` the results to see which public
names, members and parameters a change adds or removes:

    python3 tools/public_names.py > after.txt
    python3 tools/public_names.py --repo ../parent > before.txt
    diff before.txt after.txt

The exported names alone are the lines without a ``.`` or a ``(``.
Only the standard library is used, and the package is not imported: the
members and parameters are read from the module sources.
"""

import argparse
import ast
from pathlib import Path


def exports(init):
    """(module, name, alias) of each relative import of ``init``."""
    tree = ast.parse(init.read_text(encoding="utf-8"), filename=str(init))
    return [(node.module, alias.name, alias.asname or alias.name)
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names]


def parameters(func):
    """The parameter list of a function definition, without defaults."""
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if args.vararg or args.kwonlyargs:
        names.append("*" + (args.vararg.arg if args.vararg else ""))
    names += [a.arg for a in args.kwonlyargs]
    if args.kwarg:
        names.append("**" + args.kwarg.arg)
    return f"({', '.join(names)})"


def members(cls):
    """The public names defined in a class body: fields, class
    attributes, methods and properties."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def public_names(init):
    """The export lines of ``init``'s package, sorted."""
    lines = []
    for module, name, alias in exports(init):
        lines.append(alias)
        source = init.parent / (module.replace(".", "/") + ".py")
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
        for node in tree.body:
            if getattr(node, "name", None) != name:
                continue
            if isinstance(node, ast.ClassDef):
                lines += [f"{alias}.{m}" for m in members(node) if not m.startswith("_")]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines.append(alias + parameters(node))
    return sorted(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout to read (default: this one)")
    args = parser.parse_args(argv)
    for line in public_names(args.repo.resolve() / "src" / "ifgame" / "__init__.py"):
        print(line)


if __name__ == "__main__":
    main()
