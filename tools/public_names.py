"""List the names the ``ifgame`` package exports.

Parses the checkout's own ``src/ifgame/__init__.py`` and prints every
name it imports from the package's modules, sorted, one per line.  Run
it at two commits and ``diff`` the results to see which public names a
change adds or removes:

    python3 tools/public_names.py > after.txt
    python3 tools/public_names.py --repo ../parent > before.txt
    diff before.txt after.txt

Only the standard library is used, and the package is not imported.
"""

import argparse
import ast
from pathlib import Path


def public_names(init):
    """The names imported by the relative imports of ``init``, sorted."""
    tree = ast.parse(init.read_text(encoding="utf-8"), filename=str(init))
    return sorted(alias.asname or alias.name
                  for node in tree.body
                  if isinstance(node, ast.ImportFrom) and node.level > 0
                  for alias in node.names)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout to read (default: this one)")
    args = parser.parse_args(argv)
    for name in public_names(args.repo.resolve() / "src" / "ifgame" / "__init__.py"):
        print(name)


if __name__ == "__main__":
    main()
