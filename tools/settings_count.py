"""Count the settable values of an ``ifgame`` experiment config.

A settable value is a leaf field reachable from ``ExperimentConfig``
through its nested config dataclasses: ``game.pbar``, ``solver.iwf.tol``
and so on.  Prints the count of the checkout's own ``src/ifgame``; run
it at two commits to compare them:

    python3 tools/settings_count.py
    python3 tools/settings_count.py --repo ../parent

Only the standard library is used here; importing the package needs
numpy.
"""

import argparse
import dataclasses
import sys
import typing
from pathlib import Path


def leaves(cls):
    """The dotted names of the leaf fields of the dataclass ``cls``; a
    field whose type is a config dataclass, a section, counts as its
    own leaves."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if dataclasses.is_dataclass(hint):
            yield from (f"{f.name}.{leaf}" for leaf in leaves(hint))
        else:
            yield f.name


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout to count (default: this one)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.repo.resolve() / "src"))
    from ifgame.config import ExperimentConfig
    print(len(list(leaves(ExperimentConfig))))


if __name__ == "__main__":
    main()
