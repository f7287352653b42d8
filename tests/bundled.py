"""The bundled games, read from the repository's ``configs/*.json``.

Those files are the only definition of the bundled games; the tests
load them here instead of writing the games out again.
"""

import json
from pathlib import Path

from ifgame import load_config_file

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
NAMES = ("example1", "example2", "pd_not_contractive")


def path(name):
    return CONFIGS / f"{name}.json"


def doc(name):
    """The parsed JSON document of ``configs/<name>.json`` (a fresh copy)."""
    return json.loads(path(name).read_text(encoding="utf-8"))


def config(name):
    """The loaded ExperimentConfig of ``configs/<name>.json``."""
    return load_config_file(path(name))


def spec(name):
    """The GameSpec of ``configs/<name>.json``."""
    return config(name).game.build_spec()
