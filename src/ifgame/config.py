"""Experiment configuration: a flat JSON key-value tree.

The exact grammar is documented in the README (section "Configuration
reference").  The loader reads JSON types only: unknown keys, missing
required keys and values of the wrong JSON type raise ConfigError naming
the offending field.  Every section checks its own values when it is
made, and ``GameConfig`` builds and checks its ``GameSpec`` then; the
checks that span sections (the state count, the gain quotients and the
budgets) run whenever an ``ExperimentConfig`` is made.  Both hold for
``dataclasses.replace`` too, so every config is valid.  A loaded config
round-trips through ``dataclasses.asdict``:
``load_config(json.dumps(asdict(config)))`` equals ``config``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property, partial

import numpy as np

from .game import (DEFAULT_STATE_CAP, GameSpec, StateSpaceTooLargeError, _per_link,
                   _positive, state_count)
from .pareto import AlConfig
from .vi import ViConfig
from .waterfilling import IwfConfig

SOLVER_CHOICES = ("iwf", "vi", "pareto", "all")
FORMAT_CHOICES = ("csv", "json")

#: the game field of each ``GameSpec`` argument named otherwise
_GAME_FIELDS = {"n_players": "players", "direct_alphabet": "direct_gains",
                "cross_alphabet": "cross_gains", "direct_probs": "link_probs",
                "cross_probs": "link_probs"}


class ConfigError(ValueError):
    """Invalid experiment configuration; ``field`` names the culprit."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class GameConfig:
    """The game section.  Making one builds its ``GameSpec``, kept as
    ``spec``; a value the spec rejects raises ConfigError naming its
    ``game.<field>``."""

    players: int
    direct_gains: list[float]
    cross_gains: list[float]
    pbar: list[float]
    link_probs: str | dict = "uniform"
    alpha: list[float] | None = None
    weights: list[float] | None = None

    def __post_init__(self):
        self.spec  # built and checked now

    @cached_property
    def spec(self) -> GameSpec:
        probs = self.link_probs
        if probs == "uniform":
            probs = {}
        elif isinstance(probs, dict) and probs.keys() == {"direct", "cross"}:
            probs = {f"{key}_probs": probs[key] for key in ("direct", "cross")}
        else:
            raise ConfigError('game.link_probs: must be "uniform" or an object '
                              'with the keys direct and cross', field="game.link_probs")
        try:
            return GameSpec(self.players, self.direct_gains, self.cross_gains,
                            self.pbar, self.alpha, self.weights, **probs)
        except ValueError as exc:  # each message starts with its argument's name
            name = str(exc).split(maxsplit=1)[0].rstrip(":")
            field = f"game.{_GAME_FIELDS.get(name, name)}"
            raise ConfigError(f"{field}: {exc}", field=field) from None


@dataclass(frozen=True)
class SolverConfig:
    which: str = "all"
    state_cap: int = DEFAULT_STATE_CAP
    iwf: IwfConfig = field(default_factory=IwfConfig)
    vi: ViConfig = field(default_factory=ViConfig)
    pareto: AlConfig = field(default_factory=AlConfig)

    def __post_init__(self):
        if self.which not in SOLVER_CHOICES:
            raise ValueError(f"which must be one of {SOLVER_CHOICES}")

    @property
    def names(self) -> tuple[str, ...]:
        """The solvers ``which`` runs, in their run order."""
        return ("iwf", "vi", "pareto") if self.which == "all" else (self.which,)


@dataclass(frozen=True)
class SweepConfig:
    """The budgets a sweep solves at: finite and positive, at least one."""

    values: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)

    def __post_init__(self):
        values = _positive(self.values, "values")
        object.__setattr__(self, "values", tuple(values.tolist()))


@dataclass(frozen=True)
class SimulateConfig:
    slots: int = 1_000_000
    seed: int = 7

    def __post_init__(self):
        # numpy draws the slot counts as int64, and the empirical rates
        # divide by the slot count
        if not (isinstance(self.slots, numbers.Integral) and 1 <= self.slots < 2**63):
            raise ValueError("slots must be an integer in [1, 2^63)")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    formats: tuple[str, ...] = FORMAT_CHOICES
    pareto_trajectories: bool = False

    def __post_init__(self):
        if not (isinstance(self.dir, str) and self.dir):
            raise ValueError("dir must be a non-empty string")
        if not (isinstance(self.formats, (list, tuple)) and self.formats
                and all(f in FORMAT_CHOICES for f in self.formats)):
            raise ValueError(f"formats must be a non-empty list from {FORMAT_CHOICES}")
        object.__setattr__(self, "formats", tuple(self.formats))
        if not isinstance(self.pareto_trajectories, bool):
            raise ValueError("pareto_trajectories must be true or false")


@dataclass(frozen=True)
class ExperimentConfig:
    game: GameConfig
    solver: SolverConfig = field(default_factory=SolverConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    simulate: SimulateConfig = field(default_factory=SimulateConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def __post_init__(self):
        """The checks that span sections, run on every config made."""
        spec = self.game.spec
        try:  # before the budgets: a huge space overflows 1 / min state probability
            state_count(spec, self.solver.state_cap)
        except StateSpaceTooLargeError as exc:
            raise ConfigError(str(exc), field="solver.state_cap") from None
        _check_quotients(spec)
        c = self.solver.pareto.c if "pareto" in self.solver.names else None
        _check_products(spec, spec.pbar, "game.pbar", c)
        _check_products(spec, self.sweep.values, "sweep.values", c)


def _require_keys(node, allowed, required, where):
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be an object", field=where)
    for key in node:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}", field=f"{where}.{key}")
    for key in sorted(required):  # deterministic first-reported field
        if key not in node:
            raise ConfigError(f"missing required key {key!r} in {where}",
                              field=f"{where}.{key}")


def _number(value, name, integral=False):
    """A finite JSON number.

    Booleans are rejected although Python treats them as ints, and an
    integral field rejects a fractional value instead of truncating it.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number", field=name)
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite", field=name)
    if integral and not number.is_integer():
        raise ConfigError(f"{name} must be an integer", field=name)
    return int(value) if integral else number


def _nested_numbers(value, name):
    """Every entry of nested lists as a finite number; the shapes and the
    signs are left to the dataclass."""
    if isinstance(value, list):
        return [_nested_numbers(v, name) for v in value]
    return _number(value, name)


def _parse_game(node) -> GameConfig:
    """The game section: its numbers are read here, and ``GameConfig``
    checks their shapes and ranges.  A null is passed on, and only
    ``alpha`` and ``weights`` accept one."""
    _require_keys(node, {f.name for f in fields(GameConfig)},
                  {"players", "direct_gains", "cross_gains", "pbar"}, "game")
    game = {key: value if value is None or key == "link_probs"
            else _nested_numbers(value, f"game.{key}") for key, value in node.items()}
    game["players"] = _number(node["players"], "game.players", integral=True)
    if game.get("link_probs", "uniform") != "uniform":
        probs = game["link_probs"]
        _require_keys(probs, {"direct", "cross"}, {"direct", "cross"}, "game.link_probs")
        game["link_probs"] = {k: _nested_numbers(v, "game.link_probs")
                              for k, v in probs.items()}
    return GameConfig(**game)


def _check_quotients(spec: GameSpec):
    """The condition checks and solvers use 1/(alpha*direct) and
    cross/(alpha*direct); both must be finite for every alphabet entry.
    The extremes are the smallest alpha*direct and the largest cross."""
    alpha = float(spec.alpha.min())
    direct = float(spec.direct_alphabet.min())
    with np.errstate(over="ignore", divide="ignore"):
        geff = np.float64(alpha) * direct
        if not np.isfinite(1.0 / geff):
            field = ("game.direct_gains" if not np.isfinite(1.0 / np.float64(direct))
                     else "game.alpha")
            raise ConfigError(f"{field}: 1 / (alpha * direct gain) overflows for "
                              f"alpha {alpha!r} and direct gain {direct!r}",
                              field=field)
        cross = float(spec.cross_alphabet.max())
        if spec.n_players > 1 and not np.isfinite(cross / geff):
            raise ConfigError(f"game.cross_gains: cross gain / (alpha * direct gain) "
                              f"overflows for cross gain {cross!r}, alpha {alpha!r} "
                              f"and direct gain {direct!r}", field="game.cross_gains")


def _check_products(spec: GameSpec, budgets, field, c=None):
    """Every product the solvers form from a budget must be finite.

    With pbar the largest of ``budgets`` and pi_min the smallest state
    probability, a feasible policy can put pbar / pi_min in one state.
    The floors f_i = hhat_i + sum_j Hhat_ij P_j add up N such powers
    times a coupling cross / (alpha_i * direct), and every solver forms
    f_i + P_i or P_i / f_i from them.  The check bounds the floors by
    "the water-filling floor" below: N such powers times the largest
    gain (alpha times a direct gain, or a direct or cross gain), "the
    received power", over the smallest alpha * direct gain.  The
    received power itself is no longer formed by any solver; its check
    is kept, so the budgets accepted are unchanged.  With ``c`` given,
    the AL penalty c * sum_i slack_i^2 is formed too, with |slack_i| up
    to pbar.  Each is evaluated in float64, so an intermediate overflow
    shows as inf.
    """
    n = spec.n_players
    def least(probs):  # the smallest positive probability of each link
        return np.where(probs > 0, probs, np.inf).min(axis=-1)

    pi_min = np.prod(_per_link(least(spec.direct_probs), least(spec.cross_probs)))
    alpha, direct = spec.alpha, spec.direct_alphabet
    gain = max(direct.max() * max(1.0, alpha.max()), spec.cross_alphabet.max())
    pbar = np.float64(max(budgets))
    with np.errstate(over="ignore", divide="ignore"):
        peak = pbar / pi_min
        received = n * gain * peak
        products = {"the power of one state, pbar / min state probability": peak,
                    "the received power": received,
                    "the water-filling floor": received / (alpha.min() * direct.min())}
        if c is not None:
            products["the AL penalty c * N * pbar^2"] = c * (n * (pbar * pbar))
    for what, value in products.items():
        if not np.isfinite(value):
            raise ConfigError(f"{field}: budget {float(pbar)!r} overflows {what}",
                              field=field)


def _section(cls, node, where, **parsers):
    """Parse a config object into the dataclass ``cls``.

    The keys are the field names, and an absent key keeps the field's
    default.  A field named in ``parsers`` is read by that function, a
    field whose default is a number must be a finite number, integral
    when that default is an int, and any other is passed on as given.
    The dataclass then checks each given field alone, so a value it
    rejects is reported against that field.
    """
    _require_keys(node, {f.name for f in fields(cls)}, set(), where)
    values = {}
    for f in fields(cls):
        if f.name not in node:
            continue
        name, value = f"{where}.{f.name}", node[f.name]
        if f.name in parsers:
            value = parsers[f.name](value, name)
        elif type(f.default) in (int, float):
            value = _number(value, name, type(f.default) is int)
        try:
            cls(**{f.name: value})
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}", field=name) from None
        values[f.name] = value
    return cls(**values)


def _optional_number(value, name):
    return None if value is None else _number(value, name)


def _parse_solver(node) -> SolverConfig:
    return _section(SolverConfig, node, "solver", iwf=partial(_section, IwfConfig),
                    vi=partial(_section, ViConfig),
                    pareto=partial(_section, AlConfig, delta=_optional_number))


def load_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment configuration."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}", field=None) from None
    _require_keys(doc, {f.name for f in fields(ExperimentConfig)}, {"game"}, "config")
    return ExperimentConfig(
        game=_parse_game(doc["game"]),
        solver=_parse_solver(doc.get("solver", {})),
        sweep=_section(SweepConfig, doc.get("sweep", {}), "sweep",
                       values=_nested_numbers),
        simulate=_section(SimulateConfig, doc.get("simulate", {}), "simulate"),
        output=_section(OutputConfig, doc.get("output", {}), "output"))


def load_config_file(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return load_config(fh.read())
