"""Experiment configuration: a flat JSON key-value tree.

The exact grammar is documented in the README (section "Configuration
reference").  Unknown keys are rejected, missing required keys and
out-of-range values raise ConfigError naming the offending field.  A
loaded config round-trips through ``dataclasses.asdict``:
``load_config(json.dumps(asdict(config)))`` equals ``config``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .game import (DEFAULT_STATE_CAP, GainAlphabets, GameSpec, LinkDistribution,
                   StateSpaceTooLargeError, _link_supports, state_count)
from .pareto import AlConfig
from .vi import ViConfig
from .waterfilling import SCHEME_CHOICES, IwfConfig

SOLVER_CHOICES = ("iwf", "vi", "pareto", "all")
FORMAT_CHOICES = ("csv", "json")

DEFAULT_SWEEP_VALUES = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]


class ConfigError(ValueError):
    """Invalid experiment configuration; ``field`` names the culprit."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class GameConfig:
    players: int
    direct_gains: list[float]
    cross_gains: list[float]
    pbar: list[float]
    link_probs: str | dict = "uniform"
    alpha: list[float] | None = None
    weights: list[float] | None = None

    def build_spec(self) -> GameSpec:
        vectors = dict(pbar=self.pbar, alpha=self.alpha, weights=self.weights)
        if self.link_probs == "uniform":
            return GameSpec.symmetric(self.players, self.direct_gains,
                                      self.cross_gains, **vectors)
        gains = GainAlphabets(direct=self.direct_gains, cross=self.cross_gains)
        dists = LinkDistribution(direct=np.array(self.link_probs["direct"]),
                                 cross=np.array(self.link_probs["cross"]))
        return GameSpec(n_players=self.players, gains=gains, dists=dists, **vectors)


@dataclass(frozen=True)
class SolverConfig:
    which: str = "all"
    state_cap: int = DEFAULT_STATE_CAP
    iwf: IwfConfig = field(default_factory=IwfConfig)
    vi: ViConfig = field(default_factory=ViConfig)
    pareto: AlConfig = field(default_factory=AlConfig)


@dataclass(frozen=True)
class SweepConfig:
    values: list[float] = field(default_factory=lambda: list(DEFAULT_SWEEP_VALUES))


@dataclass(frozen=True)
class SimulateConfig:
    slots: int = 1_000_000
    seed: int = 7


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    formats: list[str] = field(default_factory=lambda: ["csv", "json"])
    pareto_trajectories: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    game: GameConfig
    solver: SolverConfig = field(default_factory=SolverConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    simulate: SimulateConfig = field(default_factory=SimulateConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


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


def _number(value, name, integral=False, low=0.0, high=None):
    """A finite JSON number within the exclusive bounds (low, high).

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
    if low is not None and number <= low:
        raise ConfigError(f"{name} must be > {low}", field=name)
    if high is not None and value >= high:  # exact: float(2**63 - 1) == 2**63
        raise ConfigError(f"{name} must be < {high}", field=name)
    return int(value) if integral else number


def _positive_list(value, name):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a non-empty list", field=name)
    return [_number(v, name) for v in value]


def _nested_numbers(value, name):
    """Every entry of nested lists as a finite number; the shapes and the
    signs are left to ``LinkDistribution``."""
    if isinstance(value, list):
        return [_nested_numbers(v, name) for v in value]
    return _number(value, name, low=None)


def _vector(node, key, n, where):
    """A positive per-player vector, given as n numbers or as one."""
    if node.get(key) is None:
        return None
    raw = node[key] if isinstance(node[key], list) else [node[key]] * n
    if len(raw) != n:
        raise ConfigError(f"{where}.{key} must have {n} entries", field=f"{where}.{key}")
    return [_number(v, f"{where}.{key}") for v in raw]


def _parse_game(node) -> tuple[GameConfig, GameSpec]:
    _require_keys(node, {f.name for f in fields(GameConfig)},
                  {"players", "direct_gains", "cross_gains", "pbar"}, "game")
    players = _number(node["players"], "game.players", integral=True)
    direct = _positive_list(node["direct_gains"], "game.direct_gains")
    cross = _positive_list(node["cross_gains"], "game.cross_gains")
    link_probs = node.get("link_probs", GameConfig.link_probs)
    if link_probs != "uniform":
        _require_keys(link_probs, {"direct", "cross"}, {"direct", "cross"},
                      "game.link_probs")
        link_probs = {key: _nested_numbers(link_probs[key], "game.link_probs")
                      for key in ("direct", "cross")}
    pbar = _vector(node, "pbar", players, "game")
    if pbar is None:
        raise ConfigError("game.pbar must be given", field="game.pbar")
    game = GameConfig(players=players, direct_gains=direct, cross_gains=cross,
                      pbar=pbar, link_probs=link_probs,
                      alpha=_vector(node, "alpha", players, "game"),
                      weights=_vector(node, "weights", players, "game"))
    try:
        spec = game.build_spec()  # every other input it checks was checked above
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"game.link_probs: {exc}", field="game.link_probs") from None
    _check_quotients(spec)
    return game, spec


def _check_quotients(spec: GameSpec):
    """The condition checks and solvers use 1/(alpha*direct) and
    cross/(alpha*direct); both must be finite for every alphabet entry.
    The extremes are the smallest alpha*direct and the largest cross."""
    alpha = float(spec.alpha.min())
    direct = float(spec.gains.direct.min())
    with np.errstate(over="ignore", divide="ignore"):
        geff = np.float64(alpha) * direct
        if not np.isfinite(1.0 / geff):
            field = ("game.direct_gains" if not np.isfinite(1.0 / np.float64(direct))
                     else "game.alpha")
            raise ConfigError(f"{field}: 1 / (alpha * direct gain) overflows for "
                              f"alpha {alpha!r} and direct gain {direct!r}",
                              field=field)
        cross = float(spec.gains.cross.max())
        if spec.n_players > 1 and not np.isfinite(cross / geff):
            raise ConfigError(f"game.cross_gains: cross gain / (alpha * direct gain) "
                              f"overflows for cross gain {cross!r}, alpha {alpha!r} "
                              f"and direct gain {direct!r}", field="game.cross_gains")


def _check_budgets(spec: GameSpec, budgets, field, c=None):
    """Every product the solvers form from a budget must be finite.

    With pbar the largest of ``budgets`` and pi_min the smallest state
    probability, a feasible policy can put pbar / pi_min in one state;
    a receiver sums N such powers times the largest gain (alpha times a
    direct gain, or a direct or cross gain), and the water-filling
    floors divide that by the smallest alpha * direct gain.  With ``c``
    given, the AL penalty c * sum_i slack_i^2 is formed too, with
    |slack_i| up to pbar.  Each is evaluated in float64 in the order
    the solvers form it, so an intermediate overflow shows as inf.
    """
    n = spec.n_players
    pi_min = np.prod([probs.min() for _, probs in _link_supports(spec)])
    alpha, direct = spec.alpha, spec.gains.direct
    gain = max(direct.max() * max(1.0, alpha.max()), spec.gains.cross.max())
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


#: exclusive (low, high) bounds of numeric fields; unlisted ones must be > 0
#: (numpy seeds must be >= 0, and numpy draws the slot counts as int64)
_BOUNDS = {"seed": (-1, None), "decay": (0.0, 1.0), "slots": (0.0, 2**63)}


def _section(cls, node, where, **parsers):
    """Parse a config object into the dataclass ``cls``.

    The keys are the field names, and an absent key keeps the field's
    default.  A field named in ``parsers`` is read by that function; any
    other is a number, integral when its default is an int and bounded
    by ``_BOUNDS``.
    """
    _require_keys(node, {f.name for f in fields(cls)}, set(), where)
    values = {}
    for f in fields(cls):
        if f.name not in node:
            continue
        name = f"{where}.{f.name}"
        if f.name in parsers:
            values[f.name] = parsers[f.name](node[f.name], name)
        else:
            low, high = _BOUNDS.get(f.name, (0.0, None))
            values[f.name] = _number(node[f.name], name, type(f.default) is int,
                                     low, high)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}", field=where) from None


def _choice(choices):
    def parse(value, name):
        if value not in choices:
            raise ConfigError(f"{name} must be one of {choices}", field=name)
        return value
    return parse


def _optional_number(value, name):
    return None if value is None else _number(value, name)


def _formats(value, name):
    if not isinstance(value, list) or not value or any(
            f not in FORMAT_CHOICES for f in value):
        raise ConfigError(f"{name} entries must be among {FORMAT_CHOICES}", field=name)
    return list(value)


def _path(value, name):
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{name} must be a non-empty string", field=name)
    return value


def _flag(value, name):
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false", field=name)
    return value


def _parse_solver(node) -> SolverConfig:
    return _section(
        SolverConfig, node, "solver", which=_choice(SOLVER_CHOICES),
        iwf=lambda v, name: _section(IwfConfig, v, name,
                                     scheme=_choice(SCHEME_CHOICES)),
        vi=lambda v, name: _section(ViConfig, v, name),
        pareto=lambda v, name: _section(AlConfig, v, name, delta=_optional_number))


def load_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment configuration."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}", field=None) from None
    _require_keys(doc, {f.name for f in fields(ExperimentConfig)}, {"game"}, "config")
    game, spec = _parse_game(doc["game"])
    solver = _parse_solver(doc.get("solver", {}))
    sweep = _section(SweepConfig, doc.get("sweep", {}), "sweep", values=_positive_list)
    simulate = _section(SimulateConfig, doc.get("simulate", {}), "simulate")
    output = _section(OutputConfig, doc.get("output", {}), "output",
                      dir=_path, formats=_formats,
                      pareto_trajectories=_flag)
    try:  # before the budgets: a huge space overflows 1 / min state probability
        state_count(spec, solver.state_cap)
    except StateSpaceTooLargeError as exc:
        raise ConfigError(str(exc), field="solver.state_cap") from None
    config = ExperimentConfig(game=game, solver=solver, sweep=sweep,
                              simulate=simulate, output=output)
    check_budgets(config, spec)
    return config


def check_budgets(config: ExperimentConfig, spec: GameSpec | None = None):
    """Reject a ``game.pbar`` or ``sweep.values`` budget for which a
    product formed by the solvers of ``solver.which`` overflows; ``spec``
    is ``config.game.build_spec()`` when the caller has it.  A change of
    ``solver.which`` after loading must be checked again."""
    spec = config.game.build_spec() if spec is None else spec
    c = config.solver.pareto.c if config.solver.which in ("pareto", "all") else None
    _check_budgets(spec, spec.pbar, "game.pbar", c)
    _check_budgets(spec, config.sweep.values, "sweep.values", c)


def load_config_file(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return load_config(fh.read())
