"""Run configuration: one JSON document per run, strictly validated.

A run is described by a single JSON object: the market model, the payoff
as call legs, the grid geometry, and one optional block per subcommand.
Unknown keys are rejected with their dotted path so typos fail loudly
instead of silently using a default.  Scalar fields can be overridden
from the command line by dotted path; the hash of the effective document
is stamped into every artifact so outputs can be traced back to their
exact inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .errors import ConfigError
from .model import GridSpec, ModelParams, PiecewiseLinearPayoff

_MISSING = object()

# The paper-style model omits a value for the factor's vol-of-vol; runs
# that do not set model.sigma explicitly fall back to this and are
# flagged in every summary.
DEFAULT_SIGMA = 0.5


class _Section:
    """A JSON object being consumed key by key; leftovers are errors."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ConfigError(
                f"expected an object, got {type(data).__name__}",
                key_path=path or "<root>",
            )
        self._data = data
        self._path = path
        self._seen = set()

    def _at(self, key: str) -> str:
        return f"{self._path}.{key}" if self._path else key

    def take(self, key: str, default=_MISSING):
        self._seen.add(key)
        if key not in self._data:
            if default is _MISSING:
                raise ConfigError("missing required key", key_path=self._at(key))
            return default
        return self._data[key]

    def take_number(self, key: str, default=_MISSING, allow_none=False):
        value = self.take(key, default)
        if value is None and (allow_none or default is None):
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(
                f"expected a number, got {value!r}", key_path=self._at(key)
            )
        return float(value)

    def take_int(self, key: str, default=_MISSING, allow_none=False):
        value = self.take(key, default)
        if value is None and (allow_none or default is None):
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(
                f"expected an integer, got {value!r}", key_path=self._at(key)
            )
        return int(value)

    def take_bool(self, key: str, default=_MISSING):
        value = self.take(key, default)
        if not isinstance(value, bool):
            raise ConfigError(
                f"expected true or false, got {value!r}", key_path=self._at(key)
            )
        return value

    def take_str(self, key: str, default=_MISSING):
        value = self.take(key, default)
        if not isinstance(value, str):
            raise ConfigError(
                f"expected a string, got {value!r}", key_path=self._at(key)
            )
        return value

    def child(self, key: str):
        value = self.take(key)
        return _Section(value, self._at(key))

    def child_or_none(self, key: str):
        value = self.take(key, None)
        if value is None:
            return None
        return _Section(value, self._at(key))

    def finish(self) -> None:
        unknown = sorted(set(self._data) - self._seen)
        if unknown:
            raise ConfigError("unknown key", key_path=self._at(unknown[0]))


def _point(section: _Section, key: str) -> tuple[float, float]:
    value = section.take(key)
    path = section._at(key)
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or any(isinstance(c, bool) or not isinstance(c, (int, float))
                   for c in value)):
        raise ConfigError(
            f"expected a pair of numbers [x, v], got {value!r}", key_path=path
        )
    return float(value[0]), float(value[1])


def _deltas(section: _Section, key: str) -> tuple[float, ...]:
    value = section.take(key)
    path = section._at(key)
    if not isinstance(value, list):
        raise ConfigError(f"expected a list, got {value!r}", key_path=path)
    out = []
    for i, d in enumerate(value):
        if isinstance(d, bool) or not isinstance(d, (int, float)):
            raise ConfigError(
                f"expected a number, got {d!r}", key_path=f"{path}[{i}]"
            )
        out.append(float(d))
    return tuple(out)


@dataclass(frozen=True)
class PriceConfig:
    point: tuple[float, float]
    solve_p0: bool = True
    cell_average_terminal: bool = False


@dataclass(frozen=True)
class SweepConfig:
    point: tuple[float, float]
    deltas: tuple[float, ...]
    cell_average_terminal: bool = False
    noise_floor: float | None = None


@dataclass(frozen=True)
class SimulateConfig:
    x0: float
    v0: float
    q: float
    n_paths: int
    n_steps: int
    max_csv_paths: int | None = 100


@dataclass(frozen=True)
class Check2bsdeConfig:
    point: tuple[float, float]
    n_paths: int
    n_steps: int
    surface: str = "full_delta"


def _parse_model(section: _Section) -> tuple[ModelParams, bool]:
    sigma_assumed = "sigma" not in section._data
    kwargs = dict(
        r=section.take_number("r", 0.0),
        a=section.take_number("a"),
        b=section.take_number("b"),
        alpha=section.take_number("alpha"),
        sigma=section.take_number("sigma", DEFAULT_SIGMA),
        rho=section.take_number("rho"),
        sigma_min=section.take_number("sigma_min"),
        sigma_max=section.take_number("sigma_max"),
        delta=section.take_number("delta"),
    )
    section.finish()
    try:
        return ModelParams(**kwargs), sigma_assumed
    except ValueError as exc:
        raise ConfigError(str(exc), key_path="model") from exc


def _parse_payoff(section: _Section) -> PiecewiseLinearPayoff:
    legs_raw = section.take("calls")
    path = section._at("calls")
    if not isinstance(legs_raw, list) or not legs_raw:
        raise ConfigError(
            "expected a non-empty list of [strike, weight] pairs",
            key_path=path,
        )
    legs = []
    for i, leg in enumerate(legs_raw):
        if (not isinstance(leg, (list, tuple)) or len(leg) != 2
                or any(isinstance(c, bool) or not isinstance(c, (int, float))
                       for c in leg)):
            raise ConfigError(
                f"expected a [strike, weight] pair, got {leg!r}",
                key_path=f"{path}[{i}]",
            )
        legs.append((float(leg[0]), float(leg[1])))
    const = section.take_number("const", 0.0)
    base_slope = section.take_number("base_slope", 0.0)
    section.finish()
    try:
        return PiecewiseLinearPayoff.from_calls(
            legs, const=const, base_slope=base_slope
        )
    except ValueError as exc:
        raise ConfigError(str(exc), key_path="payoff") from exc


def _parse_grid(section: _Section) -> tuple[GridSpec, bool]:
    n_t = section.take_int("n_t", None, allow_none=True)
    kwargs = dict(
        x_min=section.take_number("x_min"),
        x_max=section.take_number("x_max"),
        n_x=section.take_int("n_x"),
        v_min=section.take_number("v_min"),
        v_max=section.take_number("v_max"),
        n_v=section.take_int("n_v"),
        T=section.take_number("T"),
        n_t=1 if n_t is None else n_t,
        cfl_safety=section.take_number("cfl_safety", 0.4),
    )
    section.finish()
    try:
        return GridSpec(**kwargs), n_t is None
    except ValueError as exc:
        raise ConfigError(str(exc), key_path="grid") from exc


def _parse_price(section: _Section) -> PriceConfig:
    cfg = PriceConfig(
        point=_point(section, "point"),
        solve_p0=section.take_bool("solve_p0", True),
        cell_average_terminal=section.take_bool("cell_average_terminal", False),
    )
    section.finish()
    return cfg


def _parse_sweep(section: _Section) -> SweepConfig:
    cfg = SweepConfig(
        point=_point(section, "point"),
        deltas=_deltas(section, "deltas"),
        cell_average_terminal=section.take_bool("cell_average_terminal", False),
        noise_floor=section.take_number("noise_floor", None, allow_none=True),
    )
    section.finish()
    return cfg


def _parse_simulate(section: _Section) -> SimulateConfig:
    cfg = SimulateConfig(
        x0=section.take_number("x0"),
        v0=section.take_number("v0"),
        q=section.take_number("q"),
        n_paths=section.take_int("n_paths"),
        n_steps=section.take_int("n_steps"),
        max_csv_paths=section.take_int("max_csv_paths", 100, allow_none=True),
    )
    section.finish()
    return cfg


def _parse_check2bsde(section: _Section) -> Check2bsdeConfig:
    cfg = Check2bsdeConfig(
        point=_point(section, "point"),
        n_paths=section.take_int("n_paths"),
        n_steps=section.take_int("n_steps"),
        surface=section.take_str("surface", "full_delta"),
    )
    if cfg.surface not in ("full_delta", "limit_p0"):
        raise ConfigError(
            f"surface must be 'full_delta' or 'limit_p0', got {cfg.surface!r}",
            key_path=section._at("surface"),
        )
    section.finish()
    return cfg


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of a run's JSON document."""

    model: ModelParams
    payoff: PiecewiseLinearPayoff
    grid: GridSpec
    auto_n_t: bool
    sigma_assumed: bool
    out_dir: str
    seed: int
    price: PriceConfig | None = None
    sweep: SweepConfig | None = None
    corrector: SweepConfig | None = None
    simulate: SimulateConfig | None = None
    check2bsde: Check2bsdeConfig | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        root = _Section(doc, "")
        model, sigma_assumed = _parse_model(root.child("model"))
        payoff = _parse_payoff(root.child("payoff"))
        grid, auto_n_t = _parse_grid(root.child("grid"))
        out_dir = root.take_str("out_dir", "out")
        seed = root.take_int("seed", 0)
        if not 0 <= seed < 2**128:
            # The Philox key holds 128 bits.
            raise ConfigError(f"expected an integer in [0, 2**128), got {seed}",
                              key_path="seed")
        blocks = {}
        for name, parse in (
            ("price", _parse_price),
            ("sweep", _parse_sweep),
            ("corrector", _parse_sweep),
            ("simulate", _parse_simulate),
            ("check2bsde", _parse_check2bsde),
        ):
            section = root.child_or_none(name)
            blocks[name] = None if section is None else parse(section)
        root.finish()
        return cls(
            model=model, payoff=payoff, grid=grid, auto_n_t=auto_n_t,
            sigma_assumed=sigma_assumed, out_dir=out_dir, seed=seed, **blocks
        )


def load_config(path) -> dict:
    """Read a JSON config file, mapping I/O and syntax problems to ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}",
                          key_path=str(path)) from exc


def apply_override(doc: dict, item: str) -> None:
    """Apply one ``dotted.key=value`` override in place.

    The value is parsed as JSON when possible (numbers, booleans, lists)
    and falls back to the raw string otherwise.
    """
    key, sep, raw = item.partition("=")
    if not sep or not key:
        raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = doc
    parts = key.split(".")
    for depth, part in enumerate(parts[:-1]):
        nxt = node.get(part)
        if nxt is None:
            nxt = {}
            node[part] = nxt
        elif not isinstance(nxt, dict):
            raise ConfigError(
                "cannot descend into a scalar",
                key_path=".".join(parts[: depth + 1]),
            )
        node = nxt
    node[parts[-1]] = value


def config_hash(doc: dict) -> str:
    """SHA-256 of the canonical serialization of the effective document."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
