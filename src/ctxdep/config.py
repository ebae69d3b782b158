"""Run configuration: the flat ``key = value`` format, gate strings, validation.

``parse_config`` checks each key on its own; ``validate`` runs the checks that
involve several keys, once any command-line overrides are applied.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .noise import GateSpec, NoiseParams

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_gate_token",
    "parse_gate_string",
    "parse_config",
    "validate",
    "load_config",
]

SCENARIOS = ("fig2a", "fig2b", "fig3a", "fig3b", "custom")

DEFAULT_PHI = {
    "fig2a": (0.0, 0.001, 0.005),
    "fig2b": (0.0, 0.001, 0.005),
    "fig3a": (0.0, 0.005, 0.01, 0.02),
    "fig3b": (0.0, 0.005),
    "custom": (0.0,),
}


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass
class RunConfig:
    """Validated run settings; rates in 1/s, durations in s."""

    scenario: str = "fig2a"
    gamma1: float = 1.0 / 60e-6
    gamma3: float | None = None  # default: gamma1 * (1 - p) / p
    gamma_phi: float | None = None  # default: gamma1 / 2
    p_ground: float = 0.92
    eta: float = 0.95
    t_gate: float = 20e-9
    phi_values: tuple[float, ...] | None = None
    shots: int | None = None  # None = exact
    seed: int = 12345
    bootstrap_resamples: int = 500
    reference: tuple[GateSpec, ...] = ()
    output_dir: str = "ctxdep-out"
    family: str | None = None  # custom scenario: permutation|cyclic|repetition
    gates: tuple[GateSpec, ...] = ()
    n: int | None = None
    m_values: tuple[int, ...] | None = None
    cyclic_order: int = 2

    def resolved_gamma3(self) -> float:
        if self.gamma3 is not None:
            return self.gamma3
        if self.p_ground <= 0:
            raise ConfigError("p = 0 needs an explicit gamma3")
        return self.gamma1 * (1.0 - self.p_ground) / self.p_ground

    def resolved_gamma_phi(self) -> float:
        return self.gamma1 / 2.0 if self.gamma_phi is None else self.gamma_phi

    def resolved_phi_values(self) -> tuple[float, ...]:
        return self.phi_values if self.phi_values is not None else DEFAULT_PHI[self.scenario]

    def noise_params(self, phi: float) -> NoiseParams:
        return NoiseParams(
            gamma1=self.gamma1,
            gamma3=self.resolved_gamma3(),
            gamma_phi=self.resolved_gamma_phi(),
            coupling=phi / self.t_gate,
            t_gate=self.t_gate,
            p_ground=self.p_ground,
            eta=self.eta,
        )


_GATE_TOKEN = re.compile(
    r"^(?P<axis>[IXY])"
    r"(?P<angle>_(?P<sign>-?)(?:(?P<num>\d*)pi(?:/(?P<den>\d+))?|(?P<rad>[0-9.eE+-]+)rad))?"
    r"(?:@(?P<dur>\d+))?$"
)


def parse_gate_token(token: str) -> GateSpec:
    """Parse one gate token: ``I``, ``X_pi``, ``Y_-pi/2``, ``X_0.7854rad``...

    An optional ``@k`` suffix sets the duration multiplier.
    """
    match = _GATE_TOKEN.match(token)
    if not match:
        raise ConfigError(f"cannot parse gate token {token!r}")
    parts = match.groupdict()
    duration = int(parts["dur"]) if parts["dur"] else 1
    if parts["axis"] == "I":
        if parts["angle"] is not None:
            raise ConfigError(f"idle gate takes no angle: {token!r}")
        return GateSpec("I", 0.0, duration)
    if parts["angle"] is None:
        raise ConfigError(f"rotation gate needs an angle: {token!r}")
    if parts["rad"] is not None:
        angle = float(parts["rad"])
    else:
        if parts["den"] == "0":
            raise ConfigError(f"zero denominator in gate token {token!r}")
        angle = math.pi * float(parts["num"] or 1) / float(parts["den"] or 1)
    if parts["sign"] == "-":
        angle = -angle
    return GateSpec(parts["axis"], angle, duration)


def parse_gate_string(text: str) -> tuple[GateSpec, ...]:
    """Whitespace-separated gate tokens with ``token*count`` repetition."""
    gates: list[GateSpec] = []
    for token in text.split():
        if "*" in token:
            token, _, count = token.partition("*")
            if not count.isdecimal():
                raise ConfigError(f"repeat count must be a whole number: {token}*{count}")
            reps = int(count)
        else:
            reps = 1
        gates.extend([parse_gate_token(token)] * reps)
    return tuple(gates)


def _parse_value(raw: str):
    raw = raw.strip()
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        if not inner:
            return []
        return [_parse_value(part) for part in inner.split(",")]
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _parse_shots(key: str, raw) -> int | None:
    if raw == "exact":
        return None
    if isinstance(raw, int) and not isinstance(raw, bool) and raw >= 1:
        return raw
    raise ConfigError(f"{key}: expected 'exact' or a positive integer, got {raw!r}")


def parse_config(text: str) -> RunConfig:
    """Parse the flat ``key = value`` config format.

    Unknown keys, malformed lines, and out-of-range values raise
    :class:`ConfigError` naming the offending key.  Checks that involve
    several keys run in :func:`validate`, once any CLI overrides are applied.
    """
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(raw)

    cfg = RunConfig()

    def take_float(key, minimum=None, maximum=None):
        if key not in values:
            return None
        v = values.pop(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ConfigError(f"{key}: expected a number, got {v!r}")
        v = float(v)
        if minimum is not None and v < minimum:
            raise ConfigError(f"{key}: must be >= {minimum}")
        if maximum is not None and v > maximum:
            raise ConfigError(f"{key}: must be <= {maximum}")
        return v

    if "scenario" in values:
        scenario = values.pop("scenario")
        if scenario not in SCENARIOS:
            raise ConfigError(f"scenario: expected one of {SCENARIOS}, got {scenario!r}")
        cfg.scenario = scenario
    for key, attr, lo in (
        ("gamma1", "gamma1", 0.0),
        ("gamma3", "gamma3", 0.0),
        ("gamma_phi", "gamma_phi", 0.0),
    ):
        v = take_float(key, minimum=lo)
        if v is not None:
            setattr(cfg, attr, v)
    if "t1_us" in values:  # convenience alias: gamma1 = 1 / (t1_us microseconds)
        t1 = take_float("t1_us", minimum=1e-12)
        cfg.gamma1 = 1.0 / (t1 * 1e-6)
    v = take_float("p", minimum=0.0, maximum=1.0)
    if v is not None:
        cfg.p_ground = v
    v = take_float("eta", minimum=1e-12, maximum=1.0)
    if v is not None:
        cfg.eta = v
    v = take_float("t_gate", minimum=1e-15)
    if v is not None:
        cfg.t_gate = v
    if "phi_values" in values:
        raw = values.pop("phi_values")
        if not isinstance(raw, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw
        ):
            raise ConfigError("phi_values: expected a list of numbers")
        if not all(math.isfinite(float(x)) for x in raw):
            raise ConfigError("phi_values: values must be finite")
        cfg.phi_values = tuple(float(x) for x in raw)
    if "shots" in values:
        cfg.shots = _parse_shots("shots", values.pop("shots"))
    if "seed" in values:
        raw = values.pop("seed")
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise ConfigError("seed: expected an integer")
        cfg.seed = raw
    if "bootstrap_resamples" in values:
        raw = values.pop("bootstrap_resamples")
        if not isinstance(raw, int) or raw < 100:
            raise ConfigError("bootstrap_resamples: expected an integer >= 100")
        cfg.bootstrap_resamples = raw
    for key in ("reference", "gates"):
        if key in values:
            raw = values.pop(key)
            try:
                setattr(cfg, key, parse_gate_string(str(raw)) if raw else ())
            except ConfigError as exc:
                raise ConfigError(f"{key}: {exc}") from None
    if "output_dir" in values:
        cfg.output_dir = str(values.pop("output_dir"))
    if "family" in values:
        raw = values.pop("family")
        if raw not in ("permutation", "cyclic", "repetition"):
            raise ConfigError(f"family: expected permutation|cyclic|repetition, got {raw!r}")
        cfg.family = raw
    if "n" in values:
        raw = values.pop("n")
        if not isinstance(raw, int) or raw < 1:
            raise ConfigError("n: expected a positive integer")
        cfg.n = raw
    if "m_values" in values:
        raw = values.pop("m_values")
        if not isinstance(raw, list) or not all(isinstance(x, int) for x in raw):
            raise ConfigError("m_values: expected a list of integers")
        cfg.m_values = tuple(raw)
    if "cyclic_order" in values:
        raw = values.pop("cyclic_order")
        if not isinstance(raw, int) or not 1 <= raw <= 4:
            raise ConfigError("cyclic_order: expected an integer in 1..4")
        cfg.cyclic_order = raw
    if values:
        raise ConfigError(f"unknown keys: {', '.join(sorted(values))}")
    return cfg


def _phi_dir_name(phi: float) -> str:
    return f"phi_{phi:g}"


def validate(cfg: RunConfig) -> None:
    """Checks that involve several keys; run once, after any CLI overrides."""
    folders = [_phi_dir_name(phi) for phi in cfg.resolved_phi_values()]
    if len(set(folders)) < len(folders):
        raise ConfigError(f"phi_values: two values share an output folder in {folders}")
    if cfg.scenario == "custom":
        if cfg.family is None:
            raise ConfigError("custom scenario needs 'family'")
        if not cfg.gates:
            raise ConfigError("custom scenario needs a non-empty 'gates' list")
        if cfg.family == "permutation":
            if len(cfg.gates) != 2:
                raise ConfigError("permutation family needs exactly 2 gates")
            if cfg.n is None:
                raise ConfigError("permutation family needs 'n'")
        if cfg.family == "repetition" and not cfg.m_values:
            raise ConfigError("repetition family needs 'm_values'")


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return parse_config("")
    with open(path) as fh:
        return parse_config(fh.read())
