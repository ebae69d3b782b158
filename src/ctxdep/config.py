"""Run configuration: the scenarios, the flat ``key = value`` format, gate strings, validation.

:data:`SCENARIOS` says what each scenario runs.  One table, :data:`KEYS`,
says for each config key which ``RunConfig`` attribute it sets, what kind of
value it takes and within which bounds.  :func:`set_key` applies a row to a
value's text; ``parse_config`` calls it for each config line and the CLI for
each override flag, so a flag and its key are checked alike.  ``validate``
runs the checks that involve several keys, once any overrides are applied.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

from .gates import GATE_IDLE, GATE_X_HALF, GATE_X_MINUS_HALF, GATE_X_PI, GATE_Y_PI, GateSpec

if TYPE_CHECKING:
    from .experiment import SequenceFamily
    from .noise import NoiseParams

__all__ = [
    "ConfigError",
    "RunConfig",
    "KEYS",
    "set_key",
    "parse_gate_token",
    "parse_gate_string",
    "parse_config",
    "validate",
    "load_config",
]

# scenario -> (default coupling angles, families as (kind, gates, size)), where size is
# n for a permutation family, the base label for a cyclic one and the m values for a
# repetition one; custom's one family comes from its keys
SCENARIOS = {
    "fig2a": ((0.0, 0.001, 0.005), (("permutation", (GATE_IDLE, GATE_X_PI), 250),)),
    "fig2b": ((0.0, 0.001, 0.005), (("cyclic", (GATE_X_PI,) + (GATE_IDLE,) * 500, "X_pi_I500"),)),
    "fig3a": ((0.0, 0.005, 0.01, 0.02), (("repetition", (GATE_IDLE,), range(0, 501, 50)),)),
    # composite blocks double a member's gates, hence fig3b's shorter m grid
    "fig3b": ((0.0, 0.005), tuple(("repetition", block, range(0, 251, 25)) for block in (
        (GATE_X_PI,), (GATE_X_PI, GATE_Y_PI), (GATE_X_MINUS_HALF, GATE_X_HALF)))),
    "custom": ((0.0,), ()),
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
            raise ConfigError("gamma3: p = 0 needs an explicit gamma3")
        return self.gamma1 * (1.0 - self.p_ground) / self.p_ground

    def resolved_gamma_phi(self) -> float:
        return self.gamma1 / 2.0 if self.gamma_phi is None else self.gamma_phi

    def resolved_phi_values(self) -> tuple[float, ...]:
        return self.phi_values if self.phi_values is not None else SCENARIOS[self.scenario][0]

    def noise_params(self, phi: float) -> NoiseParams:
        from .noise import NoiseParams  # numpy loads only when a run builds a model

        return NoiseParams(
            gamma1=self.gamma1,
            gamma3=self.resolved_gamma3(),
            gamma_phi=self.resolved_gamma_phi(),
            coupling=phi / self.t_gate,
            t_gate=self.t_gate,
            p_ground=self.p_ground,
            eta=self.eta,
        )

    def families(self) -> list[SequenceFamily]:
        """A preset's families from :data:`SCENARIOS`, custom's from its keys; imports numpy."""
        from .experiment import Sequence, cyclic_family, permutation_family, repetition_family

        build = {"permutation": lambda gates, n: permutation_family(*gates, n),
                 "cyclic": lambda gates, label: cyclic_family(Sequence(gates, label)),
                 "repetition": repetition_family}
        rows = SCENARIOS[self.scenario][1]
        if self.scenario == "custom":
            size = {"permutation": self.n, "cyclic": "".join(g.label for g in self.gates),
                    "repetition": self.m_values}[self.family]
            rows = [(self.family, self.gates, size)]
        return [build[kind](gates, size) for kind, gates, size in rows]


_GATE_TOKEN = re.compile(
    r"^(?P<axis>[IXY])"
    r"(?P<angle>_(?P<sign>-?)(?:(?P<num>\d*)pi(?:/(?P<den>\d+))?|(?P<rad>[0-9.eE+-]+)rad))?"
    r"(?:@(?P<dur>\d+))?$"
)


def parse_gate_token(token: str) -> GateSpec:
    """Parse one gate token: ``I``, ``X_pi``, ``Y_-pi/2``, ``X_0.7854rad``...

    An optional ``@k`` suffix sets the duration multiplier, at most ``sys.maxsize``.
    """
    match = _GATE_TOKEN.match(token)
    if not match:
        raise ConfigError(f"cannot parse gate token {token!r}")
    parts = match.groupdict()
    duration = int(parts["dur"]) if parts["dur"] else 1
    if duration > sys.maxsize:
        raise ConfigError(f"duration must be at most {sys.maxsize}: {token!r}")
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
    """Whitespace-separated gate tokens with ``token*count`` repetition, ``count`` at most
    ``sys.maxsize``."""
    gates: list[GateSpec] = []
    for token in text.split():
        if "*" in token:
            token, _, count = token.partition("*")
            if not count.isdecimal():
                raise ConfigError(f"repeat count must be a whole number: {token}*{count}")
            reps = int(count)
            if reps > sys.maxsize:
                raise ConfigError(f"repeat count must be at most {sys.maxsize}: {token}*{count}")
        else:
            reps = 1
        gates.extend([parse_gate_token(token)] * reps)
    return tuple(gates)


class _Key(NamedTuple):
    """One row of :data:`KEYS`: how a config key sets its ``RunConfig`` attribute."""

    attr: str
    # "real" (finite), "int" (never a bool), "reals" or "ints" (a non-empty
    # ``[a, b, ...]`` list of those), "shots" ('exact' or an int), "gates" (a
    # gate string), "text" (non-empty), or a tuple of the allowed strings
    kind: str | tuple[str, ...]
    lo: float = -math.inf  # inclusive bounds on every number of the value
    hi: float = math.inf
    to_attr: Callable | None = None  # converts the value to the attribute's unit


# Upper bounds a run can represent: numpy draws binomial counts with an int64
# ``n``, and no gate sequence is longer than ``sys.maxsize`` gates.
_INT64_MAX = 2**63 - 1

KEYS = {
    "scenario": _Key("scenario", tuple(SCENARIOS)),
    "phi_values": _Key("phi_values", "reals", -2 * math.pi, 2 * math.pi),
    "shots": _Key("shots", "shots", 1, _INT64_MAX),
    "seed": _Key("seed", "int"),
    "bootstrap_resamples": _Key("bootstrap_resamples", "int", 100),
    "reference": _Key("reference", "gates"),
    "output_dir": _Key("output_dir", "text"),
    "cyclic_order": _Key("cyclic_order", "int", 1, 4),
    "gamma1": _Key("gamma1", "real", 0.0),
    "t1_us": _Key("gamma1", "real", 1e-12, to_attr=lambda t1: 1.0 / (t1 * 1e-6)),
    "gamma3": _Key("gamma3", "real", 0.0),
    "gamma_phi": _Key("gamma_phi", "real", 0.0),
    "p": _Key("p_ground", "real", 0.0, 1.0),
    "eta": _Key("eta", "real", 1e-12, 1.0),
    "t_gate": _Key("t_gate", "real", 1e-15),
    "family": _Key("family", ("permutation", "cyclic", "repetition")),
    "gates": _Key("gates", "gates"),
    "n": _Key("n", "int", 1, sys.maxsize),
    "m_values": _Key("m_values", "ints", 0, sys.maxsize),
}


def _number(row: _Key, kind: str, text: str, name: str):
    try:
        value = float(text) if kind == "real" else int(text)
    except ValueError:
        value = math.nan
    if not -math.inf < value < math.inf:  # compares big integers exactly
        expected = {"real": "a finite number", "shots": "'exact' or an integer"}.get(kind)
        raise ConfigError(f"{name}: expected {expected or 'an integer'}, got {text!r}")
    if not row.lo <= value <= row.hi:
        lo, hi = (bound if isinstance(bound, int) else f"{bound:g}" for bound in (row.lo, row.hi))
        raise ConfigError(f"{name}: must lie in [{lo}, {hi}], got {text}")
    return value


def _convert(row: _Key, text: str, name: str):
    kind = row.kind
    if isinstance(kind, tuple):
        if text not in kind:
            raise ConfigError(f"{name}: expected one of {'|'.join(kind)}, got {text!r}")
        return text
    if kind == "text":
        if not text:
            raise ConfigError(f"{name}: expected a non-empty value")
        return text
    if kind == "gates":
        try:
            return parse_gate_string(text)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None
        except MemoryError:  # a count within the bound can still be too large to hold
            raise ConfigError(f"{name}: too many gates to hold in memory") from None
    if kind == "shots" and text == "exact":
        return None
    if kind in ("reals", "ints"):
        inner = text[1:-1] if text[:1] == "[" and text[-1:] == "]" else ""
        if not inner.strip():
            raise ConfigError(f"{name}: expected a non-empty list [a, b, ...], got {text!r}")
        return tuple(_number(row, kind[:-1], part.strip(), name) for part in inner.split(","))
    return _number(row, kind, text, name)


def set_key(cfg: RunConfig, key: str, text: str, name: str) -> None:
    """Parse ``text`` as the value of config ``key`` and store it on ``cfg``.

    Every error starts with ``name``: the key itself, or the command-line flag
    that overrides it.
    """
    row = KEYS.get(key)
    if row is None:
        raise ConfigError(f"{name}: unknown key")
    value = _convert(row, text, name)
    setattr(cfg, row.attr, value if row.to_attr is None else row.to_attr(value))


def parse_config(text: str) -> RunConfig:
    """Parse the flat ``key = value`` config format through :func:`set_key`.

    Unknown keys, malformed lines, out-of-range values and two keys that set
    the same attribute raise :class:`ConfigError`.  Checks that involve
    several keys run in :func:`validate`, once any CLI overrides are applied.
    """
    cfg = RunConfig()
    set_by: dict[str, str] = {}  # attribute -> the key and line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, raw = stripped.partition("=")
        if not eq:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, raw = key.strip(), raw.strip()
        if len(raw) >= 2 and raw[0] == raw[-1] == '"':  # quotes only delimit a value
            raw = raw[1:-1]
        set_key(cfg, key, raw, key)
        attr = KEYS[key].attr
        if attr in set_by:
            raise ConfigError(f"{key}: {attr} is already set by {set_by[attr]}")
        set_by[attr] = f"{key} on line {lineno}"
    return cfg


def _phi_dir_name(phi: float) -> str:
    return f"phi_{phi:g}"


def validate(cfg: RunConfig) -> None:
    """Checks that involve several keys; run once, after any CLI overrides."""
    cfg.resolved_gamma3()
    folders = [_phi_dir_name(phi) for phi in cfg.resolved_phi_values()]
    if len(set(folders)) < len(folders):
        raise ConfigError(f"phi_values: two values share an output folder in {folders}")
    if cfg.scenario != "custom":
        return
    if cfg.family is None:
        raise ConfigError("family: the custom scenario needs one")
    if not cfg.gates:
        raise ConfigError("gates: the custom scenario needs a non-empty gate string")
    if cfg.family == "permutation":
        if len(cfg.gates) != 2:
            raise ConfigError("gates: the permutation family needs exactly 2 gates")
        if cfg.n is None:
            raise ConfigError("n: the permutation family needs it")
    m = cfg.m_values or ()
    if cfg.family == "repetition" and (len(m) < 4 or any(b <= a for a, b in zip(m, m[1:]))):
        raise ConfigError("m_values: the repetition family needs 4 or more increasing counts")


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return parse_config("")
    with open(path) as fh:
        return parse_config(fh.read())
