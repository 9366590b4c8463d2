"""Configuration: every field declares its type and bound once.

A config section is a dataclass. Each field's annotation is its type, and
``setting`` attaches its bound (a predicate and the message shown when the
predicate fails). ``from_json`` builds a section from parsed JSON and
``check`` tests a built one; both read those declarations and name the
offending field by its dotted path.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import typing
from dataclasses import dataclass, field, fields, is_dataclass

from .errors import ConfigInvalid


def setting(default, bound=None, *, network: bool = False):
    """A config field: its default, its bound as (predicate, message), and
    whether the networks depend on it (``network``): ``build_autoencoder``
    reads it, or it is the block length they were trained on. A checkpoint
    trained with another value of such a field does not load."""
    metadata = {"bound": bound, "network": network}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=metadata)
    return field(default=default, metadata=metadata)


def at_least(low):
    return (lambda v: v >= low), f"must be >= {low}"


def above(low):
    return (lambda v: v > low), f"must be > {low}"


def one_of(choices: tuple):
    return (lambda v: v in choices), f"must be one of {choices}"


@functools.cache
def _declared(cls) -> tuple:
    """(name, type, bound) of every field of cls; the string annotations are
    resolved once per class, because validate runs on every training call."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.metadata.get("bound")) for f in fields(cls))


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _coerce(kind, value, where: str):
    """value as the declared kind (an int becomes a float where a float is
    declared); ConfigInvalid at ``where`` when it is not one, or when it is a
    number that no finite float holds (JSON parsing lets NaN, Infinity and
    integers of any size in)."""
    if is_dataclass(kind):
        return from_json(kind, value, where)
    args = typing.get_args(kind)
    if typing.get_origin(kind) is list:
        if not isinstance(value, list):
            raise ConfigInvalid(where, f"expected a list, got {value!r}")
        return [_coerce(args[0], v, where) for v in value]
    if type(None) in args:
        return None if value is None else _coerce(args[0], value, where)
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigInvalid(where, f"expected {_TYPE_NAMES[kind]}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigInvalid(where, f"must be finite, got {value!r}")
    return value


def from_json(cls, data, path: str = ""):
    """Build a cls from parsed JSON. Absent fields take their defaults;
    unknown keys and values of the wrong type raise ConfigInvalid."""
    if not isinstance(data, dict):
        raise ConfigInvalid(path, "expected an object")
    kinds = {name: kind for name, kind, _ in _declared(cls)}
    unknown = sorted(set(data) - set(kinds))
    if unknown:
        raise ConfigInvalid(f"{path}.{unknown[0]}" if path else unknown[0], "unknown field")
    return cls(**{name: _coerce(kinds[name], value, f"{path}.{name}" if path else name)
                  for name, value in data.items()})


def check(obj, path: str = "") -> None:
    """Raise ConfigInvalid at the first field of obj, or of a section nested
    in it, that has the wrong type or lies outside its bound (an unset
    optional field has no bound)."""
    for name, kind, bound in _declared(type(obj)):
        value = getattr(obj, name)
        where = f"{path}.{name}" if path else name
        if is_dataclass(kind):
            check(value, where)
            continue
        _coerce(kind, value, where)
        if bound is not None and value is not None and not bound[0](value):
            raise ConfigInvalid(where, f"{bound[1]}, got {value!r}")


COUNT = at_least(1)
POSITIVE = above(0)
# a ratio in dB; far enough inside the float range that 10 ** (v / 10)
# neither overflows nor rounds to 0
DECIBELS = (lambda v: -300.0 <= v <= 300.0), "must lie in [-300, 300] dB"


@dataclass
class SystemConfig:
    """Physical and network dimensions of one simulated link.

    Antenna/element counts: n_t, n_r transmit/receive ULA antennas, the two
    reflecting surfaces are (a1_v x a1_h) and (a2_v x a2_h) planar arrays.
    m is the message cardinality, block_len the number of symbols processed
    per block. power is the transmit power P (linear), sigma2 the receiver
    noise variance (linear), kappa/omega the Rician parameters shared by all
    links.
    """

    n_t: int = setting(4, COUNT, network=True)
    n_r: int = setting(4, COUNT, network=True)
    a1_v: int = setting(2, COUNT, network=True)
    a1_h: int = setting(4, COUNT, network=True)
    a2_v: int = setting(2, COUNT, network=True)
    a2_h: int = setting(4, COUNT, network=True)
    m: int = setting(16, at_least(2), network=True)
    block_len: int = setting(8, COUNT, network=True)
    power: float = setting(1.0, POSITIVE, network=True)
    sigma2: float = setting(1.0, POSITIVE)
    kappa: float = setting(0.2, at_least(0))
    omega: float = setting(1.0, at_least(0))
    n_adv: int | None = setting(None, COUNT)  # adversary transmit antennas; None -> n_t
    num_scatterers: int = setting(9, COUNT)
    hidden_width: int = setting(128, COUNT, network=True)
    kernel_size: int = setting(3, ((lambda v: v >= 1 and v % 2 == 1),
                                   "must be odd and >= 1 for same padding"), network=True)
    bn_eps: float = setting(1e-5, POSITIVE, network=True)
    bn_momentum: float = setting(0.9, ((lambda v: 0.0 <= v < 1.0), "must lie in [0, 1)"),
                                  network=True)
    loss: str = setting("bce", one_of(("bce", "ce")))  # binary or categorical cross entropy

    @property
    def a1(self) -> int:
        return self.a1_v * self.a1_h

    @property
    def a2(self) -> int:
        return self.a2_v * self.a2_h

    @property
    def adversary_antennas(self) -> int:
        return self.n_t if self.n_adv is None else self.n_adv

    @property
    def decoder_channels(self) -> int:
        """Real channel count of the decoder input: 2 (N_r + N_r N_t)."""
        return 2 * (self.n_r + self.n_r * self.n_t)

    def validate(self) -> None:
        check(self, "system")

    def replace(self, **changes) -> SystemConfig:
        cfg = dataclasses.replace(self, **changes)
        cfg.validate()
        return cfg
