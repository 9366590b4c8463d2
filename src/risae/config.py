"""Configuration: every field declares its type and bound once.

A config section is a dataclass deriving from ``Section``, whose ``section``
attribute names it (the top level has none). Each field's annotation is its
type, and ``setting`` attaches its bound (a predicate and the message shown
when the predicate fails). ``checked`` reads both to coerce and check one
value, naming the field ``section.field``. A mutable section runs it on every
assignment, its constructor's included, and the frozen ``SystemConfig`` on
every field when it is built, so a section is valid whenever it exists. A
sequence is stored as a tuple, so it cannot change in place past the check.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import typing
from dataclasses import dataclass, field, fields, is_dataclass

from .errors import ConfigInvalid


def setting(default, bound, *, network: bool = False):
    """A config field: its default, its bound as (predicate, message), and
    whether the networks depend on it (``network``): ``build_autoencoder``
    reads it, or it is the block length they were trained on. A checkpoint
    trained with another value of such a field does not load."""
    return field(default=default, metadata={"bound": bound, "network": network})


def at_least(low):
    return (lambda v: v >= low), f"must be >= {low}"


@functools.cache
def _declared(cls) -> dict:
    """name -> (type, bound) of every field of cls; the string annotations
    are resolved once per class, because every SystemConfig is checked when
    it is built, one per sweep cell and more."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.metadata.get("bound")) for f in fields(cls)}


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def checked(cls, name: str, value):
    """value as field ``name`` of section cls declares it; ConfigInvalid at
    ``section.name`` when it is not of the field's type or lies outside its
    bound. An int is taken where a float is declared and stored as a float, a
    list or tuple where a sequence is and stored as a tuple, and a float must
    be finite (JSON parsing lets NaN, Infinity and integers of any size in)."""
    kind, bound = _declared(cls)[name]
    where = f"{cls.section}.{name}" if cls.section else name
    sequence = typing.get_origin(kind) is tuple
    if sequence:
        if not isinstance(value, (list, tuple)):
            raise ConfigInvalid(where, f"expected a list, got {value!r}")
        kind = typing.get_args(kind)[0]
    items = list(value) if sequence else [value]
    for i, item in enumerate(items):
        if kind is float and type(item) is int:
            items[i] = item = float(item) if abs(item) <= sys.float_info.max else math.inf
        if isinstance(item, bool) or not isinstance(item, kind):
            expected = _TYPE_NAMES.get(kind, "an object")  # a nested section
            raise ConfigInvalid(where, f"expected {expected}, got {item!r}")
        if kind is float and not math.isfinite(item):
            raise ConfigInvalid(where, f"must be finite, got {item!r}")
    value = tuple(items) if sequence else items[0]
    if bound is not None and not bound[0](value):
        raise ConfigInvalid(where, f"{bound[1]}, got {value!r}")
    return value


class Section:
    """Base of a config section: assigning a field stores the value
    ``checked`` returns, so a mutable section is checked when it is built
    and whenever it is changed."""

    section = ""

    def __setattr__(self, name, value):
        super().__setattr__(name, checked(type(self), name, value))


def from_json(cls, data: dict):
    """Build a cls from a parsed JSON object. Absent fields take their
    defaults, an object given for a nested section builds that section, and
    an unknown key raises ConfigInvalid; the section checks every value."""
    declared = _declared(cls)
    unknown = sorted(set(data) - set(declared))
    if unknown:
        raise ConfigInvalid(f"{cls.section}.{unknown[0]}" if cls.section else unknown[0],
                            "unknown field")
    return cls(**{name: from_json(declared[name][0], value)
                  if is_dataclass(declared[name][0]) and isinstance(value, dict) else value
                  for name, value in data.items()})


COUNT = at_least(1)
POSITIVE = (lambda v: v > 0), "must be > 0"
# a ratio in dB; far enough inside the float range that 10 ** (v / 10)
# neither overflows nor rounds to 0
DECIBELS = (lambda v: -300.0 <= v <= 300.0), "must lie in [-300, 300] dB"


@dataclass(frozen=True)
class SystemConfig(Section):
    """Physical and network dimensions of one simulated link.

    Antenna/element counts: n_t, n_r transmit/receive ULA antennas (the
    adversary's array has n_t antennas too), the two reflecting surfaces are
    (a1_v x a1_h) and (a2_v x a2_h) planar arrays. m is the message
    cardinality, block_len the number of symbols processed per block. power
    is the transmit power P (linear), sigma2 the receiver noise variance
    (linear); every command derives sigma2 from its SNR (``train.snr_db``,
    the sweep grid or ``--snr-db``), overwriting a value from a config file.
    num_scatterers is the count ``risae train`` draws its channels at; every
    other command sets it to each entry of the top-level ``scatterers``.
    An instance is checked when it is built (ConfigInvalid naming
    ``system.<field>``), and it cannot be changed afterwards: ``replace``
    builds a checked copy.
    """

    section = "system"

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
    num_scatterers: int = setting(9, COUNT)
    hidden_width: int = setting(128, COUNT, network=True)

    @property
    def a1(self) -> int:
        return self.a1_v * self.a1_h

    @property
    def a2(self) -> int:
        return self.a2_v * self.a2_h

    @property
    def decoder_channels(self) -> int:
        """Real channel count of the decoder input: 2 (N_r + N_r N_t)."""
        return 2 * (self.n_r + self.n_r * self.n_t)

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, checked(SystemConfig, f.name, getattr(self, f.name)))

    replace = dataclasses.replace
