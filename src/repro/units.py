"""Unit helpers: temperature scales, energy scales and SI formatting.

The paper mixes Celsius (chamber settings, Fig. 5/8 axes) and kelvin
(physics equations, Table 1).  Keeping the conversions in one place keeps
the off-by-273.15 class of bugs out of the physics modules.
"""

from __future__ import annotations

from typing import Iterable, List

from .constants import Q_ELECTRON, ZERO_CELSIUS


def celsius_to_kelvin(temp_c: float) -> float:
    """Convert a temperature from degrees Celsius to kelvin."""
    temp_k = temp_c + ZERO_CELSIUS
    if temp_k < 0.0:
        raise ValueError(f"{temp_c} C is below absolute zero")
    return temp_k


def kelvin_to_celsius(temp_k: float) -> float:
    """Convert a temperature from kelvin to degrees Celsius."""
    if temp_k < 0.0:
        raise ValueError(f"{temp_k} K is below absolute zero")
    return temp_k - ZERO_CELSIUS


def celsius_range_to_kelvin(temps_c: Iterable[float]) -> List[float]:
    """Convert an iterable of Celsius temperatures to a list in kelvin."""
    return [celsius_to_kelvin(t) for t in temps_c]


def ev_to_joule(energy_ev: float) -> float:
    """Convert an energy from electron-volts to joules."""
    return energy_ev * Q_ELECTRON


def joule_to_ev(energy_j: float) -> float:
    """Convert an energy from joules to electron-volts."""
    return energy_j / Q_ELECTRON


_SI_PREFIXES = (
    (1e12, "T"),
    (1e9, "G"),
    (1e6, "M"),
    (1e3, "k"),
    (1.0, ""),
    (1e-3, "m"),
    (1e-6, "u"),
    (1e-9, "n"),
    (1e-12, "p"),
    (1e-15, "f"),
)


def format_si(value: float, unit: str = "", digits: int = 4) -> str:
    """Format ``value`` with an engineering SI prefix, e.g. ``53.22 mV``.

    Zero and non-finite values fall back to plain formatting.  Used by the
    experiment reports so the regenerated tables read like the paper's.
    """
    if value == 0.0 or value != value or value in (float("inf"), float("-inf")):
        return f"{value:g} {unit}".rstrip()
    magnitude = abs(value)
    for scale, prefix in _SI_PREFIXES:
        if magnitude >= scale:
            return f"{value / scale:.{digits}g} {prefix}{unit}".rstrip()
    scale, prefix = _SI_PREFIXES[-1]
    return f"{value / scale:.{digits}g} {prefix}{unit}".rstrip()


def parse_si(text: str) -> float:
    """Parse a SPICE-style suffixed number: ``2k`` -> 2000, ``25n`` -> 2.5e-8.

    Recognises the SPICE suffixes ``t g meg k m u n p f`` (case
    insensitive); ``meg`` must be checked before ``m``.  A bare float is
    returned unchanged, and is tried first: no text ``float()`` accepts
    ends in a suffix with a numeric stem (``inf`` and ``nan`` end in
    ``f``/``n`` but their stems are not numbers), so the shortcut gives
    the suffix loop's results and errors.  Raises ``ValueError`` for
    unparseable text.
    """
    raw = text.strip().lower()
    if not raw:
        raise ValueError("empty numeric literal")
    try:
        return float(raw)
    except ValueError:
        pass
    suffixes = (
        ("meg", 1e6),
        ("t", 1e12),
        ("g", 1e9),
        ("k", 1e3),
        ("m", 1e-3),
        ("u", 1e-6),
        ("n", 1e-9),
        ("p", 1e-12),
        ("f", 1e-15),
    )
    for suffix, scale in suffixes:
        if raw.endswith(suffix):
            stem = raw[: -len(suffix)]
            if not stem:
                break
            try:
                return float(stem) * scale
            except ValueError:
                break
    return float(raw)
