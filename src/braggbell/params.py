"""Physical inputs and derived scales for cavity Bragg deflection.

All angular frequencies are rad/s, lengths in m, masses in kg. The one
derived scale hierarchy that matters: the recoil frequency w_rec = hbar k^2/2M
must dominate the effective Rabi frequency chi*n = |g|^2 n / 2*detuning for
the two-mode (Bragg) regime to hold.

The truncated ladder range, PhysicsError, the base of every error the CLI
reports with exit 2, and the one refusal of a violated regime (check_regime,
raising RegimeError) live here too, so that the two-level engine and the CLI
need neither `ladder` nor numpy. The range is fixed by l0 alone:
default_range(l0) reaches GUARD beyond the resonant pair on each side.
PhysicalParams, which callers vary with dataclasses.replace, is the one
dataclass; every other record is a namedtuple, immutable and cheaper to define.
"""

from __future__ import annotations

import enum
import math
import os
from collections import namedtuple
from dataclasses import dataclass, replace

HBAR = 1.054571817e-34  # J*s (CODATA 2018)


class ParameterError(ValueError):
    """Invalid physical parameter or configuration input."""


class PhysicsError(RuntimeError):
    """The physics refuses the request: regime, truncation, resolution or convergence."""


@dataclass(frozen=True)
class PhysicalParams:
    """Experimental constants for one atom/cavity configuration.

    mass: atomic mass, kg
    wavelength: cavity field wavelength, m
    coupling_g: atom-field coupling constant g, rad/s
    detuning: field-atom detuning (nu - w), rad/s; must be nonzero
    n0: photon number of the non-vacuum Fock branch, >= 1
    l0: Bragg order, positive even integer (incident momentum (l0/2)*hbar*k;
        the +/- incidence direction is an initial condition, not a parameter)
    """

    mass: float
    wavelength: float
    coupling_g: float
    detuning: float
    n0: int = 1
    l0: int = 2

    def __post_init__(self):
        for name in ("mass", "wavelength", "coupling_g", "detuning"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if self.mass <= 0:
            raise ParameterError(f"mass must be positive, got {self.mass}")
        if self.wavelength <= 0:
            raise ParameterError(f"wavelength must be positive, got {self.wavelength}")
        if self.detuning == 0:
            raise ParameterError("detuning must be nonzero")
        for name in ("n0", "l0"):  # int() of inf or nan raises
            value = getattr(self, name)
            if not isinstance(value, int) and not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if int(self.n0) != self.n0 or self.n0 < 1:
            raise ParameterError(f"n0 must be an integer >= 1, got {self.n0}")
        if int(self.l0) != self.l0 or self.l0 < 2 or self.l0 % 2 != 0:
            raise ParameterError(f"l0 must be a positive even integer, got {self.l0}")


class DerivedParams(namedtuple("DerivedParams", "wavenumber recoil_frequency chi regime_ratio")):
    """Scales computed from PhysicalParams (floats).

    wavenumber: k = 2*pi/wavelength, rad/m
    recoil_frequency: w_rec = hbar*k^2/2M, rad/s
    chi: |g|^2/(2*detuning), rad/s; carries the sign of the detuning
    regime_ratio: chi*n0/w_rec, dimensionless
    """

    __slots__ = ()


def derive(p: PhysicalParams) -> DerivedParams:
    """Compute wavenumber, recoil frequency, chi and the regime ratio.

    Raises ParameterError when w_rec underflows to zero or w_rec, chi or the
    regime ratio is not a finite float.
    """
    k = 2.0 * math.pi / p.wavelength
    w_rec = HBAR * k * k / (2.0 * p.mass)
    try:
        chi = abs(p.coupling_g) ** 2 / (2.0 * p.detuning)
        ratio = chi * p.n0 / w_rec
    except (OverflowError, ZeroDivisionError):  # |g|^2 or n0 beyond a float, w_rec == 0
        chi = ratio = math.inf
    if not all(math.isfinite(x) for x in (w_rec, chi, ratio)):
        raise ParameterError(
            f"derived scales out of floating-point range: w_rec = {w_rec:.3g} rad/s, "
            f"chi*n0/w_rec = {ratio:.3g}"
        )
    return DerivedParams(wavenumber=k, recoil_frequency=w_rec, chi=chi, regime_ratio=ratio)


def rubidium_preset() -> PhysicalParams:
    """Rubidium atoms in a 0.8 um cavity field, first-order Bragg incidence."""
    return PhysicalParams(
        mass=1.42e-25,                      # kg
        wavelength=0.8e-6,                  # m
        coupling_g=2.0 * math.pi * 112e3,   # rad/s
        detuning=2.0 * math.pi * 80e6,      # rad/s
        n0=1,
        l0=2,
    )


PRESETS = {"rubidium": rubidium_preset}


def get_preset(name: str) -> PhysicalParams:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ParameterError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


class RegimeVerdict(enum.Enum):
    GOOD = "good"
    MARGINAL = "marginal"
    VIOLATED = "violated"


GOOD_RATIO = 0.05      # |chi*n/w_rec| up to this is "good"
MARGINAL_RATIO = 0.2   # above this the Bragg regime is "violated"


class RegimeError(PhysicsError):
    """The requested run sits outside the Bragg regime."""


def validate_bragg_regime(d: DerivedParams, n: int) -> RegimeVerdict:
    """Classify how well w_rec >> chi*n holds for a branch with n photons."""
    ratio = abs(d.chi * n / d.recoil_frequency)
    if ratio <= GOOD_RATIO:
        return RegimeVerdict.GOOD
    if ratio <= MARGINAL_RATIO:
        return RegimeVerdict.MARGINAL
    return RegimeVerdict.VIOLATED


def check_regime(d: DerivedParams, n: int) -> RegimeVerdict:
    """validate_bragg_regime's verdict; a violated regime raises RegimeError."""
    verdict = validate_bragg_regime(d, n)
    if verdict is RegimeVerdict.VIOLATED:
        raise RegimeError(
            f"chi*n/w_rec = {abs(d.chi * n / d.recoil_frequency):.3g} is outside the Bragg regime"
        )
    return verdict


def with_regime_ratio(p: PhysicalParams, ratio: float) -> PhysicalParams:
    """Rescale the coupling g so that |chi|*n0/w_rec equals `ratio` exactly.

    The sign of chi still follows the detuning; ratio must be positive.
    """
    if ratio <= 0:
        raise ParameterError(f"regime ratio must be positive, got {ratio}")
    d = derive(p)
    g = math.sqrt(2.0 * abs(p.detuning) * d.recoil_frequency * ratio / p.n0)
    return replace(p, coupling_g=g)


# --- ladder range ------------------------------------------------------------

GUARD = 8  # how far in l the ladder reaches beyond the resonant pair [-l0, 0]


def default_range(l0: int) -> tuple[int, int]:
    """(l_min, l_max) = (-l0 - GUARD, GUARD): the ladder range, which brackets
    the resonant orders [-l0, 0] symmetrically."""
    if l0 < 2 or l0 % 2:
        raise ValueError(f"l0 must be a positive even integer, got {l0}")
    return (-l0 - GUARD, GUARD)


# --- flat key=value configuration -------------------------------------------
#
# Each recognized key -> (PhysicalParams field, value type, factor). The
# *_2pi_hz keys take a value in Hz and multiply it by 2*pi, matching how such
# couplings are usually quoted; the keys with factor 1 are the plain names
# physical_dict reports.

_KEYS = {
    "mass_kg": ("mass", float, 1.0),
    "wavelength_m": ("wavelength", float, 1.0),
    "g_rad_s": ("coupling_g", float, 1.0),
    "detuning_rad_s": ("detuning", float, 1.0),
    "n0": ("n0", int, 1),
    "l0": ("l0", int, 1),
    "g_2pi_hz": ("coupling_g", float, 2.0 * math.pi),
    "detuning_2pi_hz": ("detuning", float, 2.0 * math.pi),
}

CONFIG_KEYS = tuple(sorted(_KEYS))

ENV_CONFIG_VAR = "BRAGG_CONFIG"


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ParameterError(
                f"{source}:{lineno}: unknown key {key!r}; known keys: "
                + ", ".join(CONFIG_KEYS)
            )
        if key in values:
            raise ParameterError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def load_config(path: str | os.PathLike) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def parse_overrides(pairs: list[str]) -> dict[str, str]:
    """Parse repeated `key=value` CLI overrides; later entries win."""
    values: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ParameterError(f"override {pair!r} is not of the form key=value")
        key, value = (part.strip() for part in pair.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ParameterError(
                f"unknown override key {key!r}; known keys: " + ", ".join(CONFIG_KEYS)
            )
        values[key] = value
    return values


def apply_config(base: PhysicalParams, values: dict[str, str]) -> PhysicalParams:
    """Apply parsed key=value pairs on top of `base`.

    Plain and *_2pi_hz spellings of the same quantity may not be mixed within
    one source.
    """
    fields: dict[str, object] = {}
    targets_seen: dict[str, str] = {}
    for key, raw in values.items():
        target, kind, factor = _KEYS[key]
        try:
            val = factor * kind(raw)
        except ValueError:
            what = "a number" if kind is float else "an integer"
            raise ParameterError(f"key {key!r}: cannot parse {raw!r} as {what}") from None
        if target in targets_seen:
            raise ParameterError(
                f"keys {targets_seen[target]!r} and {key!r} both set {target}"
            )
        targets_seen[target] = key
        fields[target] = val
    return replace(base, **fields) if fields else base


def physical_dict(p: PhysicalParams) -> dict:
    """The parameters keyed by their plain config-file names (mass_kg, ..., l0)."""
    return {key: getattr(p, field) for key, (field, _, factor) in _KEYS.items() if factor == 1}


def resolve_params(
    preset: str = "rubidium",
    config_path: str | os.PathLike | None = None,
    overrides: list[str] | None = None,
) -> PhysicalParams:
    """Build parameters with precedence: overrides > config file > preset."""
    p = get_preset(preset)
    if config_path is not None:
        p = apply_config(p, load_config(config_path))
    if overrides:
        p = apply_config(p, parse_overrides(overrides))
    return p
