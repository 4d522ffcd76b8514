import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braggbell import params
from braggbell.params import (
    ParameterError,
    PhysicalParams,
    RegimeVerdict,
    apply_config,
    derive,
    parse_config_text,
    parse_overrides,
    physical_dict,
    resolve_params,
    rubidium_preset,
    validate_bragg_regime,
    with_regime_ratio,
)

TWO_PI = 2.0 * math.pi


def test_derived_params_repr():
    assert repr(derive(rubidium_preset())) == (
        "DerivedParams(wavenumber=7853981.633974483, recoil_frequency=22905.384344911978, "
        "chi=492.6017280828795, regime_ratio=0.021505935926034885)"
    )


def test_rubidium_preset_values():
    p = rubidium_preset()
    assert p.mass == 1.42e-25
    assert p.wavelength == 0.8e-6
    assert p.coupling_g == TWO_PI * 112e3
    assert p.detuning == TWO_PI * 80e6
    assert p.n0 == 1
    assert p.l0 == 2


def test_derived_rubidium_frozen():
    d = derive(rubidium_preset())
    # wavenumber 2*pi/0.8um is exactly 2.5e6*pi
    assert d.wavenumber == pytest.approx(2.5e6 * math.pi, rel=0, abs=1e-6)
    assert d.recoil_frequency == pytest.approx(22905.384344911978, rel=1e-14)
    assert d.chi == pytest.approx(492.6017280828795, rel=1e-14)
    assert d.regime_ratio == pytest.approx(0.021505935926034885, rel=1e-13)


def test_rubidium_matches_quoted_numbers():
    d = derive(rubidium_preset())
    # chi ~ 0.02 w_rec and w_rec ~ 2pi x 3.8 kHz (within a known ~4% slack)
    assert 0.019 <= d.regime_ratio <= 0.023
    assert abs(d.recoil_frequency - TWO_PI * 3.8e3) / (TWO_PI * 3.8e3) < 0.05
    assert d.chi == pytest.approx(TWO_PI * 78.4, rel=2e-3)


def test_derive_scalings(rubidium):
    d0 = derive(rubidium)
    half_mass = derive(replace(rubidium, mass=rubidium.mass / 2))
    assert half_mass.recoil_frequency == pytest.approx(2 * d0.recoil_frequency)
    neg = derive(replace(rubidium, detuning=-rubidium.detuning))
    assert neg.chi == pytest.approx(-d0.chi)
    assert neg.regime_ratio < 0
    double_g = derive(replace(rubidium, coupling_g=2 * rubidium.coupling_g))
    assert double_g.chi == pytest.approx(4 * d0.chi)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mass=0.0),
        dict(mass=-1e-25),
        dict(wavelength=0.0),
        dict(detuning=0.0),
        dict(n0=0),
        dict(n0=-1),
        dict(l0=0),
        dict(l0=3),
        dict(l0=-2),
        dict(mass=math.nan),
        dict(wavelength=math.inf),
        dict(coupling_g=math.nan),
        dict(detuning=-math.inf),
        dict(n0=math.inf),
        dict(n0=math.nan),
        dict(l0=math.inf),
        dict(l0=math.nan),
    ],
)
def test_invalid_params_rejected(kwargs):
    base = dict(
        mass=1.42e-25,
        wavelength=0.8e-6,
        coupling_g=TWO_PI * 112e3,
        detuning=TWO_PI * 80e6,
    )
    base.update(kwargs)
    with pytest.raises(ParameterError):
        PhysicalParams(**base)


def test_regime_verdicts(at_ratio):
    assert validate_bragg_regime(derive(at_ratio(0.02)), 1) is RegimeVerdict.GOOD
    assert validate_bragg_regime(derive(at_ratio(0.05)), 1) is RegimeVerdict.GOOD
    assert validate_bragg_regime(derive(at_ratio(0.08)), 1) is RegimeVerdict.MARGINAL
    assert validate_bragg_regime(derive(at_ratio(0.2)), 1) is RegimeVerdict.MARGINAL
    assert validate_bragg_regime(derive(at_ratio(0.5)), 1) is RegimeVerdict.VIOLATED


def test_regime_uses_absolute_ratio(rubidium):
    d = derive(replace(with_regime_ratio(rubidium, 0.02), detuning=-rubidium.detuning))
    assert d.regime_ratio < 0
    assert validate_bragg_regime(d, 1) is RegimeVerdict.GOOD


def test_with_regime_ratio_exact(rubidium):
    for ratio in (0.01, 0.02, 0.1, 0.9):
        d = derive(with_regime_ratio(rubidium, ratio))
        assert d.regime_ratio == pytest.approx(ratio, rel=1e-12)
    with pytest.raises(ParameterError):
        with_regime_ratio(rubidium, 0.0)
    with pytest.raises(ParameterError):
        with_regime_ratio(rubidium, -0.1)


def test_regime_scales_with_photon_number(at_ratio):
    d = derive(at_ratio(0.04))
    assert validate_bragg_regime(d, 1) is RegimeVerdict.GOOD
    assert validate_bragg_regime(d, 10) is RegimeVerdict.VIOLATED


def test_parse_config_text():
    text = "# comment line\nmass_kg = 2e-25\n\nn0=3\ng_2pi_hz = 50e3  \n"
    vals = parse_config_text(text)
    assert vals == {"mass_kg": "2e-25", "n0": "3", "g_2pi_hz": "50e3"}


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ParameterError):
        parse_config_text("mass_kg 2e-25\n")  # no equals sign
    with pytest.raises(ParameterError):
        parse_config_text("mass_kg=1e-25\nmass_kg=2e-25\n")  # duplicate
    with pytest.raises(ParameterError):
        parse_config_text("unknown_key=1\n")


def test_apply_config_two_pi_equivalence(rubidium):
    via_rad = apply_config(rubidium, {"g_rad_s": str(TWO_PI * 50e3)})
    via_hz = apply_config(rubidium, {"g_2pi_hz": "50e3"})
    assert via_rad.coupling_g == pytest.approx(via_hz.coupling_g, rel=1e-15)
    both = {"g_rad_s": "1.0", "g_2pi_hz": "1.0"}
    with pytest.raises(ParameterError):
        apply_config(rubidium, both)


def test_apply_config_int_keys(rubidium):
    p = apply_config(rubidium, {"n0": "4", "l0": "6"})
    assert p.n0 == 4 and p.l0 == 6
    with pytest.raises(ParameterError):
        apply_config(rubidium, {"n0": "2.5"})


def test_parse_overrides():
    assert parse_overrides(["n0=2", "l0=4"]) == {"n0": "2", "l0": "4"}
    assert parse_overrides(["n0=1", "n0=2"]) == {"n0": "2"}  # later wins
    with pytest.raises(ParameterError):
        parse_overrides(["n0"])
    with pytest.raises(ParameterError):
        parse_overrides(["bogus=1"])


def test_resolve_params_precedence(tmp_path):
    cfg = tmp_path / "params.txt"
    cfg.write_text("n0 = 2\nmass_kg = 2.0e-25\n")
    p = resolve_params("rubidium", cfg, ["n0=5"])
    assert p.n0 == 5  # override beats file
    assert p.mass == 2.0e-25  # file beats preset
    assert p.wavelength == 0.8e-6  # preset survives untouched keys


def test_get_preset_unknown():
    with pytest.raises(ParameterError):
        params.get_preset("no-such-atom")


# --- properties --------------------------------------------------------------

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan)
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
INTS = st.one_of(st.integers(-3, 13), st.integers())


def _derived_or_parameter_error(make):
    """derive(make()) is finite with w_rec > 0, or one of them raises ParameterError."""
    try:
        d = derive(make())
    except ParameterError:
        return
    values = (d.wavenumber, d.recoil_frequency, d.chi, d.regime_ratio)
    assert all(math.isfinite(x) for x in values) and d.recoil_frequency > 0, d


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(FLOATS, FLOATS, FLOATS, FLOATS, INTS, INTS)
@example(1.42e-25, 1e300, 1.0, 1.0, 1, 2)  # w_rec underflows to zero
@example(1.42e-25, 0.8e-6, 1e300, 1.0, 1, 2)  # |g|^2 overflows
@example(1.42e-25, 0.8e-6, 1.0, 1.0, 10**400, 2)  # n0 beyond a float
def test_physical_params_derive_finite_or_parameter_error(mass, wavelength, g, detuning, n0, l0):
    _derived_or_parameter_error(lambda: PhysicalParams(mass, wavelength, g, detuning, n0, l0))


KEYS = st.sampled_from(params.CONFIG_KEYS + ("bogus", "", "mass"))
VALUES = st.one_of(FLOATS.map(repr), INTS.map(str), st.text(max_size=8))
LINES = st.one_of(
    st.builds("{} = {}".format, KEYS, VALUES),
    st.builds("{}={}".format, KEYS, VALUES),
    st.text(max_size=20),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(LINES, max_size=6))
@example(["g_rad_s = 1.0", "g_2pi_hz = 1.0"])
@example(["n0 = 2", "n0 = 3"])
def test_config_text_gives_params_or_parameter_error(lines):
    base = rubidium_preset()
    _derived_or_parameter_error(lambda: apply_config(base, parse_config_text("\n".join(lines))))
    _derived_or_parameter_error(lambda: apply_config(base, parse_overrides(lines)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.floats(1e-30, 1e-20), st.floats(1e-9, 1e-3), FLOATS, FLOATS, st.integers(1, 50),
       st.integers(1, 10).map(lambda m: 2 * m))
def test_physical_dict_round_trips_as_config_text(mass, wavelength, g, detuning, n0, l0):
    try:
        p = PhysicalParams(mass, wavelength, g, detuning, n0, l0)
    except ParameterError:
        return
    text = "".join(f"{key} = {value!r}\n" for key, value in physical_dict(p).items())
    assert apply_config(rubidium_preset(), parse_config_text(text)) == p
