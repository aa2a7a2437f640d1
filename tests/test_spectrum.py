import numpy as np
import numpy.testing as npt
import pytest

from rectconv import (
    ModelParams,
    canonical_sqrt_spectrum,
    make_spectrum,
    spectrum_from_text,
)


def test_make_spectrum_sorts_descending():
    spec = make_spectrum([1.0, 3.0, 2.0, 0.0])
    npt.assert_array_equal(spec.values, [3.0, 2.0, 1.0, 0.0])
    assert spec.p == 4
    assert spec.top == 3.0


def test_make_spectrum_rejects_bad_input():
    with pytest.raises(ValueError):
        make_spectrum([])
    with pytest.raises(ValueError):
        make_spectrum([1.0, -0.5])
    with pytest.raises(ValueError):
        make_spectrum([np.nan, 1.0])
    with pytest.raises(ValueError):
        make_spectrum([np.inf])


def test_spectrum_values_immutable():
    spec = make_spectrum([2.0, 1.0])
    with pytest.raises(ValueError):
        spec.values[0] = 5.0


def test_model_params_validation():
    params = ModelParams(p=10, n=20, t=0.5)
    assert params.c_n == 0.5
    with pytest.raises(ValueError):
        ModelParams(p=0, n=20, t=0.5)
    with pytest.raises(ValueError):
        ModelParams(p=30, n=20, t=0.5)  # needs p <= n
    with pytest.raises(ValueError):
        ModelParams(p=10, n=20, t=-0.1)


def test_canonical_sqrt_spectrum_endpoints():
    for p in (2, 17, 500):
        spec = canonical_sqrt_spectrum(p, 1.0)
        assert spec.values[0] == 1.0  # top atom sits exactly at the edge
        assert spec.values[-1] > 0.0
        assert spec.p == p
    spec = canonical_sqrt_spectrum(64, 2.5)
    assert spec.values[0] == 2.5


def test_canonical_sqrt_spectrum_cdf_profile():
    # mass within s of the edge should follow the s^(3/2) law of a sqrt density
    p = 4000
    spec = canonical_sqrt_spectrum(p, 1.0)
    for s in (0.1, 0.3, 0.6):
        frac = np.mean(spec.values > 1.0 - s)
        assert abs(frac - s**1.5) < 0.02


def test_canonical_sqrt_spectrum_rejects_bad_args():
    with pytest.raises(ValueError):
        canonical_sqrt_spectrum(1, 1.0)
    with pytest.raises(ValueError):
        canonical_sqrt_spectrum(10, 0.0)


def test_text_round_trip_exact():
    spec = make_spectrum([1.0 / 3.0, np.pi, 1e-17, 2.0])
    # the CLI's {"file": ...} spectrum: one 17-digit eigenvalue per line
    text = "\n".join(f"{v:.17g}" for v in spec.values) + "\n"
    back = spectrum_from_text(text)
    npt.assert_array_equal(back.values, spec.values)
