import math

import numpy as np
import numpy.testing as npt
import pytest

from rectconv import AtomCollisionError, m_v, m_v_derivative, make_spectrum
from rectconv.stieltjes import _atom_sums, _phi


def test_single_atom_closed_form():
    spec = make_spectrum([2.0])
    z = 0.3 + 0.7j
    npt.assert_allclose(m_v(spec, z), 1.0 / (2.0 - z), rtol=1e-15)


def test_all_zero_closed_form():
    spec = make_spectrum(np.zeros(7))
    for z in (1j, -2.0 + 0.5j, 3.0 + 1e-6j):
        npt.assert_allclose(m_v(spec, z), -1.0 / z, rtol=1e-15)


def test_herglotz_property():
    rng = np.random.default_rng(11)
    spec = make_spectrum(rng.uniform(0, 4, 60))
    for _ in range(50):
        z = complex(rng.uniform(-5, 10), np.exp(rng.uniform(np.log(1e-9), np.log(5))))
        m = m_v(spec, z)
        assert m.imag > 0
    # lower half-plane maps to the conjugate
    z = 1.0 + 0.5j
    npt.assert_allclose(m_v(spec, np.conj(z)), np.conj(m_v(spec, z)), rtol=1e-15)


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(12)
    spec = make_spectrum(rng.uniform(0, 4, 30))
    zs = rng.uniform(-2, 6, 20) + 1j * np.exp(rng.uniform(np.log(1e-6), np.log(2), 20))
    vec = m_v(spec, zs)
    scal = np.array([m_v(spec, z) for z in zs])
    assert vec.tobytes() == scal.tobytes()


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(13)
    spec = make_spectrum(rng.uniform(0, 4, 25))
    z = 1.5 + 0.8j
    h = 1e-6
    fd1 = (m_v(spec, z + h) - m_v(spec, z - h)) / (2 * h)
    npt.assert_allclose(m_v_derivative(spec, z, 1), fd1, rtol=1e-8)
    fd2 = (m_v_derivative(spec, z + h, 1) - m_v_derivative(spec, z - h, 1)) / (2 * h)
    npt.assert_allclose(m_v_derivative(spec, z, 2), fd2, rtol=1e-8)
    fd3 = (m_v_derivative(spec, z + h, 2) - m_v_derivative(spec, z - h, 2)) / (2 * h)
    npt.assert_allclose(m_v_derivative(spec, z, 3), fd3, rtol=1e-7)


def test_phi_third_derivative_matches_finite_difference():
    # the support finder's Newton on Phi'' takes Phi''' from _phi; on the
    # real ray above the atoms and off the axis
    rng = np.random.default_rng(17)
    d, c, t, h = rng.uniform(0, 4, 25), 0.5, 0.3, 1e-6
    for zeta in (4.7, 1.5 + 0.8j):
        third = _phi(d, c, t, zeta, 3)[3]
        fd = (_phi(d, c, t, zeta + h, 2)[2] - _phi(d, c, t, zeta - h, 2)[2]) / (2 * h)
        npt.assert_allclose(third, fd, rtol=1e-7)


def test_derivative_orders_validated():
    spec = make_spectrum([1.0])
    with pytest.raises(ValueError):
        m_v_derivative(spec, 1j, 0)
    with pytest.raises(ValueError):
        m_v_derivative(spec, 1j, 4)


def test_atom_collision_guard():
    spec = make_spectrum([1.0, 2.0])
    with pytest.raises(AtomCollisionError):
        m_v(spec, 2.0 + 0j)
    with pytest.raises(AtomCollisionError):
        m_v(spec, 2.0 + 1e-16j)
    # a point clearly off the atoms is fine even on the real axis
    assert np.isfinite(m_v(spec, 5.0 + 0j))


def test_collision_guard_matches_brute_force():
    # the guard looks only at the two neighbours of Re zeta in the ascending
    # atoms; it must reject exactly the points that the minimum distance
    # over every atom rejects: on atoms, at midpoints, beyond both ends, on
    # repeated atoms, and at half and twice the guard distance from an atom
    spec = make_spectrum([0.0, 0.5, 0.5, 0.5, 1.25, 3.0, 3.0])
    atoms = np.unique(spec.values)
    near = np.concatenate([atoms + off for off in (-2e-14, -0.5e-14, 0.5e-14, 2e-14)])
    real = np.concatenate([atoms, near, 0.5 * (atoms[1:] + atoms[:-1]), [-2.0, 3.0 + 1e-9, 7.5]])
    rng = np.random.default_rng(15)
    points = np.concatenate(
        [real + 0j, real + 1j * rng.uniform(0.0, 2.0, real.size), atoms + 0.5e-14j, atoms + 2e-14j]
    )
    dist = np.abs(spec.values[:, None] - points[None, :]).min(axis=0)
    brute = dist < 1e-14 * np.maximum(1.0, np.abs(points))
    assert brute.any() and not brute.all()
    for z, collides in zip(points, brute):
        if collides:
            with pytest.raises(AtomCollisionError):
                m_v(spec, z)
        else:
            assert np.isfinite(m_v(spec, z))
    with pytest.raises(AtomCollisionError):
        m_v(spec, points)  # one colliding point rejects the whole batch


def test_real_axis_outside_support_is_real_and_monotone():
    spec = make_spectrum([0.5, 1.0, 1.5])
    xs = np.linspace(2.0, 6.0, 40)
    vals = np.real(m_v(spec, xs + 0j))
    assert np.all(np.imag(m_v(spec, xs + 0j)) == 0)
    assert np.all(np.diff(vals) > 0)  # m_v is increasing to the right of the atoms


def test_atom_sums_chunked_match_one_shot():
    # p = 2,000 atoms make the chunk stride 8 points, so 2,500 points take
    # 313 chunks, the last one partial; the chunks give the bits of one
    # (points, atoms) block summed along its rows
    rng = np.random.default_rng(14)
    d = np.sort(rng.uniform(0, 4, 2000))[::-1]
    zeta = rng.uniform(-2, 6, 2500) + 1j * np.exp(rng.uniform(np.log(1e-3), np.log(2), 2500))
    sums = _atom_sums(d, zeta, 2)
    assert sums.shape == (3, 2500) and sums.dtype == complex
    inv = 1.0 / (d[None, :] - zeta[:, None])
    for k, power in enumerate((inv, inv * inv, inv * inv * inv)):
        assert sums[k].tobytes() == (power.sum(axis=1) / d.size).tobytes()
        # pairwise along each row: within 4 eps mean|term| of the exact
        # mean of the terms (at most 1.8 on these 500 points; 21.5 when a
        # batch was summed term by term in atom order)
        for i in range(0, 2500, 5):
            row = power[i]
            exact = complex(math.fsum(row.real.tolist()), math.fsum(row.imag.tolist())) / d.size
            assert abs(sums[k, i] - exact) <= 4.0 * np.finfo(float).eps * np.abs(row).mean()
    # on the ray zeta > max(d) the real evaluation is the complex one at Im 0
    x = d[0] + np.linspace(1e-3, 5.0, 2500)
    real = _atom_sums(d, x, 2)
    assert real.dtype == float
    npt.assert_allclose(real, _atom_sums(d, x + 0j, 2).real, rtol=1e-14)
    assert np.all(_atom_sums(d, x + 0j, 2).imag == 0)


@pytest.mark.parametrize("p", [20, 200, 2000])
def test_atom_sums_point_alone_as_in_a_batch(p):
    # each point of a batch gets the bits it gets alone, whatever the batch
    # width; at p = 2,000 the 50 points span 7 chunks
    rng = np.random.default_rng(p)
    d = np.sort(rng.uniform(0, 4, p))[::-1]
    complex_points = rng.uniform(-2, 6, 50) + 1j * np.exp(rng.uniform(np.log(1e-3), np.log(2), 50))
    for zeta in (complex_points, d[0] + np.exp(rng.uniform(np.log(1e-3), np.log(5), 50))):
        batch = _atom_sums(d, zeta, 3)
        for i in range(zeta.size):
            assert _atom_sums(d, zeta[i : i + 1], 3)[:, 0].tobytes() == batch[:, i].tobytes()
