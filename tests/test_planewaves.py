import numpy as np
import pytest

from relsingosc import planewaves
from relsingosc.planewaves import (
    PlaneWaveParams,
    free_hamiltonian_residual,
    reduction_multiplier,
    weight_wN,
    xi_Nd,
    xi_nonrel_deviation,
)

RNG = np.random.default_rng(11)
THETAS = np.linspace(0.3, np.pi - 0.3, 7)
SAMPLES = [(rho, th) for rho in (1.0, 3.0, 10.0) for th in THETAS]


def test_xi_at_rest_is_one():
    pw = PlaneWaveParams(chi=0.0)
    for rho, ct in ((0.5, 0.2), (3.0, -0.7), (10.0, 1.0)):
        assert xi_Nd(pw, rho, ct) == pytest.approx(1.0)
    pwN = PlaneWaveParams(chi=0.0, N=7)
    assert xi_Nd(pwN, 2.0, 0.3) == pytest.approx(1.0)


def test_xi_exponent_zero_point():
    # at rho = i the 3D exponent -1 - i rho vanishes
    pw = PlaneWaveParams(chi=0.8, N=3)
    assert xi_Nd(pw, 1j, 0.4) == pytest.approx(1.0)


def test_xi_Nd_reduces_to_3d():
    pw3 = PlaneWaveParams(chi=0.6, N=3)
    for _ in range(10):
        rho = RNG.uniform(0.1, 10)
        ct = RNG.uniform(-1, 1)
        want = (np.cosh(pw3.chi) - np.sinh(pw3.chi) * ct) ** (-1 - 1j * rho)
        assert xi_Nd(pw3, rho, ct) == pytest.approx(want, rel=1e-14)


def test_xi_modulus_power_law():
    pw = PlaneWaveParams(chi=0.9, N=5)
    for _ in range(10):
        rho = RNG.uniform(0.1, 20)
        ct = RNG.uniform(-1, 1)
        q = np.cosh(pw.chi) - np.sinh(pw.chi) * ct
        assert abs(xi_Nd(pw, rho, ct)) == pytest.approx(q ** (-(pw.N - 1) / 2), rel=1e-13)


def test_hyperboloid_parametrization():
    pw = PlaneWaveParams(chi=1.3)
    assert isinstance(pw.energy, float) and isinstance(pw.momentum, float)
    assert pw.energy ** 2 - pw.momentum ** 2 == pytest.approx(1.0, rel=1e-14)
    col = PlaneWaveParams(chi=np.array([[0.2], [1.3]]))
    assert col.energy.shape == col.momentum.shape == (2, 1)
    np.testing.assert_allclose(col.energy ** 2 - col.momentum ** 2, 1.0, rtol=1e-14)


def test_free_hamiltonian_eigenvalue_grid():
    for N in (2, 3, 5):
        for chi in (0.2, 0.5, 1.0):
            res = free_hamiltonian_residual(PlaneWaveParams(chi=chi, N=N), SAMPLES)
            assert res < 1e-6
    for N in (2, 3, 5):
        assert free_hamiltonian_residual(PlaneWaveParams(chi=0.0, N=N), SAMPLES) < 1e-12


def test_free_hamiltonian_negative_control():
    pw = PlaneWaveParams(chi=0.5, N=3)
    res = free_hamiltonian_residual(pw, SAMPLES, eigenvalue=np.cosh(0.5) + 0.1)
    assert res > 1e-2


def test_theta_window_enforced():
    pw = PlaneWaveParams(chi=0.5)
    with pytest.raises(ValueError):
        free_hamiltonian_residual(pw, [(1.0, 0.05)])
    with pytest.raises(ValueError, match="theta = 3.0"):
        free_hamiltonian_residual(pw, SAMPLES + [(2.0, 3.0)])


def test_residual_is_the_worst_sample():
    # all samples are evaluated at once; each counts as on its own
    pw = PlaneWaveParams(chi=0.5, N=5)
    each = [free_hamiltonian_residual(pw, [s]) for s in SAMPLES]
    assert free_hamiltonian_residual(pw, SAMPLES) == max(each)
    assert free_hamiltonian_residual(pw, []) == 0.0


def test_nonrel_plane_wave_limit():
    devs = [xi_nonrel_deviation(1.3, 2.0, 0.4, lam) for lam in (1e-2, 5e-3, 2.5e-3)]
    assert devs[0] / devs[1] == pytest.approx(2.0, rel=0.15)
    assert devs[1] / devs[2] == pytest.approx(2.0, rel=0.15)


def test_weight_w3_and_w1_are_unity():
    rho = RNG.uniform(0.1, 15, 20)
    assert np.max(np.abs(weight_wN(rho, 3) - 1.0)) < 1e-13
    assert np.max(np.abs(weight_wN(rho, 1) - 1.0)) < 1e-13


def test_weight_w5_closed_form():
    rho = RNG.uniform(0.1, 15, 20)
    expect = (rho ** 2 + 1.0) / rho ** 2
    assert np.max(np.abs(weight_wN(rho, 5) - expect) / expect) < 1e-12


def test_weight_domain_error():
    with pytest.raises(ValueError):
        weight_wN(0.0, 3)
    with pytest.raises(ValueError):
        weight_wN(np.array([1.0, -2.0]), 5)


def test_reduction_multiplier_special_cases():
    for rho in (0.5, 2.0, 9.0):
        assert reduction_multiplier(rho, 3) == pytest.approx(-1.0 / rho, rel=1e-13)
        assert reduction_multiplier(rho, 1) == pytest.approx(1.0, rel=1e-14)


def test_multiplier_weight_modulus_identity():
    rho = np.asarray((0.2, 0.7, 1.3, 4.0, 9.5))
    for N in (2, 3, 5, 8):
        prod = np.abs(reduction_multiplier(rho, N)) ** 2 * weight_wN(rho, N) * rho ** (N - 1)
        assert np.max(np.abs(prod - 1.0)) < 1e-12


# every (N, chi) of the planewave-eigenvalue check as (P, 1) columns
_N, _CHI = np.meshgrid((2, 3, 5), (0.2, 0.5, 1.0), indexing="ij")
COLUMNS = PlaneWaveParams(chi=_CHI.reshape(-1, 1), N=_N.reshape(-1, 1))


def test_stacked_residuals_are_the_scalar_calls_bit_for_bit():
    got = free_hamiltonian_residual(COLUMNS, SAMPLES)
    assert got.shape == (9,)
    want = [free_hamiltonian_residual(PlaneWaveParams(chi=float(chi), N=int(N)), SAMPLES)
            for N, chi in zip(_N.ravel(), _CHI.ravel())]
    assert got.tolist() == want
    assert isinstance(free_hamiltonian_residual(PlaneWaveParams(chi=0.5), SAMPLES), float)


def test_stacked_negative_control_fails_at_every_point():
    shifted = np.cosh(COLUMNS.chi) + 1e-3
    assert np.all(free_hamiltonian_residual(COLUMNS, SAMPLES, eigenvalue=shifted) > 1e-4)


def test_one_bad_entry_of_a_column_is_refused():
    chi = np.array([[0.2], [np.nan], [1.0]])
    with pytest.raises(ValueError, match="finite"):
        PlaneWaveParams(chi=chi, N=np.full((3, 1), 3))
    with pytest.raises(ValueError, match="N >= 2"):
        PlaneWaveParams(chi=np.full((3, 1), 0.5), N=np.array([[3], [1], [5]]))


def test_residual_evaluates_each_distinct_plane_wave_once(monkeypatch):
    # rho + i and rho - i at theta, rho at theta, and rho + i at the four
    # other angles theta +- h/2, theta +- h of the angular differences
    calls = []
    xi = planewaves._xi

    def counted(*args):
        calls.append(args)
        return xi(*args)

    monkeypatch.setattr(planewaves, "_xi", counted)
    free_hamiltonian_residual(COLUMNS, SAMPLES)
    assert len(calls) == 7
    keys = {(np.asarray(rho).tobytes(), np.asarray(ct).tobytes()) for _, _, rho, ct in calls}
    assert len(keys) == 7
