import numpy as np
import pytest

from stripwave.errors import SurfaceTooLarge
from stripwave.fields import SurfaceSpectral
from stripwave.geometry import build_flattening, flattening_points, mean_curvature
from stripwave.grids import FrequencyGrid, VerticalGrid
from stripwave.ops import lattice_sum, to_coeff

GRID = FrequencyGrid(1, 2 * np.pi, 64)
VG = VerticalGrid(1.0, 24)


def _eta_from_phys(vals, grid=GRID):
    return SurfaceSpectral(grid, to_coeff(vals[None], grid))


def test_flat_surface_identity():
    eta = SurfaceSpectral.zeros(GRID)
    ff = build_flattening(eta, GRID, VG)
    assert np.abs(ff.j_field - 1.0).max() < 1e-14
    # the last column of A is the identity's
    assert np.abs(ff.a_last[0]).max() < 1e-14
    assert np.abs(ff.a_last[1] - 1.0).max() < 1e-14


def test_constant_shift():
    c = 0.3
    eta = SurfaceSpectral.zeros(GRID)
    eta.data[0, 0] = c
    ff = build_flattening(eta, GRID, VG)
    assert np.abs(ff.j_field - (1 + c)).max() < 1e-13
    assert np.abs(ff.a_last[1] - 1.0 / (1 + c)).max() < 1e-13
    assert np.abs(ff.a_last[0]).max() < 1e-13


def test_det_inverse_identity():
    x = GRID.nodes_1d()
    eta = _eta_from_phys(0.1 * np.cos(x))
    ff = build_flattening(eta, GRID, VG)
    # det(A) for the displayed sparsity is the bottom-right entry
    det_a = ff.a_last[1]
    assert np.abs(1.0 / det_a - ff.j_field[..., None]).max() < 1e-12


def test_jacobian_matches_finite_difference():
    # det(grad F_eta) == J at sampled points, F evaluated by finite differences
    x = GRID.nodes_1d()
    eta_phys = 0.1 * np.cos(x)
    eta = _eta_from_phys(eta_phys)
    ff = build_flattening(eta, GRID, VG)
    b = VG.depth
    rng = np.random.default_rng(0)

    def Fmap(x1, xn):
        e = lattice_sum(eta.data[0], GRID, np.array([[x1]]))[0]
        return np.array([x1, xn * (1 + e / b)])

    h = 1e-6
    for _ in range(10):
        x1 = rng.uniform(0, GRID.box_len)
        xn = rng.uniform(0.05, b - 0.05)
        J_fd = np.zeros((2, 2))
        J_fd[:, 0] = (Fmap(x1 + h, xn) - Fmap(x1 - h, xn)) / (2 * h)
        J_fd[:, 1] = (Fmap(x1, xn + h) - Fmap(x1, xn - h)) / (2 * h)
        det = np.linalg.det(J_fd)
        expect = 1 + lattice_sum(eta.data[0], GRID, np.array([[x1]]))[0] / b
        assert det == pytest.approx(expect, rel=1e-7)


def test_rejects_large_surface():
    eta = SurfaceSpectral.zeros(GRID)
    eta.data[0, 0] = 0.5  # equals b/2
    with pytest.raises(SurfaceTooLarge):
        build_flattening(eta, GRID, VG)


def test_a_deviation_controlled():
    x = GRID.nodes_1d()
    eta_phys = 0.15 * np.cos(x) + 0.05 * np.sin(2 * x)
    eta = _eta_from_phys(eta_phys)
    ff = build_flattening(eta, GRID, VG)
    # A - I is zero off the last column
    dev = np.abs(ff.a_last - np.array([0.0, 1.0])[:, None, None]).max(axis=0)
    bound = np.abs(ff.eta_phys[..., None]) / VG.depth + np.abs(ff.grad_eta_phys[0][..., None])
    # pointwise deviation controlled with a modest constant
    assert np.all(dev <= 3.0 * (bound.max(axis=-1)[..., None] + 1e-15))


def test_flattening_points_vertical():
    eta = SurfaceSpectral.zeros(GRID)
    eta.data[0, 0] = 0.2
    ff = build_flattening(eta, GRID, VG)
    pts = flattening_points(ff.eta_phys, GRID, VG)
    assert pts[..., -1].max() == pytest.approx(1.2, abs=1e-12)
    assert np.abs(pts[..., 0] - GRID.nodes_1d()[:, None]).max() < 1e-14


def test_curvature_zero():
    eta = SurfaceSpectral.zeros(GRID)
    assert np.abs(mean_curvature(eta).data).max() == 0.0


def test_curvature_linearization():
    # H(eps cos(2 pi xi0 x)) = -4 pi^2 xi0^2 eps cos + O(eps^3)
    xi0 = 3 / GRID.box_len
    x = GRID.nodes_1d()
    for eps in (1e-4, 1e-5):
        eta = _eta_from_phys(eps * np.cos(2 * np.pi * xi0 * x))
        curv = mean_curvature(eta)
        expect = np.zeros(GRID.freq_shape, dtype=complex)
        expect[3] = -4 * np.pi ** 2 * xi0 ** 2 * eps / 2     # and at -3, its mirror
        err = np.abs(curv.data[0] - expect).max()
        assert err < 200 * eps ** 3 + 1e-15


def test_curvature_against_finite_differences():
    # eta = 0.3 cos(x) on the 2 pi box, dense finite-difference oracle
    x = GRID.nodes_1d()
    eta_phys = 0.3 * np.cos(x)
    eta = _eta_from_phys(eta_phys)
    curv_phys = np.fft.irfft(mean_curvature(eta).data[0], GRID.modes) * GRID.modes

    nfd = 1 << 14
    xf = 2 * np.pi * np.arange(nfd) / nfd
    ef = 0.3 * np.cos(xf)
    de = np.gradient(ef, xf, edge_order=2)
    # periodic spectral derivative for the oracle instead: exact FFT on fine grid
    k = np.fft.fftfreq(nfd, d=2 * np.pi / nfd) * 2 * np.pi
    de = np.fft.ifft(1j * k * np.fft.fft(ef)).real
    flux = de / np.sqrt(1 + de ** 2)
    hf = np.fft.ifft(1j * k * np.fft.fft(flux)).real
    oracle = np.interp(x, xf, hf)
    assert np.abs(curv_phys - oracle).max() < 1e-8


def test_curvature_mean_zero():
    x = GRID.nodes_1d()
    eta = _eta_from_phys(0.25 * np.cos(x) + 0.1 * np.sin(3 * x))
    curv = mean_curvature(eta)
    assert abs(curv.data[0, 0]) < 1e-10


def test_geometry_dim3():
    grid = FrequencyGrid(2, 2 * np.pi, 16)
    vg = VerticalGrid(1.0, 10)
    pts = grid.phys_points()
    eta_phys = 0.1 * np.cos(pts[..., 0]) * np.cos(pts[..., 1])
    eta = _eta_from_phys(eta_phys, grid)
    ff = build_flattening(eta, grid, vg)
    assert ff.a_last.shape == (3,) + grid.phys_shape + (vg.count,)
    det_a = ff.a_last[2]  # triangular structure
    assert np.abs(1.0 / det_a - ff.j_field[..., None]).max() < 1e-12
    curv = mean_curvature(eta)
    assert abs(curv.data[0, 0, 0]) < 1e-12
