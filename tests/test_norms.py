import numpy as np
import pytest

from stripwave.fields import SpectralField, SurfaceSpectral, YData
from stripwave.grids import FrequencyGrid, VerticalGrid
from stripwave.norms import (anisotropic_weight, check_divergence_trace,
                             hdot_neg1, sobolev_norm, surface_sobolev_norm,
                             x_norm, ydata_norm)
from stripwave.ops import dealias_tail_fraction, lattice_sum, to_coeff

GRID = FrequencyGrid(1, 8.0, 32)
VG = VerticalGrid(1.0, 32)


def test_sobolev_zero():
    f = SpectralField.zeros(GRID, VG)
    assert sobolev_norm(f, 0) == 0.0
    assert sobolev_norm(f, 2) == 0.0


def test_sobolev_single_mode_l2():
    # the stored index stands for xi0 and -xi0:
    # f(x, z) = 2 cos(2 pi xi0 x) sin(lam z): ||f||_L2^2 = 2 L * int sin^2
    lam = 2.0
    f = SpectralField.zeros(GRID, VG)
    f.data[0, 3, :] = np.sin(lam * VG.nodes)
    exact = 2 * GRID.box_len * (VG.depth / 2 - np.sin(2 * lam * VG.depth) / (4 * lam))
    assert sobolev_norm(f, 0) == pytest.approx(np.sqrt(exact), rel=1e-12)


def test_sobolev_monotone_in_order():
    rng = np.random.default_rng(0)
    f = SpectralField(GRID, VG, rng.standard_normal((1, 17, 32))
                      + 0j)
    n0, n1, n2 = (sobolev_norm(f, s) for s in (0, 1, 2))
    assert n0 <= n1 <= n2


def test_sobolev_rejects_fractional():
    f = SpectralField.zeros(GRID, VG)
    with pytest.raises(ValueError):
        sobolev_norm(f, 1.5)


def test_xnorm_single_high_mode():
    # modes with |xi| = 2 and weight (1+4)^t: xi = 2 and its mirror -2
    grid = FrequencyGrid(1, 4.0, 32)
    eta = SurfaceSpectral.zeros(grid)
    eta.data[0, 8] = 0.7  # xi = 8/4 = 2
    for t in (0.5, 2.5):
        expect = np.sqrt(2 * grid.box_len * 5.0 ** t * 0.49)
        assert x_norm(eta, t) == pytest.approx(expect, rel=1e-12)


def test_xnorm_low_mode_weight():
    # xi = 0.5: weight (xi1^2 + |xi|^4)/|xi|^2 = 1.25 regardless of t
    grid = FrequencyGrid(1, 8.0, 32)
    eta = SurfaceSpectral.zeros(grid)
    eta.data[0, 4] = 1.0  # xi = 4/8 = 0.5, and its mirror -0.5
    expect = np.sqrt(2 * grid.box_len * 1.25)
    assert x_norm(eta, 2.5) == pytest.approx(expect, rel=1e-12)
    assert x_norm(eta, 0.0) == pytest.approx(expect, rel=1e-12)


def test_xnorm_zero_mode_dropped():
    eta = SurfaceSpectral.zeros(GRID)
    eta.data[0, 0] = 123.0
    assert x_norm(eta, 2.5) == 0.0


def test_weight_discontinuity_at_one():
    # the two weight branches genuinely disagree at |xi| = 1 (not smoothed)
    grid = FrequencyGrid(1, 16.0, 64)
    w = anisotropic_weight(grid, 2.5)
    xi = grid.xi_axes[0]
    below = np.nonzero((xi > 0) & (xi < 1.0))[0]
    inner = xi[below] ** 2 + xi[below] ** 4
    inner /= xi[below] ** 2
    assert np.allclose(w[below], inner)
    at_or_above = np.nonzero(xi >= 1.0)[0]
    assert np.allclose(w[at_or_above], (1 + xi[at_or_above] ** 2) ** 2.5)
    # jump: limit from below at 1 is 2, from above 2^2.5
    assert not np.isclose(2.0, 2.0 ** 2.5)


def test_xnorm_monotone_above_one():
    grid = FrequencyGrid(1, 4.0, 32)
    eta = SurfaceSpectral.zeros(grid)
    eta.data[0, 6] = 1.0  # xi = 1.5 > 1
    eta.data[0, 10] = 0.5
    assert x_norm(eta, 1.0) <= x_norm(eta, 2.0) <= x_norm(eta, 3.0)


def test_hdot_single_mode():
    f = SurfaceSpectral.zeros(GRID)
    f.data[0, 2] = 3.0  # xi = 0.25, and its mirror -0.25
    expect = np.sqrt(2 * GRID.box_len) * 3.0 / 0.25
    assert hdot_neg1(f) == pytest.approx(expect, rel=1e-12)


def test_hdot_zero_mode_obstruction():
    f = SurfaceSpectral.zeros(GRID)
    f.data[0, 0] = 1.0
    assert hdot_neg1(f) == float("inf")


def test_hdot_of_derivative_finite():
    rng = np.random.default_rng(1)
    eta = SurfaceSpectral.zeros(GRID)
    for j in range(1, 6):
        eta.data[0, j] = rng.standard_normal() + 1j * rng.standard_normal()
    eta.enforce_real()
    xi = GRID.xi_axes[0]
    deta = SurfaceSpectral(GRID, eta.data * (2j * np.pi * xi))
    val = hdot_neg1(deta)
    # over the whole lattice: j = 1 .. 16 and the mirrors j = -1 .. -15
    direct = GRID.box_len * sum(
        (1 if j == 16 else 2)
        * np.abs(eta.data[0, j]) ** 2 * (2 * np.pi * xi[j]) ** 2 / xi[j] ** 2
        for j in range(1, 17) if xi[j] != 0)
    assert np.isfinite(val)
    assert val == pytest.approx(np.sqrt(direct), rel=1e-12)


def test_divergence_trace_zero():
    data = YData.zeros(GRID, VG)
    rep = check_divergence_trace(data)
    assert rep.residual_hneg1 == 0.0
    assert rep.zero_mode_abs == 0.0


def _random_bottom_vanishing_velocity(rng, grid, vg, jmax=5, kmax=5):
    u = np.zeros((2,) + grid.freq_shape + (vg.count,), dtype=complex)
    z = vg.nodes / vg.depth
    for c in range(2):
        for j in range(1, jmax):
            for k in range(kmax):
                amp = (rng.standard_normal() + 1j * rng.standard_normal()) * np.exp(-j - 0.4 * k)
                u[c, j] += amp * np.sin((k + 0.5) * np.pi * z)
    f = SpectralField(grid, vg, u)
    f.enforce_real()
    return f


def test_divergence_trace_bound():
    # residual of (div u, u_n|top) obeys the 2 pi sqrt(b) L2 bound
    rng = np.random.default_rng(7)
    xi = GRID.xi_axes[0]
    for trial in range(100):
        u = _random_bottom_vanishing_velocity(rng, GRID, VG)
        div = u.data[1:2] @ VG.diff.T + 2j * np.pi * xi[None, :, None] * u.data[0:1]
        data = YData.zeros(GRID, VG)
        data.g = SpectralField(GRID, VG, div)
        data.h = SurfaceSpectral(GRID, u.data[1:2, :, -1].copy())
        rep = check_divergence_trace(data)
        l2 = sobolev_norm(u, 0)
        assert rep.residual_hneg1 <= 2 * np.pi * np.sqrt(VG.depth) * l2 * (1 + 1e-10)
        assert rep.zero_mode_abs < 1e-13


def test_divergence_trace_incompatible():
    data = YData.zeros(GRID, VG)
    data.h.data[0, 0] = 1.0  # pure zero-mode gap
    data.h.data[0, 3] = 0.5
    rep = check_divergence_trace(data)
    assert rep.zero_mode_abs == pytest.approx(1.0)
    assert rep.residual_hneg1 > 0


def test_ydata_norm_positive():
    data = YData.zeros(GRID, VG)
    data.f.data[0, 1, :] = 1.0      # and at -1, its mirror
    assert ydata_norm(data) > 0


def test_surface_sobolev_fractional():
    f = SurfaceSpectral.zeros(GRID)
    f.data[0, 4] = 2.0  # xi = 0.5, and its mirror -0.5
    expect = 2.0 * np.sqrt(2 * GRID.box_len) * (1.25) ** 0.25
    assert surface_sobolev_norm(f, 0.5) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("dim_h", [1, 2])
def test_stored_half_matches_whole_lattice_sums(dim_h):
    # real samples carry content on the self-paired planes k1 = 0 and
    # k1 = modes/2; every functional of their stored half equals the sum
    # over the whole lattice of np.fft.fftn of the same samples
    rng = np.random.default_rng(20 + dim_h)
    modes, box = 12, 5.0                    # |xi| from 0.2 to 1.7, a 2/3 tail
    grid, vg = FrequencyGrid(dim_h, box, modes), VerticalGrid(1.0, 10)
    n, axes = dim_h + 1, tuple(range(1, 1 + dim_h))
    bulk = {name: rng.standard_normal((c,) + grid.phys_shape + (vg.count,))
            for name, c in (("f", n), ("g", 1), ("l", 1))}
    surf = {name: rng.standard_normal((c,) + grid.phys_shape)
            for name, c in (("k", n), ("h", 1), ("m", 1))}
    surf["h"] -= surf["h"].mean()          # a finite order -1 norm
    data = YData(*[SpectralField(grid, vg, to_coeff(bulk[k], grid)) for k in "fgl"],
                 *[SurfaceSpectral(grid, to_coeff(surf[k], grid)) for k in "khm"])
    for part in (data.f, data.k, data.m):
        assert min(np.abs(part.data[:, 0]).max(), np.abs(part.data[:, -1]).max()) > 1e-3
    whole = {k: np.fft.fftn(v, axes=axes) / modes ** dim_h for k, v in {**bulk, **surf}.items()}

    j = np.fft.fftfreq(modes, 1.0 / modes)
    j[modes // 2] = modes // 2              # Nyquist at +modes/2
    vecs = np.stack(np.meshgrid(*[j / box] * dim_h, indexing="ij"), axis=-1)
    xi2, vol = (vecs ** 2).sum(axis=-1), grid.box_volume()

    def sobolev(c, s):
        total, dz = 0.0, c
        for order in range(s + 1):
            total += ((1 + xi2) ** (s - order) * ((np.abs(dz) ** 2) @ vg.weights)).sum()
            dz = dz @ vg.diff.T
        return np.sqrt(vol * total)

    def surface(c, weight):
        return np.sqrt(vol * (weight * np.abs(c) ** 2).sum())

    low = (xi2 > 0) & (xi2 < 1)
    aniso = np.where(low, (vecs[..., 0] ** 2 + xi2 ** 2) / np.where(low, xi2, 1),
                     (1 + xi2) ** 2.5 * (xi2 >= 1))
    inv = np.where(xi2 > 0, 1 / np.where(xi2 > 0, xi2, 1), 0.0)
    resid = whole["h"] - whole["g"] @ vg.weights

    pairs = [(sobolev_norm(data.f, s), sobolev(whole["f"], s)) for s in (0, 1, 2)]
    pairs += [(surface_sobolev_norm(data.k, 0.5), surface(whole["k"], (1 + xi2) ** 0.5)),
              (x_norm(data.m, 2.5), surface(whole["m"], aniso)),
              (hdot_neg1(data.h), surface(whole["h"], inv)),
              (ydata_norm(data), np.sqrt(sum(v ** 2 for v in (
                  sobolev(whole["f"], 0), sobolev(whole["g"], 1), sobolev(whole["l"], 0),
                  surface(whole["k"], (1 + xi2) ** 0.5), surface(whole["h"], (1 + xi2) ** 1.5),
                  surface(whole["m"], (1 + xi2) ** 0.5), surface(resid, inv)))))]
    keep = np.logical_and.reduce(np.meshgrid(*[np.abs(j) <= modes // 3] * dim_h,
                                             indexing="ij"))
    power = np.abs(whole["f"]) ** 2
    pairs.append((dealias_tail_fraction(data.f.data, grid),
                  power[:, ~keep].sum() / power.sum()))
    for got, expect in pairs:
        assert got == pytest.approx(expect, rel=1e-13)

    # the series at points off the collocation grid, with trailing axes
    points = rng.uniform(-box, 2 * box, size=(6, dim_h))
    phases = np.exp(2j * np.pi * points @ vecs.reshape(-1, dim_h).T)
    got = lattice_sum(np.moveaxis(data.f.data, 0, -2), grid, points)
    expect = np.real(np.einsum("pk,kcz->pcz", phases,
                               np.moveaxis(whole["f"], 0, -2).reshape(-1, n, vg.count)))
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()
