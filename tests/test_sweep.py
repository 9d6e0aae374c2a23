"""Sweep-engine tests: grid construction, NaN tagging of infeasible cells,
argmax locations on the default grids, constraint ordering, and regime
structure of the rate-versus-loss curves."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polspin as ps
from polspin.device import fidelity_kernel
from polspin.params import DESIGN_R_CAV_H, POWER_TOL
from polspin.rate import rate_curves
from polspin.sweep import (
    NAN_REASONS,
    SweepAxis,
    SweepResult,
    default_cooperativity_axis,
    default_coupling_axis,
    default_loss_axis,
    default_pdr_axes,
)


@pytest.fixture(scope="module")
def design():
    return {
        "pdr": ps.design_pdr(),
        "polarizer": ps.design_polarizer(),
        "cavity": ps.design_cavity(),
        "timing": ps.design_timing(),
    }


class TestSweepAxis:
    def test_linear_endpoints(self):
        ax = SweepAxis("x", 0.0, 1.0, 11)
        vals = ax.values()
        assert vals[0] == 0.0 and vals[-1] == 1.0 and vals.size == 11

    def test_log_spacing_geometric(self):
        vals = SweepAxis("x", 1.0, 100.0, 3, spacing="log").values()
        np.testing.assert_allclose(vals, [1.0, 10.0, 100.0])

    def test_rejects_bad_axes(self):
        with pytest.raises(ps.ValidationError):
            SweepAxis("x", 0.0, 1.0, 1)
        with pytest.raises(ps.ValidationError):
            SweepAxis("x", 1.0, 0.0, 5)
        with pytest.raises(ps.ValidationError):
            SweepAxis("x", 0.0, 1.0, 5, spacing="cubic")
        nan, inf = float("nan"), float("inf")
        for start, stop, spacing in [(nan, 1.0, "linear"), (0.0, nan, "linear"),
                                     (0.0, inf, "db"), (-inf, 1.0, "linear"),
                                     (0.0, 20.0, "log"), (-1.0, 20.0, "log")]:
            with pytest.raises(ps.ValidationError):
                SweepAxis("x", start, stop, 3, spacing=spacing)
        for start, num in [(0.0, 2.7), (0.0, True), (True, 3)]:
            with pytest.raises(ps.ValidationError):
                SweepAxis("x", start, 2.0, num)
        # a linear grid in dB is the loss axis's alone
        with pytest.raises(ps.ValidationError, match="axis cavity.g: db spacing applies"):
            SweepAxis("cavity.g", 0.5, 20.0, 5, spacing="db")
        assert SweepAxis("loss_db", 0.0, 20.0, 3, spacing="db").values().tolist() == [
            0.0, 10.0, 20.0]

    def test_accepts_numpy_numbers(self):
        ax = SweepAxis("x", np.float64(0.0), np.int64(2), np.int64(3))
        assert ax.values().tolist() == [0.0, 1.0, 2.0]

    def test_result_shape_validation(self):
        with pytest.raises(ps.ValidationError):
            SweepResult(axes=[("x", np.arange(3.0))], values=np.zeros(4),
                        quantity="q")
        with pytest.raises(ps.ValidationError):
            SweepResult(axes=[("x", np.arange(3.0))], values=np.zeros(3),
                        quantity="q", columns={"c": np.zeros(2)})


class TestFidelityPdrSweep:
    def test_infeasible_cells_are_nan(self, design):
        # T_V + R_V cannot exceed 1, so high-T_V/high-zeta cells drop out
        res = ps.sweep_fidelity_pdr(
            SweepAxis("pdr.T_V", 0.90, 1.0, 3),
            SweepAxis("pdr.R_H", 0.0, 0.3, 3),
            design["cavity"], design["polarizer"], zeta_V=0.08)
        assert np.isnan(res.values[2]).all()  # T_V = 1.0 row
        assert np.isfinite(res.values[0]).all()

    def test_design_point_argmax(self, design):
        tv_ax, rh_ax = default_pdr_axes()
        res = ps.sweep_fidelity_pdr(tv_ax, rh_ax, design["cavity"],
                                    design["polarizer"])
        i, j = np.unravel_index(np.nanargmax(res.values), res.values.shape)
        tv_star = res.axes[0][1][i]
        rh_star = res.axes[1][1][j]
        assert abs(tv_star - 0.99) <= 0.011
        assert abs(rh_star - 0.15) <= 0.02
        assert np.nanmax(res.values) >= 0.999

    def test_cell_purity(self, design):
        # a cell value must not depend on the rest of the grid
        tv_ax = SweepAxis("pdr.T_V", 0.9, 1.0, 5)
        rh_ax = SweepAxis("pdr.R_H", 0.1, 0.2, 5)
        res = ps.sweep_fidelity_pdr(tv_ax, rh_ax, design["cavity"],
                                    design["polarizer"])
        pdr = ps.PdrParams.from_power(T_V=res.axes[0][1][2],
                                      R_H=res.axes[1][1][3])
        direct = ps.transfer_fidelity(pdr, design["polarizer"],
                                      design["cavity"]).f_avg
        assert res.values[2, 3] == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("sign", [0.5, 0.0, -2.0, float("nan")])
    def test_reflection_sign_must_be_unit(self, design, monkeypatch, sign):
        with pytest.raises(ps.ValidationError, match="reflection_sign"):
            ps.PdrParams.from_power(T_V=0.99, R_H=0.15, reflection_sign=sign)

        def no_cells(*args, **kwargs):
            raise AssertionError("a cell was evaluated")

        monkeypatch.setattr(ps.sweep, "_fidelity_cells", no_cells)
        with pytest.raises(ps.ValidationError, match="reflection_sign"):
            ps.sweep_fidelity_pdr(*default_pdr_axes(), design["cavity"],
                                  design["polarizer"], reflection_sign=sign)


class TestFidelityCavitySweep:
    def test_cooperativity_argmax_near_design(self, design):
        res = ps.sweep_fidelity_cavity(
            default_cooperativity_axis(), design["pdr"], design["polarizer"],
            design["cavity"], which="cooperativity")
        c_star = res.axes[0][1][np.nanargmax(res.values)]
        assert abs(c_star - 4.0) / 4.0 <= 0.1

    def test_coupling_argmax_near_design(self, design):
        res = ps.sweep_fidelity_cavity(
            default_coupling_axis(), design["pdr"], design["polarizer"],
            design["cavity"], which="coupling")
        k_star = res.axes[0][1][np.nanargmax(res.values)]
        assert abs(k_star - 0.73) <= 0.02

    def test_unknown_target_rejected(self, design):
        with pytest.raises(ps.ValidationError):
            ps.sweep_fidelity_cavity(default_cooperativity_axis(),
                                     design["pdr"], design["polarizer"],
                                     design["cavity"], which="detuning")


class TestCavitySweepKeepsBaseCavity:
    # detuned, with kappa and gamma away from 1
    BASE = ps.CavityParams(kappa=2.0, kappa_wg=1.46, gamma=0.8, g=0.9,
                           delta_c=0.3, delta_a=0.5)

    @pytest.mark.parametrize("which,axis", [
        ("cooperativity", SweepAxis("cavity.cooperativity", BASE.cooperativity,
                                    2 * BASE.cooperativity, 3)),
        ("coupling", SweepAxis("cavity.coupling_ratio", BASE.kappa_wg / BASE.kappa, 1.0, 3)),
    ])
    def test_base_value_cell_equals_direct(self, design, which, axis):
        res = ps.sweep_fidelity_cavity(axis, design["pdr"], design["polarizer"],
                                       self.BASE, which=which)
        direct = ps.transfer_fidelity(design["pdr"], design["polarizer"], self.BASE).f_avg
        assert abs(res.values[0] - direct) <= 1e-12

    def test_atom_detuning_is_not_dropped(self, design):
        base = design["cavity"].replace(delta_a=0.5)
        res = ps.sweep_fidelity_cavity(SweepAxis("cavity.cooperativity", 4.0, 8.0, 2),
                                       design["pdr"], design["polarizer"], base)
        direct = ps.transfer_fidelity(design["pdr"], design["polarizer"], base).f_avg
        assert direct < 0.99
        assert abs(res.values[0] - direct) <= 1e-12


class TestNanReasons:
    def test_design_map_nan_cells_are_non_passive(self, design):
        res = ps.sweep_fidelity_pdr(*default_pdr_axes(), design["cavity"],
                                    design["polarizer"])
        reasons = res.metadata["nan_reasons"]
        assert list(reasons) == list(NAN_REASONS)
        assert reasons["non_passive_etalon"] == np.isnan(res.values).sum() > 0
        assert sum(reasons.values()) == reasons["non_passive_etalon"]

    def test_first_failing_check_names_the_cell(self, design):
        res = ps.sweep_fidelity_pdr(
            SweepAxis("pdr.T_V", 0.90, 1.1, 5), SweepAxis("pdr.R_H", -0.1, 0.3, 5),
            design["cavity"], design["polarizer"], zeta_V=0.08)
        reasons = res.metadata["nan_reasons"]
        # T_V = 1.05, 1.1 and R_H = -0.1 are out of range: 2 * 5 + 3 cells;
        # T_V = 0.95, 1.0 leave R_V < 0: 2 * 4 more
        assert reasons["pdr_range"] == 13
        assert reasons["pdr_complement"] == 8
        assert sum(reasons.values()) == np.isnan(res.values).sum()

    def test_coupling_outside_unit_interval(self, design):
        res = ps.sweep_fidelity_cavity(SweepAxis("cavity.coupling_ratio", -0.5, 1.5, 5),
                                       design["pdr"], design["polarizer"],
                                       design["cavity"], which="coupling")
        assert res.metadata["nan_reasons"]["cavity_range"] == 2
        assert np.isnan(res.values[[0, 4]]).all()


def test_opaque_device_raises_in_sweep_and_scalar_path():
    # critically coupled bare cavity (C = 0) absorbs V, the polarizer blocks H
    pdr = ps.PdrParams.from_power(T_V=1.0, R_H=0.0)
    pol = ps.PolarizerParams(eta_pol_V=1.0, eta_pol_H=0.0)
    cav = ps.CavityParams(kappa=1.0, kappa_wg=0.5, gamma=1.0, g=0.0)
    with pytest.raises(ps.OpaqueDeviceError, match=r"^device opaque for input x\+$"):
        ps.transfer_fidelity(pdr, pol, cav)
    with pytest.raises(ps.OpaqueDeviceError):
        ps.sweep_fidelity_cavity(SweepAxis("cavity.cooperativity", 0.0, 1.0, 2),
                                 pdr, pol, cav)


def _assert_sweep_matches_scalar(run_sweep, build, xs):
    """run_sweep() must give, per cell, transfer_fidelity of the scalar
    inputs build(x) to 1e-12, and NaN exactly where building them or the
    call raises ValidationError. Where the scalar path finds an opaque
    device, the sweep must raise OpaqueDeviceError too."""
    scalar = []
    for x in xs:
        try:
            pdr, pol, cav, r_cav_h = build(x)
            scalar.append(ps.transfer_fidelity(pdr, pol, cav, r_cav_h=r_cav_h).f_avg)
        except ps.ValidationError:
            scalar.append(math.nan)
        except ps.OpaqueDeviceError:
            with pytest.raises(ps.OpaqueDeviceError):
                run_sweep()
            return
    res = run_sweep()
    values = res.values
    scalar = np.asarray(scalar).reshape(values.shape)
    assert np.array_equal(np.isnan(values), np.isnan(scalar))
    both = ~np.isnan(scalar)
    assert np.all(np.abs(values[both] - scalar[both]) <= 1e-12)
    assert sum(res.metadata["nan_reasons"].values()) == np.isnan(values).sum()


def _axis(path, lo, hi, max_span):
    return st.builds(lambda a, span, n: SweepAxis(path, a, a + span, n),
                     st.floats(lo, hi), st.floats(1e-3, max_span), st.integers(2, 6))


# both sides of the non-passive band that starts near kappa_wg/kappa = 0.93
_coupling = st.one_of(st.floats(0.05, 0.93), st.floats(0.93, 1.0))
_cavities = st.builds(
    lambda kappa, ratio, gamma, c, dc, da: ps.CavityParams(
        kappa, ratio * kappa, gamma, math.sqrt(c * kappa * gamma / 4), dc, da),
    st.floats(0.5, 2.0), _coupling, st.floats(0.5, 2.0), st.floats(0.5, 20.0),
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
_polarizers = st.builds(lambda v, h: ps.PolarizerParams(v, h * v),
                        st.floats(0.8, 1.0), st.floats(0.0, 1.0))
_r_cav_h = st.sampled_from([ps.params.DESIGN_R_CAV_H, complex(0.6, -0.7), -1.0])


class TestKernelMatchesScalarPath:
    """Each sweep cell equals the scalar transfer_fidelity to 1e-12 and is
    NaN exactly where the scalar path raises ValidationError."""

    @given(tv=_axis("pdr.T_V", 0.3, 1.0, 0.3), rh=_axis("pdr.R_H", -0.05, 0.7, 0.5),
           zeta_V=st.floats(-0.02, 0.1), zeta_H=st.floats(-0.02, 0.1),
           sign=st.sampled_from([-1.0, 1.0]), cav=_cavities, pol=_polarizers,
           r_cav_h=_r_cav_h)
    @settings(max_examples=150, deadline=None)
    def test_pdr_grid(self, tv, rh, zeta_V, zeta_H, sign, cav, pol, r_cav_h):
        def build(cell):
            pdr = ps.PdrParams.from_power(*cell, zeta_V, zeta_H, reflection_sign=sign)
            return pdr, pol, cav, r_cav_h

        _assert_sweep_matches_scalar(
            lambda: ps.sweep_fidelity_pdr(tv, rh, cav, pol, zeta_V=zeta_V, zeta_H=zeta_H,
                                          r_cav_h=r_cav_h, reflection_sign=sign),
            build, [(t, r) for t in tv.values() for r in rh.values()])

    @given(axis=_axis("cavity.cooperativity", -1.0, 20.0, 10.0), cav=_cavities,
           pol=_polarizers, r_cav_h=_r_cav_h, tv=st.floats(0.5, 1.0),
           rh=st.floats(0.0, 0.6), sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_cooperativity_axis(self, axis, cav, pol, r_cav_h, tv, rh, sign):
        pdr = ps.PdrParams.from_power(tv, rh, reflection_sign=sign)

        def build(c):
            if not c >= 0:
                raise ps.ValidationError("cooperativity must be >= 0")
            g = math.sqrt(c * cav.kappa * cav.gamma / 4.0)
            return pdr, pol, cav.replace(g=g), r_cav_h

        _assert_sweep_matches_scalar(
            lambda: ps.sweep_fidelity_cavity(axis, pdr, pol, cav, "cooperativity", r_cav_h),
            build, axis.values())

    @given(axis=_axis("cavity.coupling_ratio", -0.1, 1.0, 0.3), cav=_cavities,
           pol=_polarizers, r_cav_h=_r_cav_h, tv=st.floats(0.5, 1.0),
           rh=st.floats(0.0, 0.6), sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_coupling_axis(self, axis, cav, pol, r_cav_h, tv, rh, sign):
        pdr = ps.PdrParams.from_power(tv, rh, reflection_sign=sign)
        _assert_sweep_matches_scalar(
            lambda: ps.sweep_fidelity_cavity(axis, pdr, pol, cav, "coupling", r_cav_h),
            lambda x: (pdr, pol, cav.replace(kappa_wg=x * cav.kappa), r_cav_h),
            axis.values())


def _flat_pdr_map(tv, rh, cav, pol, zeta_V, zeta_H, r_cav_h, sign):
    """The pdr map as one device-kernel call on flattened per-cell arrays:
    every cell's PdrParams.from_power inputs and checks built for that cell
    alone, the checks applied in NAN_REASONS order. Returns the values and
    the NaN count per reason."""
    T_V, R_H = (a.ravel() for a in np.meshgrid(tv, rh, indexing="ij"))
    R_V = 1.0 - T_V - zeta_V
    T_H = 1.0 - R_H - zeta_H
    t_H = np.sqrt(np.maximum(T_H, 0.0))
    r_H = sign * np.sqrt(np.maximum(R_H, 0.0))
    t_V = np.sqrt(np.maximum(T_V, 0.0))
    r_V = sign * np.sqrt(np.maximum(R_V, 0.0))
    with np.errstate(invalid="ignore"):
        k = fidelity_kernel(SimpleNamespace(t_H=t_H, r_H=r_H, t_V=t_V, r_V=r_V), pol, cav, r_cav_h)
    limit = 1.0 + POWER_TOL
    checks = [
        ("pdr_range", ~((0 <= T_V) & (T_V <= 1) & (0 <= R_H) & (R_H <= 1))),
        ("pdr_complement", ~((R_V >= -POWER_TOL) & (T_H >= -POWER_TOL))),
        ("pdr_power_sum", ~((t_H**2 + r_H**2 <= limit) & (t_V**2 + r_V**2 <= limit))),
        ("degenerate_etalon", k.degenerate),
        ("non_passive_etalon", k.non_passive),
    ]
    reasons = dict.fromkeys(NAN_REASONS, 0)
    rejected = np.zeros(T_V.size, dtype=bool)
    for reason, bad in checks:
        reasons[reason] += int(np.count_nonzero(bad & ~rejected))
        rejected |= bad
    assert not np.any(k.opaque & ~rejected)
    return np.where(rejected, np.nan, k.f_avg).reshape(tv.size, rh.size), reasons


class TestBroadcastMatchesFlatKernel:
    """The pdr sweep builds each T_V row's and each R_H column's inputs once
    and broadcasts them in the kernel; its map must equal the kernel on
    flattened per-cell inputs bit for bit, with the same nan_reasons."""

    DETUNED = {"delta_c": 0.1, "delta_a": -0.05}
    # (T_V axis, R_H axis, zeta_V, zeta_H, r_cav_h, reflection_sign, cavity
    # changes, the reasons that occur)
    GRIDS = {
        "default": (*default_pdr_axes(), 0.0, 0.0, DESIGN_R_CAV_H, -1.0, {},
                    {"non_passive_etalon"}),
        # one grid row is longer than a block
        "long rows": (SweepAxis("pdr.T_V", 0.5, 1.0, 3), SweepAxis("pdr.R_H", 0.0, 0.6, 5001),
                      0.0, 0.0, DESIGN_R_CAV_H, -1.0, {}, {"non_passive_etalon"}),
        # out-of-range axes and losses on both sides; r_cav_h = 2 amplifies, and
        # r_cav_h r_H = 1 exactly at R_H = 0.25 makes that column's etalon degenerate
        "lossy, + sign": (SweepAxis("pdr.T_V", 0.5, 1.1, 13), SweepAxis("pdr.R_H", -0.25, 1.25, 7),
                          0.005, 0.01, 2.0, 1.0, DETUNED,
                          {"pdr_range", "pdr_complement", "degenerate_etalon",
                           "non_passive_etalon"}),
        # a gain zeta_H < 0 lifts every T_H + R_H above 1: the power-sum check
        # rejects every cell the range and complement checks let through, so no
        # grid at fixed zeta shows it next to the etalon reasons
        "gain": (SweepAxis("pdr.T_V", 0.5, 1.1, 13), SweepAxis("pdr.R_H", -0.25, 1.25, 7),
                 0.005, -0.01, complex(-0.9, 0.2), 1.0, DETUNED,
                 {"pdr_range", "pdr_complement", "pdr_power_sum"}),
    }

    @pytest.mark.parametrize("grid", list(GRIDS))
    def test_map_equals_flat_kernel(self, design, monkeypatch, grid):
        tv, rh, zeta_V, zeta_H, r_cav_h, sign, changes, occurring = self.GRIDS[grid]
        cav = design["cavity"].replace(**changes)
        blocks = []

        def recording_kernel(*inputs):
            k = fidelity_kernel(*inputs)
            blocks.append(k.f_avg.shape)
            return k

        monkeypatch.setattr(ps.sweep, "fidelity_kernel", recording_kernel)
        res = ps.sweep_fidelity_pdr(tv, rh, cav, design["polarizer"], zeta_V=zeta_V,
                                    zeta_H=zeta_H, r_cav_h=r_cav_h, reflection_sign=sign)
        values, reasons = _flat_pdr_map(tv.values(), rh.values(), cav, design["polarizer"],
                                        zeta_V, zeta_H, r_cav_h, sign)
        assert res.values.tobytes() == values.tobytes()
        assert res.metadata["nan_reasons"] == reasons
        assert {reason for reason, n in reasons.items() if n} == occurring
        # whole grid rows per block, a row longer than a block in parts
        assert max(rows * cols for rows, cols in blocks) <= ps.sweep._BLOCK_CELLS
        assert sum(rows * cols for rows, cols in blocks) == values.size
        whole_rows = rh.num <= ps.sweep._BLOCK_CELLS
        assert all(cols == rh.num if whole_rows else rows == 1 for rows, cols in blocks)


class TestAxisPaths:
    """A sweep refuses an axis labelled as a quantity other than the one it
    varies, rather than label its result with the wrong path."""

    @pytest.mark.parametrize("which,axis", [
        ("cooperativity", default_coupling_axis()),
        ("coupling", default_cooperativity_axis()),
        ("cooperativity", SweepAxis("cavity.g", 0.5, 2.0, 3)),
    ])
    def test_cavity_axis_must_be_the_target(self, design, which, axis):
        with pytest.raises(ps.ValidationError, match=rf"^axis {axis.path} cannot be swept as "):
            ps.sweep_fidelity_cavity(axis, design["pdr"], design["polarizer"],
                                     design["cavity"], which=which)

    def test_pdr_axes_must_be_T_V_then_R_H(self, design):
        tv, rh = default_pdr_axes()
        for axes, message in [((rh, tv), "axis pdr.R_H cannot be swept as pdr.T_V"),
                              ((tv, tv), "axis pdr.T_V cannot be swept as pdr.R_H"),
                              ((tv, SweepAxis("pdr.R_V", 0.0, 0.6, 5)),
                               "axis pdr.R_V cannot be swept as pdr.R_H")]:
            with pytest.raises(ps.ValidationError) as exc:
                ps.sweep_fidelity_pdr(*axes, design["cavity"], design["polarizer"])
            assert str(exc.value) == message


@pytest.fixture(scope="module")
def curves(design):
    return ps.sweep_rate_vs_loss(
        SweepAxis("loss_db", 0.0, 60.0, 25, spacing="db"),
        design["pdr"], design["polarizer"], design["cavity"],
        ps.design_link(1.0), design["timing"])


class TestRateVsLoss:
    def test_one_curve_per_constraint(self, curves):
        assert set(curves) == {0.95, 0.97, 0.98, 0.99}

    def test_rate_decreases_with_loss(self, curves):
        # jumps in n_max make the low-loss regimes locally non-monotone, but
        # within the attempt-dominated regime the rate falls strictly
        for res in curves.values():
            in_r3 = res.columns["regime"] == 3
            vals = res.values[in_r3 & np.isfinite(res.values)]
            assert vals.size > 2
            assert np.all(np.diff(vals) < 0)
            finite = res.values[np.isfinite(res.values)]
            assert finite[-1] < finite[0]

    def test_tighter_constraint_never_faster(self, curves):
        lo = curves[0.95].values
        hi = curves[0.99].values
        both = np.isfinite(lo) & np.isfinite(hi)
        assert np.all(hi[both] <= lo[both] + 1e-12)

    def test_bound_column_matches_direct(self, curves, design):
        res = curves[0.95]
        db = res.axes[0][1][10]
        eta = 10 ** (-db / 10)
        assert res.columns["bound"][10] == pytest.approx(
            ps.repeaterless_bound(eta, design["timing"]), rel=1e-12)

    def test_regimes_contiguous_and_ordered(self, curves):
        for res in curves.values():
            regime = res.columns["regime"]
            finite = regime[np.isfinite(regime)]
            # error channel weakens with loss, so n_max only grows:
            # regime 1 -> 2 -> 3 with no back-tracking
            assert np.all(np.diff(finite) >= 0)
            assert set(np.unique(finite)) <= {1.0, 2.0, 3.0}

    def test_infeasible_constraint_tags_nan(self, design):
        # target above the device fidelity is infeasible at every loss
        out = ps.sweep_rate_vs_loss(
            SweepAxis("loss_db", 0.0, 10.0, 3, spacing="db"),
            design["pdr"], design["polarizer"], design["cavity"],
            ps.design_link(1.0), design["timing"], constraints=(0.99999,))
        assert np.isnan(out[0.99999].values).all()
        # bound column is still populated (infinite at zero loss)
        assert not np.isnan(out[0.99999].columns["bound"]).any()
        assert np.isfinite(out[0.99999].columns["bound"][1:]).all()

    @pytest.mark.parametrize("constraint", [math.nan, 1.5])
    def test_constraint_outside_unit_interval_is_refused(self, design, constraint):
        # a NaN constraint once gave n_max 1 at every loss
        with pytest.raises(ps.ValidationError) as exc:
            ps.sweep_rate_vs_loss(
                SweepAxis("loss_db", 0.0, 10.0, 3, spacing="db"),
                design["pdr"], design["polarizer"], design["cavity"],
                ps.design_link(1.0), design["timing"], constraints=(0.95, constraint))
        assert str(exc.value) == f"constraint out of [0,1]: {constraint}"

    def test_mc_columns_present_and_close(self, design):
        out = ps.sweep_rate_vs_loss(
            SweepAxis("loss_db", 10.0, 20.0, 2, spacing="db"),
            design["pdr"], design["polarizer"], design["cavity"],
            ps.design_link(1.0), design["timing"], constraints=(0.95,),
            mc=ps.McConfig(trials=2000, seed=11))
        res = out[0.95]
        assert "mc_rate" in res.columns and "mc_std_error" in res.columns
        rel = np.abs(res.columns["mc_rate"] - res.values) / res.values
        assert np.all(rel <= 0.05)

    def test_infeasible_cells_are_counted(self, design):
        out = ps.sweep_rate_vs_loss(
            SweepAxis("loss_db", 0.0, 10.0, 3, spacing="db"),
            design["pdr"], design["polarizer"], design["cavity"],
            ps.design_link(1.0), design["timing"], constraints=(0.95, 0.99999))
        assert out[0.99999].metadata["nan_reasons"] == {
            "infeasible_target": 3, "attempt_cap": 0}
        assert out[0.95].metadata["nan_reasons"] == {
            "infeasible_target": 0, "attempt_cap": 0}

    def test_cells_past_the_cap_are_nan_and_counted(self, design):
        # 2**53 attempts hold F >= 0.95 to about 157 dB and F >= 0.99 to
        # about 161 dB; 170 dB is past the cap for both
        out = ps.sweep_rate_vs_loss(
            SweepAxis("loss_db", 150.0, 170.0, 3, spacing="db"),
            design["pdr"], design["polarizer"], design["cavity"],
            ps.design_link(1.0), design["timing"], constraints=(0.95, 0.99))
        for f_target, capped in ((0.95, [False, True, True]),
                                 (0.99, [False, False, True])):
            res = out[f_target]
            for col in (res.values, res.columns["n_max"], res.columns["regime"]):
                assert np.isnan(col).tolist() == capped
            assert res.metadata["nan_reasons"] == {
                "infeasible_target": 0, "attempt_cap": sum(capped)}
            assert np.isfinite(res.columns["bound"]).all()
            for db, cap in zip(res.axes[0][1], capped):
                scalar = ps.transfer_rate(
                    design["pdr"], design["polarizer"], design["cavity"],
                    ps.design_link(10 ** (-db / 10)), design["timing"], f_target)
                assert scalar.cap_reached == cap

    def test_every_nan_cell_past_3000_db_is_counted(self, design):
        # past about 3080 dB 1 / (p_det + p_e) overflows, yet 2**53 attempts
        # still meet every target; at 3300 dB eta_link rounds to 0, where
        # nothing clicks: rate 0 and an unbounded n_max, as in transfer_rate
        out = ps.sweep_rate_vs_loss(
            SweepAxis("loss_db", 3000.0, 3300.0, 4, spacing="db"),
            design["pdr"], design["polarizer"], design["cavity"],
            ps.design_link(1.0), design["timing"])
        for f_target, res in out.items():
            assert np.isnan(res.values).tolist() == [True, True, True, False]
            assert sum(res.metadata["nan_reasons"].values()) == 3
            assert res.metadata["nan_reasons"]["attempt_cap"] == 3
            assert (res.values[-1], res.columns["n_max"][-1]) == (0.0, 2.0**53)
            for db, capped in zip(res.axes[0][1], np.isnan(res.values)):
                scalar = ps.transfer_rate(
                    design["pdr"], design["polarizer"], design["cavity"],
                    ps.design_link(float(10.0 ** (-db / 10.0))), design["timing"], f_target)
                assert scalar.cap_reached == capped

    def test_dark_link_cell_matches_transfer_rate(self, design):
        f0 = ps.transfer_fidelity(design["pdr"], design["polarizer"], design["cavity"]).f_avg
        curves = rate_curves(design["pdr"], design["polarizer"], ps.design_link(1.0),
                             design["timing"], np.array([0.0]), f0, (0.95, 0.99))
        for i, f_target in enumerate((0.95, 0.99)):
            scalar = ps.transfer_rate(design["pdr"], design["polarizer"], design["cavity"],
                                      ps.design_link(0.0), design["timing"], f_target)
            assert scalar.unbounded
            assert (curves.n_max[i, 0], curves.rate[i, 0], curves.regime[i, 0]) \
                == (scalar.n_max, scalar.rate, scalar.regime)
            assert (curves.cap_reached[i, 0], curves.infeasible[i, 0]) \
                == (scalar.cap_reached, False)

    def test_unbounded_cells_keep_the_cap(self, design):
        # F <= 1/2 never binds: every sequence length meets it
        res = ps.sweep_rate_vs_loss(
            SweepAxis("loss_db", 0.0, 60.0, 4, spacing="db"),
            design["pdr"], design["polarizer"], design["cavity"],
            ps.design_link(1.0), design["timing"], constraints=(0.5,))[0.5]
        assert (res.columns["n_max"] == 2.0**53).all()
        assert np.isfinite(res.values).all()
        scalar = ps.transfer_rate(design["pdr"], design["polarizer"], design["cavity"],
                                  ps.design_link(1e-2), design["timing"], 0.5)
        assert scalar.unbounded and scalar.rate == res.values[1]

    def test_columns_equal_per_point_transfer_rate(self, design):
        """One rate kernel serves both paths. numpy's exp and log differ from
        the C library's in the last bit now and then, and n_max is still the
        same: where the double cannot order p_err(n) and p_err(n + 1)
        against the error budget, the exact test decides on both paths."""
        out = ps.sweep_rate_vs_loss(
            SweepAxis("loss_db", 0.0, 150.0, 301, spacing="db"),
            design["pdr"], design["polarizer"], design["cavity"],
            ps.design_link(1.0), design["timing"])
        for f_target, res in out.items():
            for i, db in enumerate(res.axes[0][1]):
                eta = float(10.0 ** (-db / 10.0))  # as the sweep computes it
                scalar = ps.transfer_rate(
                    design["pdr"], design["polarizer"], design["cavity"],
                    ps.design_link(eta), design["timing"], f_target)
                assert res.columns["n_max"][i] == scalar.n_max
                assert res.values[i] == pytest.approx(scalar.rate, rel=1e-13)
                assert res.columns["regime"][i] == scalar.regime
                assert res.columns["bound"][i] == pytest.approx(
                    ps.repeaterless_bound(eta, design["timing"]), rel=1e-15)

    @pytest.mark.parametrize("mc", [None, ps.McConfig(trials=2, seed=5)],
                             ids=["analytic", "mc"])
    @pytest.mark.parametrize("xi,n_max_30_db", [(0.01, 1918)], ids=["xi"])
    def test_link_and_correction_as_transfer_rate(self, design, mc, xi, n_max_30_db):
        """The sweep reads the link as given, xi included, as transfer_rate
        does at each loss; so do its Monte Carlo columns."""
        link = ps.design_link(1.0).replace(xi=xi)
        out = ps.sweep_rate_vs_loss(
            SweepAxis("loss_db", 10.0, 30.0, 3, spacing="db"),
            design["pdr"], design["polarizer"], design["cavity"], link,
            design["timing"], constraints=(0.95, 0.99), mc=mc)
        for f_target, res in out.items():
            for i, db in enumerate(res.axes[0][1]):
                at = link.replace(eta_link=float(10.0 ** (-db / 10.0)))
                scalar = ps.transfer_rate(
                    design["pdr"], design["polarizer"], design["cavity"], at,
                    design["timing"], f_target)
                assert res.columns["n_max"][i] == scalar.n_max
                assert res.values[i] == pytest.approx(scalar.rate, rel=1e-13)
                if mc is not None:
                    est = ps.simulate_rate(
                        ps.attempt_probabilities(design["pdr"], design["polarizer"], at),
                        scalar.n_max, design["timing"],
                        mc.replace(seed=mc.seed + i))
                    assert res.columns["mc_rate"][i] == est.mean_rate
                    assert res.columns["mc_std_error"][i] == est.std_error
        assert out[0.95].columns["n_max"][-1] == n_max_30_db

    def test_loss_below_0_db_is_refused(self, design):
        # a loss below 0 dB makes eta_link > 1, where p_lost is no probability
        with pytest.raises(ps.ValidationError, match="eta_link out of"):
            ps.sweep_rate_vs_loss(
                SweepAxis("loss_db", -3.0, 0.0, 4, spacing="db"),
                design["pdr"], design["polarizer"], design["cavity"],
                ps.design_link(1.0), design["timing"])

    @pytest.mark.parametrize("eta", [1.5, -0.1, math.nan])
    def test_rate_curves_refuse_eta_outside_unit_interval(self, design, eta):
        with pytest.raises(ps.ValidationError, match="eta_link out of"):
            rate_curves(design["pdr"], design["polarizer"], ps.design_link(1.0),
                        design["timing"], np.array([0.5, eta, 0.1]), 0.98, (0.95,))

    def test_default_loss_axis_grid(self):
        ax = default_loss_axis()
        vals = ax.values()
        assert vals[0] == 0.0 and vals[-1] == 60.0 and vals.size == 121

    def test_metadata_carries_provenance(self, curves):
        meta = curves[0.97].metadata
        assert meta["f_target"] == 0.97
        assert meta["cavity"]["g"] == pytest.approx(ps.design_cavity().g)
