"""Acceptance gate: the ten headline results, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py -s` to see the summary lines.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from cvsteer.channels import ChannelSide, ChannelSpec, apply_laser, thermal_preset
from cvsteer.cli import _preset_rows
from cvsteer.criteria import (
    Criterion,
    SteeringDirection,
    is_steerable,
    reid_product,
)
from cvsteer.measures import (
    _closed_form,
    gaussian_steerability,
    inseparability_threshold,
    log_negativity,
    numeric_threshold,
    one_side_thresholds,
    two_way_laser_threshold,
)
from cvsteer.states import make_tmsv
from cvsteer.verify import random_physical_state, run_suites

AB = SteeringDirection.A_TO_B
BA = SteeringDirection.B_TO_A


def report(line):
    print(f"\nACCEPTANCE {line}")


def test_01_tmsv_reid_product_closed_form():
    worst = 0.0
    for r in (0.1, 0.5, 1.0, 2.0):
        expected = 1.0 / (4.0 * math.cosh(2.0 * r) ** 2)
        for direction in (AB, BA):
            worst = max(worst, abs(reid_product(make_tmsv(r), direction) - expected))
    assert worst < 1e-12
    report(f"1: TMSV Reid product matches 1/(4 cosh^2 2r), max dev {worst:.2e} < 1e-12 ... PASS")


def test_02_criterion_equivalence():
    rng = np.random.default_rng(20250823)
    disagreements = 0
    for _ in range(1000):
        state = random_physical_state(rng)
        for direction in (AB, BA):
            reid_verdict, _ = is_steerable(state, direction, Criterion.REID)
            entropic_verdict, _ = is_steerable(state, direction, Criterion.ENTROPIC)
            disagreements += reid_verdict != entropic_verdict
    assert disagreements == 0

    # On the decohered family, both criterion boundaries must land where the
    # covariance entries solve B^2 - C^2 = B.
    from cvsteer.criteria import ENTROPIC_BOUND, REID_BOUND, entropic_sum

    worst = 0.0
    for g, kappa, r in ((0.0, 1.0, 0.5), (1.0, 0.0, 0.5), (1.0, 2.0, 0.88)):
        spec = ChannelSpec(kind="laser", side=ChannelSide.BOTH, g=g, kappa=kappa)
        tmsv = make_tmsv(r)

        def reid_margin(t):
            return reid_product(spec.evolve(tmsv, t), AB) - REID_BOUND

        def entropic_margin(t):
            return entropic_sum(spec.evolve(tmsv, t), AB) - ENTROPIC_BOUND

        for margin in (reid_margin, entropic_margin):
            t_star = brentq(margin, 1e-9, 5.0, xtol=1e-14)
            params = spec.laser_params(t_star)
            b = params.noise + params.survival * math.cosh(2 * r)
            c = params.survival * math.sinh(2 * r)
            worst = max(worst, abs(b * b - c * c - b))
    assert worst < 1e-9
    report(
        "2: Reid and entropic verdicts agree on 1000 random states; "
        f"both boundaries solve B^2-C^2=B, max residual {worst:.2e} < 1e-9 ... PASS"
    )


def test_03_loss_thresholds():
    half_log2 = 0.5 * math.log(2.0)
    worst = 0.0
    for r in (0.1, 0.3, 0.5, 1.0, 2.0):
        two_way = two_way_laser_threshold(0.0, 1.0, r)
        t_ab, t_ba = one_side_thresholds(0.0, 1.0, r)
        worst = max(worst, abs(two_way.t_numeric - half_log2), abs(t_ba.t_numeric - half_log2))
        assert math.isinf(t_ab.t_closed) and math.isinf(t_ab.t_numeric)
        late = ChannelSpec(kind="loss", side=ChannelSide.B).evolve(make_tmsv(r), 10.0)
        assert gaussian_steerability(late, AB) > 0.0
    assert worst < 1e-8
    report(
        "3: loss thresholds: two-way and one-side B->A both (1/2)ln2, "
        f"max dev {worst:.2e} < 1e-8; A->B survives to kt=10 ... PASS"
    )


def test_04_gain_thresholds():
    bound = 0.5 * math.log(1.5)
    worst_two, worst_one = 0.0, 0.0
    for r in (0.1, 0.3, 0.5, 1.0, 2.0):
        two_way = two_way_laser_threshold(1.0, 0.0, r)
        worst_two = max(worst_two, two_way.agreement)
        assert 0.0 < two_way.t_closed < bound
        t_ab, t_ba = one_side_thresholds(1.0, 0.0, r)
        expected = 0.5 * math.log(2.0 - 1.0 / math.cosh(r) ** 2)
        worst_one = max(worst_one, abs(t_ab.t_closed - expected), t_ab.agreement)
        assert math.isinf(t_ba.t_closed) and math.isinf(t_ba.t_numeric)
        late = ChannelSpec(kind="gain", side=ChannelSide.B).evolve(make_tmsv(r), 10.0)
        assert gaussian_steerability(late, BA) > 0.0
    assert worst_two < 1e-8 and worst_one < 1e-8
    report(
        "4: gain thresholds: two-way closed form (bounded by (1/2)ln(3/2)) dev "
        f"{worst_two:.2e}; one-side A->B = (1/2)ln(2-sech^2 r) dev {worst_one:.2e}; "
        "both < 1e-8; B->A survives to gt=10 ... PASS"
    )


def test_05_thermal_balance_point():
    worst = 0.0
    for r in (0.3, 0.6, 1.0):
        nbar = math.sinh(r) ** 2
        rates = thermal_preset(1.0, nbar, 0.0)
        t_ab, t_ba = one_side_thresholds(rates.g, rates.kappa, r)
        worst = max(worst, abs(t_ab.t_closed - t_ba.t_closed), abs(t_ab.t_numeric - t_ba.t_numeric))
    assert worst < 1e-8

    # The long-format surface data shows the same crossing: for each r column
    # the two one-side surfaces meet nearest to nbar = sinh^2 r.
    columns, rows = _preset_rows("1")
    rows = np.array(rows)
    nbar_grid = np.unique(rows[:, 0])
    spacing = nbar_grid[1] - nbar_grid[0]
    tested = 0
    for r in np.unique(rows[:, 1]):
        target = math.sinh(r) ** 2
        if not (nbar_grid[0] + spacing <= target <= nbar_grid[-1] - spacing):
            continue
        r_col = rows[rows[:, 1] == r]
        gap = np.abs(r_col[:, 2] - r_col[:, 3])
        crossing = r_col[np.argmin(gap), 0]
        assert abs(crossing - target) <= spacing
        tested += 1
    assert tested >= 5
    report(
        "5: thermal balance point nbar = sinh^2 r: one-side thresholds agree, "
        f"max dev {worst:.2e} < 1e-8; surface data reproduces the crossing ... PASS"
    )


def test_06_steerability_chains():
    # Gain channel at matched gt: B->A > A->B > two-way, pointwise.
    r = 0.5
    threshold = two_way_laser_threshold(1.0, 0.0, r).t_closed
    one = ChannelSpec(kind="gain", side=ChannelSide.B)
    two = ChannelSpec(kind="gain", side=ChannelSide.BOTH)
    tmsv = make_tmsv(r)
    for gt in np.linspace(0.02, 0.98 * threshold, 25):
        s1, s2 = one.evolve(tmsv, gt), two.evolve(tmsv, gt)
        g1_ba = gaussian_steerability(s1, BA)
        g1_ab = gaussian_steerability(s1, AB)
        g2 = min(gaussian_steerability(s2, AB), gaussian_steerability(s2, BA))
        assert g1_ba > g1_ab > g2

    # Laser channel: threshold ordering t(B->A) > t(A->B) > t(two-way).
    # The B->A threshold depends only on the rates while the A->B one shrinks
    # with the gain share, consistent with the pure-gain limit where B->A
    # steering never dies but A->B does; the bisected thresholds confirm this
    # orientation of the chain.
    margins = []
    for gamma in (0.5, 1.0, 2.0):
        t_ab, t_ba = one_side_thresholds(gamma, 1.0, r)
        t_two = two_way_laser_threshold(gamma, 1.0, r).t_closed
        margins += [t_ba.t_closed - t_ab.t_closed, t_ab.t_closed - t_two]
    assert min(margins) > 1e-10
    report(
        "6: steerability chains hold pointwise (gain) and as threshold ordering "
        f"(laser, min margin {min(margins):.2e} > 1e-10) ... PASS"
    )


def test_07_entanglement_outlasts_steering():
    # Steerable always implies entangled on a broad grid of channel states.
    grid_states = []
    tmsv = make_tmsv(0.5)
    for kind, side in (("loss", ChannelSide.BOTH), ("gain", ChannelSide.B),
                       ("thermal", ChannelSide.BOTH), ("laser", ChannelSide.B)):
        spec = ChannelSpec(kind=kind, side=side, g=0.5, kappa=1.0, nbar=0.8)
        for t in np.linspace(0.0, 1.2, 13):
            grid_states.append(spec.evolve(tmsv, t))
    for state in grid_states:
        if gaussian_steerability(state, AB) > 0 or gaussian_steerability(state, BA) > 0:
            assert log_negativity(state) > 0

    # Inseparability thresholds sit beyond the steering thresholds.
    worst_closed, checks = math.inf, 0
    for g, kappa in ((0.5, 1.0), (1.0, 0.0), (1.0, 1.0)):
        for r in (0.3, 0.6, 1.0):
            for side in (ChannelSide.B, ChannelSide.BOTH):
                insep = inseparability_threshold(g, kappa, r, side)
                if side is ChannelSide.BOTH:
                    steer = two_way_laser_threshold(g, kappa, r).t_closed
                else:
                    t_ab, t_ba = one_side_thresholds(g, kappa, r)
                    steer = min(t_ab.t_closed, t_ba.t_closed)
                assert insep.t_closed > steer
                checks += 1

    # One-side sudden death ln(kappa/g)/(2(kappa-g)), independent of r.
    expected = math.log(2.0) / (2.0 * 0.5)
    devs = [
        abs(inseparability_threshold(0.5, 1.0, r, ChannelSide.B).t_numeric - expected)
        for r in (0.3, 0.6, 1.0)
    ]
    assert max(devs) < 1e-8
    report(
        f"7: steerable implies entangled on {len(grid_states)} grid states; "
        f"{checks} inseparability thresholds exceed steering thresholds; one-side "
        f"sudden death r-independent, max dev {max(devs):.2e} < 1e-8 ... PASS"
    )


def test_08_phase_sensitive_reductions():
    from cvsteer.channels import PhaseSensitiveParams, apply_phase_sensitive

    # m = 0 collapses to the thermal laser map.
    s = make_tmsv(0.7)
    worst = 0.0
    for side in ChannelSide:
        via_ps = apply_phase_sensitive(
            s, PhaseSensitiveParams(kappa=1.0, nbar=1.5, m=0.0, t=0.37), side
        )
        via_laser = apply_laser(s, thermal_preset(1.0, 1.5, 0.37), side)
        worst = max(worst, float(np.max(np.abs(via_ps.cm - via_laser.cm))))
    assert worst < 1e-12

    # A maximally squeezed bath (nbar=1, |m| = sqrt(2)) restores the noiseless
    # B->A steering and entanglement decay, but not the A->B one.
    r = 0.5
    noiseless = ChannelSpec(kind="loss", side=ChannelSide.B)
    squeezed = ChannelSpec(
        kind="phase-sensitive", side=ChannelSide.B, nbar=1.0, m=math.sqrt(2.0)
    )
    t_ba_clean = numeric_threshold(noiseless, r, "G_BtoA", t_max=20.0)
    t_ba_squeezed = numeric_threshold(squeezed, r, "G_BtoA", t_max=20.0)
    dev_ba = abs(t_ba_squeezed - t_ba_clean)
    assert dev_ba < 1e-6
    assert math.isinf(numeric_threshold(noiseless, r, "E_N", t_max=20.0))
    assert math.isinf(numeric_threshold(squeezed, r, "E_N", t_max=20.0))
    assert math.isinf(numeric_threshold(noiseless, r, "G_AtoB", t_max=20.0))
    t_ab_squeezed = numeric_threshold(squeezed, r, "G_AtoB", t_max=20.0)
    assert math.isfinite(t_ab_squeezed)
    report(
        f"8: m=0 reduction exact to {worst:.2e} < 1e-12; squeezed bath restores "
        f"B->A threshold (dev {dev_ba:.2e} < 1e-6) and E_N immortality, "
        "but not A->B ... PASS"
    )


def test_09_oracle_closure():
    results = run_suites("all")
    lines = []
    for res in results:
        assert res.passed, f"{res.name}: {res.max_deviation:.3e} >= {res.tolerance:.0e} ({res.worst_case})"
        lines.append(f"{res.name} {res.max_deviation:.1e}<{res.tolerance:.0e}")
    report("9: oracle closure, all suites pass: " + "; ".join(lines) + " ... PASS")


def test_10_figure_regeneration():
    # Fig 3 data: monotone two-way decay per gamma and crossings at the
    # closed-form threshold times.
    columns, rows = _preset_rows("3")
    rows = np.array(rows)
    kt_step = np.unique(rows[:, 0])[1]
    for gamma in (0.5, 1.0, 2.0):
        sub = rows[np.isclose(rows[:, 1], gamma)]
        g2 = sub[:, 4]
        assert np.all(np.diff(g2) <= 1e-12)
        dead = sub[g2 == 0.0, 0]
        t_two = _closed_form(ChannelSpec("laser", g=gamma, kappa=1.0), "two-way", 0.5)
        assert dead.size > 0 and abs(dead[0] - t_two) <= kt_step
        # Curve ordering: A->B outlives B->A outlives two-way.
        assert np.all(sub[:, 2] >= sub[:, 4] - 1e-12)
        assert np.all(sub[:, 3] >= sub[:, 4] - 1e-12)

    # Fig 2a/2b: monotone decay along each curve.
    for name, value_cols in (("2a", (3, 4, 5)), ("2b", (2, 3, 4))):
        cols, data = _preset_rows(name)
        data = np.array(data)
        keys = data[:, 1:value_cols[0]]
        for key in np.unique(keys, axis=0):
            sub = data[np.all(np.isclose(keys, key), axis=1)]
            for c in value_cols:
                assert np.all(np.diff(sub[:, c]) <= 1e-9)

    # Fig 4/5: decay of E_N with mixing, and fig 1 surface sanity.
    _, fig4 = _preset_rows("4")
    fig4 = np.array(fig4)
    for key in {(row[1], row[2]) for row in fig4}:
        sub = fig4[np.isclose(fig4[:, 1], key[0]) & np.isclose(fig4[:, 2], key[1])]
        assert np.all(np.diff(sub[:, 3]) <= 1e-9)
    _, fig5 = _preset_rows("5")
    assert len(fig5) > 0
    _, fig1 = _preset_rows("1")
    fig1 = np.array(fig1)
    finite = fig1[:, 2:][np.isfinite(fig1[:, 2:])]
    assert np.all(finite >= 1.0)
    report("10: figure presets regenerate with monotone decay, closed-form crossings and curve ordering ... PASS")
