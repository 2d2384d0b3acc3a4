"""A 150-digit reference for threshold rows, computed with mpmath.

Under the loss, gain, thermal and laser channels the TMSV keeps its standard
form: blocks a I, b I and c diag(1, -1) with

    a = keep_A cosh 2r + noise_A,   b = keep_B cosh 2r + noise_B,
    c = sqrt(keep_A keep_B) sinh 2r,

where a decohered mode keeps keep = R = exp(-2 (kappa - g) t) and gains
noise = A = (kappa + g)/(kappa - g) (1 - R), or 2 (kappa + g) t at kappa = g.
The signed quantities are then explicit:

    G^{A->B} = ln(a / (ab - c^2)),   G^{B->A} = ln(b / (ab - c^2)),
    two-way G = their minimum,
    E_N = -ln nu~ with nu~^2 = (D - sqrt(D^2 - 4 (ab - c^2)^2)) / 2, D = a^2 + b^2 + 2 c^2.

The first root of each comes from a coarse scan over the row's horizon and
``mpmath.findroot`` on the first bracket.  The reference shares no code with
cvsteer's covariance-matrix path or its closed forms.
"""

import math

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvsteer.channels import ChannelSide, ChannelSpec
from cvsteer.measures import _default_t_max, numeric_threshold, threshold_table

DPS = 150
# Coarse scan: a geometric head for roots far below the horizon, a linear tail.
SCAN_POINTS = 40


def _laser_rates(channel):
    """The laser rates (g, kappa) of a channel, as mp numbers from its float rates."""
    g, kappa = mp.mpf(channel.g), mp.mpf(channel.kappa)
    if channel.kind == "loss":
        return mp.mpf(0), kappa
    if channel.kind == "gain":
        return g, mp.mpf(0)
    if channel.kind == "thermal":
        nbar = mp.mpf(channel.nbar)
        return kappa * nbar, kappa * (nbar + 1)
    return g, kappa


def _signed_quantities(channel, r):
    """t -> {quantity: signed value} of the TMSV after duration t (an mp number)
    in the channel; call it at the working precision it was made at."""
    g, kappa = _laser_rates(channel)
    ch, sh2 = mp.cosh(2 * mp.mpf(r)), mp.sinh(2 * mp.mpf(r)) ** 2

    def signed(t):
        x = 2 * (kappa - g) * t
        if x == 0:
            keep, noise = mp.mpf(1), 2 * (kappa + g) * t
        else:
            keep, noise = mp.exp(-x), -(kappa + g) / (kappa - g) * mp.expm1(-x)
        keep_a, noise_a = (keep, noise) if channel.side is ChannelSide.BOTH else (mp.mpf(1), mp.mpf(0))
        a, b = keep_a * ch + noise_a, keep * ch + noise
        c2 = keep_a * keep * sh2
        det = a * b - c2
        delta = a**2 + b**2 + 2 * c2
        nu2 = (delta - mp.sqrt(delta**2 - 4 * det**2)) / 2
        g_ab, g_ba = mp.log(a / det), mp.log(b / det)
        return {"a_to_b": g_ab, "b_to_a": g_ba, "two-way": min(g_ab, g_ba), "inseparability": -mp.log(nu2) / 2}

    return signed


def reference_times(channel, r, t_max):
    """{quantity: first root in (0, t_max]} of the channel's TMSV, math.inf where
    the signed quantity stays positive on the scan; each root as an mp number."""
    with mp.workdps(DPS):
        t_max = mp.mpf(t_max)
        head = [t_max * mp.mpf(10) ** (9 * (k / mp.mpf(SCAN_POINTS - 1) - 1)) for k in range(SCAN_POINTS)]
        tail = [t_max * (k + 1) / SCAN_POINTS for k in range(SCAN_POINTS)]
        scan = [mp.mpf(0), *sorted(set(head + tail))]
        signed = _signed_quantities(channel, r)
        values = [signed(t) for t in scan]
        roots = {}
        for name in ("a_to_b", "b_to_a", "inseparability"):
            roots[name] = math.inf
            for lo, hi, v_hi in zip(scan, scan[1:], values[1:]):
                if v_hi[name] <= 0:
                    roots[name] = mp.findroot(lambda t: signed(t)[name], (lo, hi), solver="anderson")
                    break
        # min(G^{A->B}, G^{B->A}) first reaches zero where either one first does.
        roots["two-way"] = min(roots["a_to_b"], roots["b_to_a"])
        return roots


def _meets(t, reference):
    """t is infinite with the reference, or finite and within 1e-9 relative of it."""
    if math.isinf(reference) or math.isinf(t):
        return t == reference
    return abs(t - float(reference)) <= 1e-9 * float(reference)


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("kappa", [0.23, 1.0, 2.5])
def test_one_and_two_side_loss_share_the_two_way_time(r, kappa):
    # The abstract: two-side loss "share[s] the same two-way steerable time" with
    # one-side loss, which is B -> A's, ln 2 / (2 kappa).
    t_max = _default_t_max(0.0, kappa)
    one_side = reference_times(ChannelSpec("loss", ChannelSide.B, kappa=kappa), r, t_max)
    two_side = reference_times(ChannelSpec("loss", ChannelSide.BOTH, kappa=kappa), r, t_max)
    with mp.workdps(DPS):
        exact = mp.log(2) / (2 * mp.mpf(kappa))
        assert abs(one_side["b_to_a"] - exact) < mp.mpf("1e-100")
        assert abs(two_side["two-way"] - exact) < mp.mpf("1e-100")
        assert one_side["two-way"] == one_side["b_to_a"] and one_side["a_to_b"] == math.inf


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("side", [ChannelSide.B, ChannelSide.BOTH])
def test_two_way_steerability_at_zero_duration_is_log_cosh_2r(r, side):
    with mp.workdps(DPS):
        value = _signed_quantities(ChannelSpec("laser", side, g=0.4, kappa=1.3), r)(mp.mpf(0))["two-way"]
        assert abs(value - mp.log(mp.cosh(2 * mp.mpf(r)))) < mp.mpf("1e-140")


# Laser-family channels: pure loss, pure gain, loss- and gain-dominated laser,
# and balanced rates (kappa = g, where the closed forms take their limits).
_TABLE_CHANNELS = [
    ChannelSpec("loss", kappa=0.7),
    ChannelSpec("gain", g=0.4),
    ChannelSpec("laser", g=0.5, kappa=1.3),
    ChannelSpec("laser", g=0.1, kappa=2.9),
    ChannelSpec("laser", g=1.2, kappa=0.6),
    ChannelSpec("laser", g=0.8, kappa=0.8),
]


@pytest.mark.parametrize("r", [0.3, 1.0])
def test_threshold_rows_meet_the_reference(r):
    # Each table holds every direction: two-way on both sides, a_to_b and
    # b_to_a on side B, inseparability on side B and on both sides.
    results = [result for channel in _TABLE_CHANNELS for result in threshold_table(channel, r)]
    assert len(results) == 30
    references = {}
    for result in results:
        channel = result.channel
        if channel not in references:
            params = channel.laser_params(0.0)
            references[channel] = reference_times(channel, r, _default_t_max(params.g, params.kappa))
        reference = references[channel][result.direction]
        assert result.status == "ok", result
        assert _meets(result.t_closed, reference) and _meets(result.t_numeric, reference), (result, reference)


@pytest.mark.parametrize(
    ("nbar", "r", "root"), [(0.143, 0.1, 0.0287296), (0.205, 0.1583, 0.0436006), (0.9, 0.5, 0.0529528), (1.5, 0.5, 0.0342787)]
)
def test_bisected_thermal_root_inside_the_window_meets_the_reference(nbar, r, root):
    # Inside nbar >= (e^{2r} - 1)/2 the closed form calls the row never
    # steerable, but the two-way steerability ln cosh 2r > 0 at t = 0 does
    # cross zero: the bisected root is the true threshold (ROADMAP item 2).
    channel = ChannelSpec("thermal", ChannelSide.BOTH, kappa=1.0, nbar=nbar)
    assert nbar >= 0.5 * math.expm1(2.0 * r)
    bisected = numeric_threshold(channel, r, "G_twoway", 50.0)
    reference = float(reference_times(channel, r, 50.0)["two-way"])
    assert bisected == pytest.approx(root, rel=1e-5)
    assert abs(bisected - reference) <= 1e-9 * reference


@given(
    kind=st.sampled_from(["loss", "gain", "laser"]),
    side=st.sampled_from([ChannelSide.B, ChannelSide.BOTH]),
    quantity=st.sampled_from(["two-way", "a-to-b", "b-to-a", "inseparability"]),
    g=st.floats(0.05, 3.0),
    kappa=st.floats(0.05, 3.0),
    r=st.floats(0.05, 2.0),
)
@settings(max_examples=15, deadline=None)
def test_every_laser_family_row_meets_the_reference(kind, side, quantity, g, kappa, r):
    # The table's row for the drawn quantity (inseparability on the drawn
    # side): the closed form and the bisected root each within 1e-9 relative.
    (result,) = threshold_table(ChannelSpec(kind, side, g=g, kappa=kappa), r, quantity)
    params = result.channel.laser_params(0.0)
    reference = reference_times(result.channel, r, _default_t_max(params.g, params.kappa))[result.direction]
    assert result.status == "ok", result
    assert _meets(result.t_closed, reference) and _meets(result.t_numeric, reference), (result, reference)


@st.composite
def _thermal_points(draw):
    """(nbar, r) with nbar in [0, 1.5] and r in [0.05, 2], inside the closed
    form's never-steerable window nbar >= (e^{2r} - 1)/2 or outside it, each
    half the time.  Inside, r <= ln(4)/2, where the window's edge reaches 1.5."""
    if draw(st.booleans()):
        r = draw(st.floats(0.05, 0.5 * math.log(4.0)))
        return draw(st.floats(0.5 * math.expm1(2.0 * r), 1.5)), r
    r = draw(st.floats(0.05, 2.0))
    return draw(st.floats(0.0, min(1.5, 0.5 * math.expm1(2.0 * r)), exclude_max=True)), r


@given(point=_thermal_points())
@settings(max_examples=15, deadline=None)
# 1e-9 below the window's edge the closed form is 6.7e-7 relative off (the
# row still reads ok); the bisected root is within 3e-15.
@example(point=(0.5585000077478374, 0.375)).xfail(
    reason="the thermal two-way closed form cancels near its window's edge (ROADMAP item 2)", raises=AssertionError
)
def test_thermal_two_way_row_meets_the_reference(point):
    # The bisected root always; outside the window the table's row too, its
    # closed form and root, each within 1e-9 relative of the reference.
    nbar, r = point
    channel = ChannelSpec("thermal", ChannelSide.BOTH, kappa=1.0, nbar=nbar)
    reference = reference_times(channel, r, 50.0)["two-way"]
    assert _meets(numeric_threshold(channel, r, "G_twoway", 50.0), reference)
    (result,) = threshold_table(channel, r, "two-way")
    if nbar >= 0.5 * math.expm1(2.0 * r):
        assert result.status == "never-steerable"
    else:
        assert result.status == "ok", result
        assert _meets(result.t_closed, reference) and _meets(result.t_numeric, reference), (result, reference)
