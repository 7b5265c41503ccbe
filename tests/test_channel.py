import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uav_ic_planner.channel import (a2g_gain, geometry, gu_rate_ic,
                                    gu_rate_tin, log2_1p, uav_rate)
from uav_ic_planner.scenario import Scenario

import oracles
from conftest import make_channel, make_site, make_uav

CH = make_channel()  # beta0 = 1e-3, alpha = 2


def one_site(**site) -> Scenario:
    """One site (at the origin unless given) seen from altitude 100 m."""
    return Scenario(channel=CH, sites=(make_site(**site),), uav=make_uav())


def at(*points) -> np.ndarray:
    return np.array(points, dtype=float).reshape(-1, 2)


def test_a2g_gain_overhead():
    gains = a2g_gain(at((0.0, 0.0), (100.0, 0.0)), one_site())
    assert gains.shape == (1, 2)
    assert gains[0, 0] == pytest.approx(1e-7, rel=1e-12)
    assert gains[0, 1] == pytest.approx(5e-8, rel=1e-12)


def test_a2g_gain_decreasing_with_offset():
    gains = a2g_gain(at(*[(x, 0.0) for x in (0.0, 50.0, 200.0, 1000.0, 1e5)]),
                     one_site())[0]
    assert np.all(gains[:-1] > gains[1:])
    assert gains[-1] < 1e-13


def random_sites_scenario(rng, k: int, alpha: float) -> Scenario:
    sites = tuple(
        make_site(pos=(float(x), float(y)), g=float(rng.uniform(1e-8, 5e-7)),
                  sigma2=float(rng.uniform(1e-9, 1e-7)))
        for x, y in rng.uniform(-500, 500, size=(k, 2)))
    return Scenario(channel=make_channel(alpha=alpha), sites=sites,
                    uav=make_uav())


@pytest.mark.parametrize("k, alpha", [(1, 2.0), (3, 2.5), (64, 3.0)])
def test_kernel_matches_scalar_oracle(rng, k, alpha):
    """The site-major (K, M) kernel against the scalar formulas of
    `oracles`, at every (site, position) pair: random positions, a position
    directly above each site, and a UAV power of zero at some positions."""
    sc = random_sites_scenario(rng, k, alpha)
    pts = np.vstack([rng.uniform(-600, 600, size=(40, 2)), sc.site_pos])
    m = pts.shape[0]
    p = rng.uniform(0.0, 2.0, size=m)
    p[::5] = 0.0
    q = rng.uniform(0.0, 1.0, size=(k, m))

    diff, s, d2, h = geometry(pts, sc)
    assert diff.shape == (2, k, m) and s.shape == d2.shape == h.shape == (k, m)
    offsets = pts[None, :, :] - sc.site_pos[:, None, :]  # (K, M, 2)
    assert np.array_equal(diff, np.moveaxis(offsets, 2, 0))
    assert np.array_equal(a2g_gain(pts, sc), h)
    rate = uav_rate(h, p, q, sc)
    ic = gu_rate_ic(q, sc)
    tin = gu_rate_tin(h, p, q, sc)
    for i in range(m):
        for j, site in enumerate(sc.sites):
            args = (p[i], pts[i], q[j, i], site, sc.channel, 100.0)
            assert h[j, i] == pytest.approx(
                oracles.a2g_gain(pts[i], site, sc.channel, 100.0), rel=1e-15)
            assert rate[j, i] == pytest.approx(oracles.uav_rate(*args),
                                               rel=1e-15)
            assert ic[j, i] == pytest.approx(
                oracles.gu_rate_ic(q[j, i], site), rel=1e-15)
            assert tin[j, i] == pytest.approx(oracles.gu_rate_tin(*args),
                                              rel=1e-15)
    # Directly above site j the horizontal distance is zero.
    above = np.arange(k)
    assert np.all(s[above, 40 + above] == 0.0)
    assert np.all(d2[above, 40 + above] == 100.0 ** 2)
    # Without UAV power the UAV has no rate and the GU no interference.
    assert np.all(rate[:, p == 0.0] == 0.0)
    assert np.array_equal(tin[:, p == 0.0], ic[:, p == 0.0])


def test_uav_rate_values():
    # h = 1e-7 directly overhead at H=100; sigma2 = 1e-8
    sc = one_site(g=1e-7, sigma2=1e-8)
    h = a2g_gain(at((0.0, 0.0)), sc)
    assert uav_rate(h, 1.0, 0.0, sc)[0, 0] == pytest.approx(
        math.log2(11), rel=1e-12)
    assert uav_rate(h, 0.0, 0.0, sc)[0, 0] == 0.0
    assert uav_rate(h, 1.0, 0.3, sc)[0, 0] == pytest.approx(
        math.log2(3.5), rel=1e-12)


def test_gu_rate_ic_values():
    sc = one_site(g=1e-7, sigma2=1e-8)
    assert gu_rate_ic(0.0, sc)[0, 0] == 0.0
    assert gu_rate_ic(0.3, sc)[0, 0] == pytest.approx(2.0, rel=1e-12)
    sc31 = one_site(g=3.1e-7, sigma2=1e-8)
    assert gu_rate_ic(1.0, sc31)[0, 0] == pytest.approx(5.0, abs=1e-12)


def test_gu_rate_tin_values():
    sc = one_site(g=1e-7, sigma2=1e-8)
    h = a2g_gain(at((0.0, 0.0)), sc)
    # p = 0 removes the interference term entirely
    assert gu_rate_tin(h, 0.0, 0.7, sc)[0, 0] == pytest.approx(
        gu_rate_ic(0.7, sc)[0, 0], rel=1e-12)
    # SINR = 1e-7 / (1e-8 + 1e-7 * 0.233333...) = 3 exactly
    p = 7.0 / 30.0
    assert gu_rate_tin(h, p, 1.0, sc)[0, 0] == pytest.approx(2.0, rel=1e-9)
    # rate -> 0 monotonically as p grows
    rates = gu_rate_tin(h, np.array([0.0, 1.0, 10.0, 1e4, 1e8]), 1.0, sc)[0]
    assert np.all(rates[:-1] > rates[1:])
    assert rates[-1] < 1e-6


def test_log2_1p_small_argument_accuracy():
    x = 1e-14
    assert log2_1p(x) == pytest.approx(x / math.log(2), rel=1e-10)


@settings(max_examples=200, deadline=None)
@given(p=st.floats(0.0, 10.0), q=st.floats(0.0, 10.0),
       x=st.floats(-2000.0, 2000.0), y=st.floats(-2000.0, 2000.0))
def test_tin_never_beats_ic(p, q, x, y):
    sc = one_site()
    tin = gu_rate_tin(a2g_gain(at((x, y)), sc), p, q, sc)[0, 0]
    ic = gu_rate_ic(q, sc)[0, 0]
    assert tin <= ic + 1e-12
    if p > 1e-6 and q > 1e-6:
        assert tin < ic


@settings(max_examples=100, deadline=None)
@given(p=st.floats(1e-6, 10.0), q=st.floats(0.0, 10.0),
       dp=st.floats(1e-3, 5.0), dq=st.floats(1e-3, 5.0))
def test_uav_rate_monotonicity(p, q, dp, dq):
    sc = one_site()
    h = a2g_gain(at((30.0, 40.0)), sc)
    base = uav_rate(h, p, q, sc)[0, 0]
    assert uav_rate(h, p + dp, q, sc)[0, 0] > base
    assert uav_rate(h, p, q + dq, sc)[0, 0] < base
