"""Delay-equation reference solver against its closed form."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorqed.dde import (
    GridError,
    ResolutionError,
    analytic_series,
    fit_decay_rate,
    markovian_rate,
    purcell_rate,
    solve_delay_ode,
)


def test_no_feedback_interval_is_pure_exponential():
    s = solve_delay_ode(Gamma=1.0, tau=2.0, phi=0.7, t_max=2.0, dt=0.01)
    assert np.allclose(s.eps, np.exp(-0.5 * s.t), atol=1e-14)


def test_matches_closed_form_after_several_delays():
    G, tau, phi = 1.0, 0.5, math.pi / 2
    s = solve_delay_ode(G, tau, phi, t_max=8.0, dt=tau / 400)
    ref = analytic_series(G, tau, phi, s.t)
    assert np.max(np.abs(s.eps - ref)) < 1e-10


@given(
    Gamma_tau=st.sampled_from([0.25, 1.0, 2.0, 4.0]),
    phi=st.floats(0.0, 2 * math.pi),
)
@settings(max_examples=25, deadline=None)
def test_population_stays_physical(Gamma_tau, phi):
    tau = Gamma_tau
    s = solve_delay_ode(1.0, tau, phi, t_max=4 * tau, dt=tau / 100)
    pop = s.population
    assert np.all(pop <= 1.0 + 1e-9)
    assert np.all(pop >= -1e-12)
    assert pop[0] == pytest.approx(1.0)


def test_incommensurate_grid_rejected():
    with pytest.raises(GridError):
        solve_delay_ode(1.0, 1.0, 0.0, t_max=5.0, dt=0.3)


def test_dt_larger_than_delay_rejected():
    with pytest.raises(ResolutionError):
        solve_delay_ode(1.0, 0.1, 0.0, t_max=5.0, dt=0.2)
    # three steps per delay: too few for the cubic half-step stencil
    with pytest.raises(ResolutionError, match="cubic"):
        solve_delay_ode(1.0, 0.3, 0.0, t_max=5.0, dt=0.1)


def test_four_steps_per_delay_is_fourth_order():
    G, tau, phi = 1.0, 1.0, math.pi
    dt = tau / 4
    s = solve_delay_ode(G, tau, phi, t_max=6.0, dt=dt)
    err = np.max(np.abs(s.eps - analytic_series(G, tau, phi, s.t)))
    # RK4 with cubic half points: measured 1.7e-3 (G dt)^4
    assert err < 1e-2 * (G * dt) ** 4


def _per_step_reference(Gamma, tau, phi, t_max, dt):
    """One RK4 step per Python iteration: the solver's method, step by step."""
    n_delay = int(round(tau / dt))
    n_steps = int(math.ceil(t_max / dt - 1e-9))
    t = np.arange(n_steps + 1) * dt
    eps = np.empty(n_steps + 1, dtype=complex)
    eps[: n_delay + 1] = np.exp(-0.5 * Gamma * t[: n_delay + 1])
    c = 0.5 * Gamma * np.exp(1j * phi)
    half = {
        0: np.array([0.3125, 0.9375, -0.3125, 0.0625]),
        1: np.array([-0.0625, 0.5625, 0.5625, -0.0625]),
        2: np.array([0.0625, -0.3125, 0.9375, 0.3125]),
    }

    def delayed_half(j):
        lo = (j // n_delay) * n_delay
        s = min(max(j - 1, lo), lo + n_delay - 3)
        return complex(half[j - s] @ eps[s : s + 4])

    a = -0.5 * Gamma
    for i in range(n_delay, n_steps):
        j = i - n_delay
        d0, dh, d1, y = eps[j], delayed_half(j), eps[j + 1], eps[i]
        k1 = a * y + c * d0
        k2 = a * (y + 0.5 * dt * k1) + c * dh
        k3 = a * (y + 0.5 * dt * k2) + c * dh
        k4 = a * (y + dt * k3) + c * d1
        eps[i + 1] = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return t, eps


@pytest.mark.parametrize(
    "Gamma_tau, phi, t_max, steps_per_delay",
    [
        (1.0, 0.7, 5.0, 4),  # the coarsest grid the cubic allows
        (0.01, math.pi / 2, 2.0, 50),  # the purcell grid
        (2.0, math.pi / 2, 7.3, 2000),  # emission grid, t_max off the delay lattice
        (2.0, 1.1, 2.0, 2000),  # t_max = tau: no feedback step
        (0.5, 0.0, 4.0, 40),
        (0.5, math.pi / 2, 4.0, 40),
        (0.5, 2 * math.pi, 4.0, 40),
    ],
)
def test_window_solver_matches_per_step_rk4(Gamma_tau, phi, t_max, steps_per_delay):
    tau = Gamma_tau
    dt = tau / steps_per_delay
    s = solve_delay_ode(1.0, tau, phi, t_max=t_max, dt=dt)
    t, eps = _per_step_reference(1.0, tau, phi, t_max, dt)
    assert np.array_equal(s.t, t)
    assert np.max(np.abs(s.eps - eps)) <= 1e-13


def _closed_form_terms(Gamma, tau, phi, t):
    """The closed-form sum at one time, term by term."""
    z = 0.5 * Gamma * cmath.exp(1j * phi)
    total = cmath.exp(-0.5 * Gamma * t)
    for n in range(1, int(math.floor(t / tau)) + 1):
        d = t - n * tau
        if d > 0.0:
            log_term = n * cmath.log(z * d) - math.lgamma(n + 1) - 0.5 * Gamma * d
            total += cmath.exp(log_term)
    return total


def test_analytic_series_scalar_and_array_agree():
    ts = np.array([0.0, 0.9, 1.0, 1.7, 3.3, 7.25])
    arr = analytic_series(1.0, 1.0, math.pi, ts)
    for t, v in zip(ts, arr):
        scalar = analytic_series(1.0, 1.0, math.pi, float(t))
        assert scalar == pytest.approx(v, rel=1e-12)
        assert _closed_form_terms(1.0, 1.0, math.pi, t) == pytest.approx(v, rel=1e-12)


def test_bound_state_plateau_at_two_pi_phase():
    # Gamma*tau = 2, phi = 2*pi: trapped population 1/(1 + Gamma*tau/2)^2
    s = solve_delay_ode(1.0, 2.0, 2 * math.pi, t_max=60.0, dt=2.0 / 500)
    plat = s.plateau(tol=1e-6)
    assert plat is not None
    assert plat == pytest.approx(0.25, abs=1e-4)


def test_plateau_none_while_still_decaying():
    s = solve_delay_ode(1.0, 0.5, 0.0, t_max=2.0, dt=0.5 / 100)
    assert s.plateau(tol=1e-12) is None


def test_markovian_rate_values():
    assert markovian_rate(1.0, math.pi) == pytest.approx(2.0)
    assert markovian_rate(1.0, 0.0) == pytest.approx(0.0)
    assert markovian_rate(2.0, math.pi / 2) == pytest.approx(2.0)


def test_purcell_rate_is_bad_cavity_ratio():
    assert purcell_rate(g0=0.3, gamma=2.0) == pytest.approx(4 * 0.09 / 2.0)


def test_fit_decay_rate_recovers_exponential():
    t = np.linspace(0, 5, 400)
    rate = 0.83
    assert fit_decay_rate(t, np.exp(-rate * t)) == pytest.approx(rate, rel=1e-6)


def test_fit_matches_markovian_limit_short_delay():
    G, phi = 1.0, math.pi / 2
    tau = 1e-2
    s = solve_delay_ode(G, tau, phi, t_max=3.0, dt=tau / 20)
    fitted = fit_decay_rate(s.t, s.population)
    assert fitted == pytest.approx(markovian_rate(G, phi), rel=0.02)
