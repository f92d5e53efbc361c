"""Exact single-excitation dynamics of the atom in front of the mirror.

The excited-state amplitude obeys

    eps'(t) = -Gamma/2 * eps(t) + Gamma/2 * exp(i*phi) * eps(t - tau) * Theta(t - tau)

which is integrated by the method of steps on a delay-commensurate grid, and
cross-checked by the closed-form series obtained by iterating the steps
symbolically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

GRID_RTOL = 1e-9

# Cubic Lagrange weights on nodes {0,1,2,3} evaluated at 0.5, 1.5, 2.5.
_LAGRANGE_HALF = {
    0: np.array([0.3125, 0.9375, -0.3125, 0.0625]),
    1: np.array([-0.0625, 0.5625, 0.5625, -0.0625]),
    2: np.array([0.0625, -0.3125, 0.9375, 0.3125]),
}


class GridError(ValueError):
    """dt is not commensurate with the delay tau."""


class ResolutionError(ValueError):
    """dt exceeds the delay tau."""


@dataclass
class AmplitudeSeries:
    """Uniform time grid with the complex atomic amplitude on it."""

    t: np.ndarray
    eps: np.ndarray
    Gamma: float = 1.0
    tau: float = 0.0
    phi: float = 0.0

    @property
    def population(self) -> np.ndarray:
        return np.abs(self.eps) ** 2

    def plateau(self, tol: float = 1e-6):
        """Population plateau value, or None if the tail is still moving.

        Declared when |pop(t) - pop(t - tau)| < tol over a full delay window
        at the end of the series.
        """
        if self.tau <= 0:
            return None
        dt = self.t[1] - self.t[0]
        n = int(round(self.tau / dt))
        pop = self.population
        if len(pop) < 2 * n + 1 or n == 0:
            return None
        if np.all(np.abs(pop[-n:] - pop[-2 * n : -n]) < tol):
            return float(np.mean(pop[-n:]))
        return None


def solve_delay_ode(
    Gamma: float, tau: float, phi: float, t_max: float, dt: float
) -> AmplitudeSeries:
    """Method-of-steps RK4 on a grid commensurate with the delay.

    Grid-point history is read by exact index offset; the half-step history
    needed by the RK4 stages is cubic-interpolated with stencils clamped to
    one delay interval, so the interpolant never straddles a derivative kink.
    """
    if Gamma <= 0 or tau <= 0:
        raise ValueError("Gamma and tau must be positive")
    if dt > tau:
        raise ResolutionError(f"dt={dt} exceeds the delay tau={tau}")
    if t_max < tau:
        raise ValueError(f"t_max={t_max} must be at least tau={tau}")
    n_delay = int(round(tau / dt))
    if n_delay < 1 or abs(n_delay * dt - tau) > GRID_RTOL * tau:
        raise GridError(f"dt={dt} does not divide tau={tau}")

    n_steps = int(math.ceil(t_max / dt - GRID_RTOL))
    t = np.arange(n_steps + 1) * dt
    eps = np.empty(n_steps + 1, dtype=complex)

    # Interval [0, tau]: no feedback yet, the step solution is closed-form.
    upto = min(n_delay, n_steps)
    eps[: upto + 1] = np.exp(-0.5 * Gamma * t[: upto + 1])

    c = 0.5 * Gamma * cmath.exp(1j * phi)

    def delayed_half(j: int) -> complex:
        # history at index j + 1/2, stencil kept inside [lo, lo + n_delay] so
        # the cubic never straddles a derivative kink at a multiple of tau
        if n_delay < 4:
            return 0.5 * (eps[j] + eps[j + 1])  # O(dt^2), coarse grids only
        lo = (j // n_delay) * n_delay
        s = min(max(j - 1, lo), lo + n_delay - 3)
        w = _LAGRANGE_HALF[j - s]
        return complex(w @ eps[s : s + 4])

    a = -0.5 * Gamma
    for i in range(n_delay, n_steps):
        j = i - n_delay
        d0 = eps[j]
        dh = delayed_half(j)
        d1 = eps[j + 1]
        y = eps[i]
        k1 = a * y + c * d0
        k2 = a * (y + 0.5 * dt * k1) + c * dh
        k3 = a * (y + 0.5 * dt * k2) + c * dh
        k4 = a * (y + dt * k3) + c * d1
        eps[i + 1] = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    return AmplitudeSeries(t=t, eps=eps, Gamma=Gamma, tau=tau, phi=phi)


def analytic_series(Gamma: float, tau: float, phi: float, t) -> complex | np.ndarray:
    """Closed-form amplitude: finite sum over delay windows.

    eps(t) = sum_{n=0}^{floor(t/tau)} (Gamma e^{i phi}/2)^n (t-n tau)^n / n!
             * exp(-Gamma (t - n tau)/2)
    """
    if Gamma <= 0 or tau <= 0:
        raise ValueError("Gamma and tau must be positive")
    if np.ndim(t) > 0:
        return np.array([analytic_series(Gamma, tau, phi, ti) for ti in t])
    t = float(t)
    if t < 0:
        raise ValueError("t must be non-negative")
    z = 0.5 * Gamma * cmath.exp(1j * phi)
    total = 0.0 + 0.0j
    for n in range(int(math.floor(t / tau)) + 1):
        d = t - n * tau
        if n == 0:
            term = cmath.exp(-0.5 * Gamma * d)
        elif d <= 0.0:
            continue
        else:
            # log-space to stay finite for large n
            term = cmath.exp(
                n * cmath.log(z * d) - math.lgamma(n + 1) - 0.5 * Gamma * d
            )
        total += term
    return total


def markovian_rate(Gamma: float, phi: float) -> float:
    """Feedback-modified decay rate in the short-delay limit."""
    if Gamma <= 0:
        raise ValueError("Gamma must be positive")
    return 2.0 * Gamma * math.sin(phi / 2.0) ** 2


def purcell_rate(g0: float, gamma: float) -> float:
    """Bad-cavity population decay rate 4*g0^2/gamma.

    With g0 evaluated at L = x0 this coincides with markovian_rate(Gamma, phi).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return 4.0 * g0**2 / gamma


def fit_decay_rate(t: np.ndarray, population: np.ndarray) -> float:
    """Exponential rate from a linear fit of log(population)."""
    t = np.asarray(t, dtype=float)
    pop = np.asarray(population, dtype=float)
    mask = pop > 0
    if mask.sum() < 2:
        raise ValueError("not enough positive samples to fit a rate")
    slope = np.polyfit(t[mask], np.log(pop[mask]), 1)[0]
    return -float(slope)
