"""Exact single-excitation dynamics of the atom in front of the mirror.

The excited-state amplitude obeys

    eps'(t) = -Gamma/2 * eps(t) + Gamma/2 * exp(i*phi) * eps(t - tau) * Theta(t - tau)

which is integrated by the method of steps (Bellen & Zennaro, 2003) one delay
window at a time, on a delay-commensurate grid of at least four steps per
delay, and cross-checked by the closed-form series obtained by iterating the
steps symbolically (Dorner & Zoller, PRA 66, 023816, 2002).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

GRID_RTOL = 1e-9

# Cubic Lagrange weights on nodes {0,1,2,3} evaluated at 0.5, 1.5, 2.5.
_LAGRANGE_HALF = (
    np.array([0.3125, 0.9375, -0.3125, 0.0625]),
    np.array([-0.0625, 0.5625, 0.5625, -0.0625]),
    np.array([0.0625, -0.3125, 0.9375, 0.3125]),
)


class GridError(ValueError):
    """dt is not commensurate with the delay tau."""


class ResolutionError(ValueError):
    """dt gives fewer than four steps per delay tau."""


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

    A step reads history at least ``n_delay - 1`` steps back, so a whole delay
    window is advanced at once: its history terms (grid points by exact index
    offset, half points by cubic stencils clamped to one delay interval, so the
    interpolant never straddles a derivative kink) are formed as arrays, and
    RK4, being linear in y, collapses to the scalar recurrence y <- R y + f_i.
    """
    if Gamma <= 0 or tau <= 0:
        raise ValueError("Gamma and tau must be positive")
    if dt > tau:
        raise ResolutionError(f"dt={dt} exceeds the delay tau={tau}")
    if t_max < tau:
        raise ValueError(f"t_max={t_max} must be at least tau={tau}")
    n_delay = int(round(tau / dt))
    if abs(n_delay * dt - tau) > GRID_RTOL * tau:
        raise GridError(f"dt={dt} does not divide tau={tau}")
    if n_delay < 4:
        raise ResolutionError(f"{n_delay} steps per delay; the cubic stencil needs 4")

    n_steps = int(math.ceil(t_max / dt - GRID_RTOL))
    t = np.arange(n_steps + 1) * dt
    eps = np.empty(n_steps + 1, dtype=complex)

    # Interval [0, tau]: no feedback yet, the step solution is closed-form.
    eps[: n_delay + 1] = np.exp(-0.5 * Gamma * t[: n_delay + 1])

    # An RK4 step with delayed samples d0, dh, d1 at t, t + dt/2, t + dt is
    # y <- R y + w0 d0 + wh dh + w1 d1; adding r y = (R - 1) y to y, not forming
    # R, keeps the rounding of the one-step-per-iteration form.
    c = 0.5 * Gamma * cmath.exp(1j * phi)
    z = -0.5 * Gamma * dt
    r = z + z**2 / 2 + z**3 / 6 + z**4 / 24
    w0 = dt / 6 * c * (1 + z + z**2 / 2 + z**3 / 4)
    wh = dt / 6 * c * (4 + 2 * z + z**2 / 2)
    w1 = dt / 6 * c
    first, mid, last = _LAGRANGE_HALF
    # Window lo (delayed indices lo .. lo + n_delay - 1) reads only the finished
    # eps[lo : lo + n_delay + 1] and writes the n_delay points after it.
    for lo in range(0, n_steps - n_delay, n_delay):
        hist = eps[lo : lo + n_delay + 1]
        dh = np.empty(n_delay, dtype=complex)
        dh[0], dh[-1] = first @ hist[:4], last @ hist[-4:]
        dh[1:-1] = np.correlate(hist, mid)
        f = w0 * hist[:-1] + wh * dh + w1 * hist[1:]
        y, ys = complex(hist[-1]), []
        for fi in f[: n_steps - n_delay - lo].tolist():
            y += r * y + fi
            ys.append(y)
        eps[lo + n_delay + 1 : lo + n_delay + 1 + len(ys)] = ys

    return AmplitudeSeries(t=t, eps=eps, Gamma=Gamma, tau=tau, phi=phi)


def analytic_series(Gamma: float, tau: float, phi: float, t) -> complex | np.ndarray:
    """Closed-form amplitude: finite sum over delay windows.

    eps(t) = sum_{n=0}^{floor(t/tau)} (Gamma e^{i phi}/2)^n (t-n tau)^n / n!
             * exp(-Gamma (t - n tau)/2)
    """
    if Gamma <= 0 or tau <= 0:
        raise ValueError("Gamma and tau must be positive")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be non-negative")
    # one (t, n) array of the n >= 1 terms, zero where n tau >= t; log-space
    # to stay finite for large n
    z = 0.5 * Gamma * cmath.exp(1j * phi)
    n_top = np.floor(t_arr / tau)
    n = np.arange(1, int(n_top.max(initial=0)) + 1)
    d = t_arr[..., None] - n * tau
    keep = (n <= n_top[..., None]) & (d > 0.0)
    d = np.where(keep, d, 1.0)
    lgam = np.array([math.lgamma(k + 1) for k in n])
    terms = np.exp(n * np.log(z * d) - lgam - 0.5 * Gamma * d)
    total = np.exp(-0.5 * Gamma * t_arr) + np.where(keep, terms, 0.0).sum(axis=-1)
    return total if total.ndim else complex(total)


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
