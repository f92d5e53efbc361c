"""Physical parameters and the truncated multimode-cavity model.

An atom sits at distance ``x0`` from the mirrored end of a semi-infinite
waveguide with linear dispersion (group velocity ``v``).  The stretch of
waveguide of length ``L`` containing the atom behaves as a lossy multimode
cavity: its sine normal modes couple to the atom with strengths set by the
mode shape at the atom position, and the whole block leaks into the rest of
the waveguide at rate ``gamma = 2 v / L``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

HALF_WAVE_RTOL = 1e-12


class ParameterError(ValueError):
    """A physical input is out of its admissible range."""


class GeometryError(ValueError):
    """Block geometry cannot be realized (L <= x0 or no admissible multiple)."""


class ResonanceError(ValueError):
    """Block length is not a half-wavelength multiple, so no mode hits omega0."""


@dataclass(frozen=True)
class PhysicalParams:
    """Physical setup (omega0, v, x0, g) and the derived (Gamma, tau, phi)."""

    omega0: float
    v: float
    x0: float
    g: float

    def __post_init__(self):
        for name in ("omega0", "v", "x0", "g"):
            val = getattr(self, name)
            if not (val > 0.0) or not math.isfinite(val):
                raise ParameterError(f"{name} must be strictly positive, got {val}")

    @property
    def Gamma(self) -> float:
        return 2.0 * self.g**2 / self.v

    @property
    def tau(self) -> float:
        return 2.0 * self.x0 / self.v

    @property
    def k0(self) -> float:
        return self.omega0 / self.v

    @property
    def phi(self) -> float:
        """Raw round-trip phase 2*k0*x0 (can exceed 2*pi)."""
        return 2.0 * self.k0 * self.x0

    @property
    def half_wavelength(self) -> float:
        return math.pi * self.v / self.omega0


def params_from_dimensionless(Gamma_tau: float, phi: float) -> PhysicalParams:
    """Build params realizing a target (Gamma*tau, phi) pair, in units Gamma = v = 1.

    phi is fixed only modulo 2*pi by the figures' conventions, so omega0 is
    chosen with an even number of extra 2*pi windings, making the atomic
    half-wavelength at most ~x0/500.  A fine half-wavelength lets block
    lengths snap close to any requested ratio.
    """
    if Gamma_tau <= 0:
        raise ParameterError("Gamma_tau must be positive")
    Gamma, v = 1.0, 1.0
    tau = Gamma_tau / Gamma
    x0 = v * tau / 2.0
    g = math.sqrt(Gamma * v / 2.0)  # params.Gamma = 2 g^2 / v is 1.0000000000000002
    # phi_raw = omega0 * tau; add even windings so that k0*x0 >= 500 pi
    m = max(2, 2 * math.ceil((math.pi * 500 - phi / 2.0) / (2.0 * math.pi)))
    if m % 2:
        m += 1
    omega0 = (phi + 2.0 * math.pi * m) / tau
    return PhysicalParams(omega0=omega0, v=v, x0=x0, g=g)


def snap_block_length(params: PhysicalParams, ratio: float) -> float:
    """Nearest half-wavelength multiple to ratio*x0 that still exceeds x0."""
    if ratio < 1.0:
        raise ParameterError(f"ratio must be >= 1, got {ratio}")
    h = params.half_wavelength
    target = ratio * params.x0
    n = round(target / h)
    if n * h <= params.x0 * (1.0 + HALF_WAVE_RTOL):
        n = math.floor(params.x0 / h) + 1
        while n * h <= params.x0 * (1.0 + HALF_WAVE_RTOL):
            n += 1
    L = n * h
    if L > 10.0 * ratio * params.x0:
        raise GeometryError(
            f"no half-wavelength multiple exceeds x0={params.x0} below "
            f"10*ratio*x0; omega0={params.omega0} is too small for this geometry"
        )
    return L


@dataclass(frozen=True)
class EffectiveModel:
    """Truncated multimode model: modes nu = -N_A..N_A of the atom's block."""

    params: PhysicalParams
    L: float
    N_A: int
    nu: tuple = field(init=False)
    Omega: tuple = field(init=False)
    g_nu: tuple = field(init=False)

    def __post_init__(self):
        p = self.params
        if self.L <= p.x0:
            raise GeometryError(f"L={self.L} must exceed x0={p.x0}")
        n_half = self.L / p.half_wavelength
        if abs(n_half - round(n_half)) > HALF_WAVE_RTOL * max(1.0, n_half):
            raise ResonanceError(
                f"L={self.L} is not an integer multiple of the half wavelength "
                f"{p.half_wavelength}; no block mode is resonant with the atom"
            )
        if self.N_A < 0 or int(self.N_A) != self.N_A:
            raise ParameterError(f"N_A must be a non-negative integer, got {self.N_A}")
        nus = tuple(range(-self.N_A, self.N_A + 1))
        omegas = tuple(p.omega0 + p.v * nu * math.pi / self.L for nu in nus)
        gs = tuple(
            p.g * (-1) ** nu * math.sqrt(2.0 / self.L)
            * math.sin(nu * math.pi * p.x0 / self.L + p.phi / 2.0)
            for nu in nus
        )
        object.__setattr__(self, "nu", nus)
        object.__setattr__(self, "Omega", omegas)
        object.__setattr__(self, "g_nu", gs)

    @property
    def gamma(self) -> float:
        """Loss rate of the atom's block into the rest of the waveguide."""
        return 2.0 * self.params.v / self.L

    @property
    def n_modes(self) -> int:
        return 2 * self.N_A + 1

    def detunings(self) -> tuple:
        """Omega_nu - omega0 (mode frequencies in the rotating frame)."""
        return tuple(om - self.params.omega0 for om in self.Omega)


def build_effective_model(params: PhysicalParams, L: float, N_A: int) -> EffectiveModel:
    return EffectiveModel(params=params, L=L, N_A=N_A)
