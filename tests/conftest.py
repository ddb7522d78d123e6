"""Shared mapping fixtures for the test suite.

Every map here has a closed-form story (dilatation, norm, or both) that
individual tests pin down; the builders stay together so the
identity-style property tests can sweep the whole family.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from logharm.maps import LogHarmonicMap
from logharm.norms import GridSpec, _radii


def build(name: str) -> LogHarmonicMap:
    return _BUILDERS[name]()


_BUILDERS = {
    # m = 0, omega = -z, pre-Schwarzian norm 5, h*g pre-Schwarzian norm 4
    "gap-one": lambda: LogHarmonicMap.from_strings(
        0, 0, "exp(z/(1-z))", "exp(-z/(1-z))/(1-z)"
    ),
    # m = 0, omega = z, pre-Schwarzian norm 5, h/g == z so that norm is 0
    "gap-five": lambda: LogHarmonicMap.from_strings(0, 0, "z/(1-z)", "1/(1-z)"),
    # m = 0, Moebius dilatation (a - z)/(1 - a z), a = 0.6
    "mobius-a60": lambda: LogHarmonicMap.from_strings(
        0, 0, "1/(1-z)", "(1-z)*(1-0.6*z)^(-8/3)"
    ),
    "mobius-a90": lambda: LogHarmonicMap.from_strings(
        0, 0, "1/(1-z)", "(1-z)*(1-0.9*z)^(-19/9)"
    ),
    "mobius-a99": lambda: LogHarmonicMap.from_strings(
        0, 0, "1/(1-z)", "(1-z)*(1-0.99*z)^(-199/99)"
    ),
    # analytic Koebe as a degenerate log-harmonic map (g constant)
    "koebe": lambda: LogHarmonicMap.from_strings(0, 0, "z/(1-z)^2", "1"),
    # m = 1, beta = 2: starlike, dilatation (2-3z)/(3-2z)
    "starlike-vanishing": lambda: LogHarmonicMap.from_strings(1, 2, "1/(1-z)", "1-z"),
    # m = 1, beta = 0, omega = z: z |1-z|^2 / (1-z)^2 * |exp(2z/(1-z))|^2 shape
    "logharmonic-koebe": lambda: LogHarmonicMap.from_strings(
        1, 0, "exp(2*z/(1-z))/(1-z)", "(1-z)*exp(2*z/(1-z))"
    ),
    # m = 1, beta = 0, omega = z, image the right half-plane
    "logharmonic-halfplane": lambda: LogHarmonicMap.from_strings(
        1, 0, "exp(z/(1-z))/(1-z)", "exp(z/(1-z))"
    ),
    # m = 1, beta = 0, h = g = 1/(1-z): the z/|1-z|^2 example
    "vanishing-simple": lambda: LogHarmonicMap.from_strings(1, 0, "1/(1-z)", "1/(1-z)"),
    # m = 0 with constant dilatation 0.4 (g is a power of h times a constant)
    "constant-dilatation": lambda: LogHarmonicMap.from_strings(
        0, 0, "exp(z+0.3*z^2)", "0.7*exp(0.4*z+0.12*z^2)"
    ),
    # complex beta exercises the powered zbar factor (right half-disk only
    # in tests: the z-power modulus jumps across the cut when Im(beta) != 0)
    "complex-beta": lambda: LogHarmonicMap.from_strings(
        1, complex(0.5, 0.25), "exp(0.2*z)", "1+0.3*z"
    ),
}

ALL_MAP_NAMES = tuple(_BUILDERS)

# maps whose P/S stay finite near the origin (for random-point identity sweeps)
IDENTITY_SUITE = (
    "gap-one",
    "gap-five",
    "mobius-a60",
    "mobius-a90",
    "koebe",
    "starlike-vanishing",
    "logharmonic-koebe",
    "logharmonic-halfplane",
    "vanishing-simple",
    "constant-dilatation",
    "complex-beta",
)


def one_call_reference(field, p: int, grid: GridSpec):
    """The whole grid in one field call; first max in (r, theta) order."""
    radii = _radii(0.0, grid.r_max, grid.radial_levels)
    thetas = np.arange(grid.angular_count) * (2.0 * math.pi / grid.angular_count)
    radii = [float(r) for r in radii]
    rings = [r * np.exp(1j * (thetas[:1] if r == 0.0 else thetas)) for r in radii]
    zs = np.concatenate(rings)
    weights = np.concatenate([np.full(len(z), (1.0 - r * r) ** p) for r, z in zip(radii, rings)])
    weighted = np.abs(field(zs)) * weights
    k = int(np.argmax(np.where(np.isfinite(weighted), weighted, -math.inf)))
    return float(weighted[k]), complex(zs[k])


@pytest.fixture
def gap_one():
    return build("gap-one")


@pytest.fixture
def gap_five():
    return build("gap-five")


@pytest.fixture
def starlike_vanishing():
    return build("starlike-vanishing")
