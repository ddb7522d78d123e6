"""Shared mapping fixtures for the test suite.

The maps come from the shipped catalog (`fixtures.json`), whose entries
each have a closed-form story (dilatation, norm, or both) that individual
tests pin down; the identity-style property tests sweep the whole family.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from logharm.fixtures import fixture_names, load_fixture
from logharm.maps import LogHarmonicMap
from logharm.norms import GridSpec, _radii

# complex beta exercises b = conj(beta) m in the powered zbar factor; it is
# kept out of the catalog, whose maps the benchmark evaluates
_COMPLEX_BETA = "complex-beta"


def build(name: str) -> LogHarmonicMap:
    if name == _COMPLEX_BETA:
        return LogHarmonicMap.from_strings(1, complex(0.5, 0.25), "exp(0.2*z)", "1+0.3*z")
    return load_fixture(name).map


ALL_MAP_NAMES = fixture_names() + (_COMPLEX_BETA,)

# maps whose P/S stay finite near the origin (for random-point identity sweeps)
IDENTITY_SUITE = tuple(name for name in ALL_MAP_NAMES if name != "mobius-gap-a99")


def walk_ring(n: int) -> np.ndarray:
    """The angles the grid walk samples: exp(i theta_j), with angle n - j the
    conjugate of angle j when n is even."""
    ring = np.exp(1j * (np.arange(n) * (2.0 * math.pi / n)))
    if n % 2 == 0:
        ring[n // 2 + 1 :] = np.conj(ring[1 : n // 2][::-1])
    return ring


def one_call_reference(field, p: int, grid: GridSpec):
    """The whole grid in one field call; first max in (r, theta) order."""
    radii = _radii(0.0, grid.r_max, grid.radial_levels)
    ring = walk_ring(grid.angular_count)
    radii = [float(r) for r in radii]
    rings = [r * (ring[:1] if r == 0.0 else ring) for r in radii]
    zs = np.concatenate(rings)
    weights = np.concatenate([np.full(len(z), (1.0 - r * r) ** p) for r, z in zip(radii, rings)])
    weighted = np.abs(field(zs)) * weights
    k = int(np.argmax(np.where(np.isfinite(weighted), weighted, -math.inf)))
    return float(weighted[k]), complex(zs[k])


@pytest.fixture
def gap_one():
    return build("gap-one-sharp")


@pytest.fixture
def gap_five():
    return build("gap-five-sharp")


@pytest.fixture
def starlike_vanishing():
    return build("starlike-vanishing")
