"""Numerical toolkit for log-harmonic mappings on the unit disk.

Evaluates pre-Schwarzian and Schwarzian derivatives of sense-preserving
log-harmonic mappings, estimates their hyperbolically weighted sup-norms,
and checks univalence and starlikeness criteria together with the
sharpness examples that calibrate them.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .criteria import (
    CheckReport,
    associated_starlike,
    becker_check,
    epsilon_norm_gap_check,
    hg_epsilon_univalence_check,
    nehari_check,
    norm_gap_check,
    pre_schwarzian_bound_check,
    schwarz_pick_check,
    starlike_check,
)
from .errors import (
    AllSamplesFailed,
    CriticalPoint,
    DegenerateDenominator,
    EvaluationError,
    IoFailure,
    NotSensePreserving,
    PoleEncountered,
    ZeroEncountered,
)
from .expr import Expr, ExprSyntaxError, eval_jet, eval_value, parse, unparse, wirtinger_pair
from .fixtures import Fixture, FixtureResult, fixture_names, load_fixture, run_fixture
from .jets import Jet
from .maps import (
    LogHarmonicMap,
    analytic_pre_schwarzian,
    analytic_schwarzian,
    compose_with_analytic,
    dbar_pre_schwarzian,
    dbar_pre_schwarzian_field,
    dbar_schwarzian,
    dbar_schwarzian_field,
    dilatation,
    dilatation_field,
    hg_epsilon_pre_schwarzian,
    jacobian,
    map_value,
    phi_family,
    pre_schwarzian,
    schwarzian,
    wirtinger,
)
from .norms import (
    GridSpec,
    NormEstimate,
    RadialProfile,
    bloch_norm_log,
    pre_schwarzian_norm,
    radial_profile,
    schwarzian_norm,
    weighted_sup,
)
from .render import RenderJob, RenderSummary, render_image

__all__ = [
    "AllSamplesFailed",
    "CheckReport",
    "CriticalPoint",
    "DegenerateDenominator",
    "EvaluationError",
    "Expr",
    "ExprSyntaxError",
    "Fixture",
    "FixtureResult",
    "GridSpec",
    "IoFailure",
    "Jet",
    "LogHarmonicMap",
    "NormEstimate",
    "NotSensePreserving",
    "PoleEncountered",
    "RadialProfile",
    "RenderJob",
    "RenderSummary",
    "ZeroEncountered",
    "analytic_pre_schwarzian",
    "analytic_schwarzian",
    "associated_starlike",
    "becker_check",
    "bloch_norm_log",
    "compose_with_analytic",
    "dbar_pre_schwarzian",
    "dbar_pre_schwarzian_field",
    "dbar_schwarzian",
    "dbar_schwarzian_field",
    "dilatation",
    "dilatation_field",
    "epsilon_norm_gap_check",
    "eval_jet",
    "eval_value",
    "fixture_names",
    "hg_epsilon_pre_schwarzian",
    "hg_epsilon_univalence_check",
    "jacobian",
    "load_fixture",
    "map_value",
    "nehari_check",
    "norm_gap_check",
    "parse",
    "phi_family",
    "pre_schwarzian",
    "pre_schwarzian_bound_check",
    "pre_schwarzian_norm",
    "radial_profile",
    "render_image",
    "run_fixture",
    "schwarz_pick_check",
    "schwarzian",
    "schwarzian_norm",
    "starlike_check",
    "unparse",
    "weighted_sup",
    "wirtinger",
    "wirtinger_pair",
    "__version__",
]
