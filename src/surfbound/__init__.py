"""Exact effective bounds for multiple linear systems on surfaces.

A surface enters as a finite model: an integer intersection form of
signature (1, rank-1), a canonical class, and the curves that can appear in
fixed parts and contracted loci. Everything downstream is exact rational
arithmetic: Zariski decompositions, fundamental cycles, obstruction
enumeration, and the n-thresholds for very-ampleness, vanishing, freeness,
contraction, and ring generation of n*A + T.
"""

from .bounds import (
    INFINITY,
    Analysis,
    BoundReport,
    ConditionFlags,
    CorrectionDivisor,
    HodgeDefect,
    MatsusakaComparison,
    ObstructionQuadratic,
    ObstructionSet,
    RingGeneration,
    SeparatingDivisor,
    ThresholdCheck,
    ThresholdEntry,
    build_bound_report,
    least_integer_above,
    matsusaka_compare,
    obstruction_oracle,
    ring_step_threshold,
    theorem_thresholds,
    threshold_holds,
    vanishing_threshold,
)
from .cycles import (
    FundamentalCycle,
    cycle_bruteforce_oracle,
    fundamental_cycle,
)
from .errors import (
    CalculatorError,
    IntegralityFailure,
    ModelInconsistent,
    NotAmple,
    NotBig,
    NotNefBig,
    NotPseudoEffective,
    OracleMismatch,
    ParseError,
    UnverifiableHypothesis,
    ValidationError,
)
from .surface import CurveClass, DivisorClass, SurfaceModel
from .surface_io import (
    fixture_names,
    load_fixture,
    load_surface,
    load_surface_file,
    parse_divisor,
    surface_from_data,
    surface_to_data,
)
from .zariski import (
    H1Correction,
    ZariskiDecomposition,
    h1_correction,
    kappa_is_two,
    zariski_decompose,
    zariski_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "Analysis",
    "BoundReport",
    "CalculatorError",
    "ConditionFlags",
    "CorrectionDivisor",
    "CurveClass",
    "DivisorClass",
    "FundamentalCycle",
    "H1Correction",
    "HodgeDefect",
    "IntegralityFailure",
    "MatsusakaComparison",
    "ModelInconsistent",
    "NotAmple",
    "NotBig",
    "NotNefBig",
    "NotPseudoEffective",
    "ObstructionQuadratic",
    "ObstructionSet",
    "OracleMismatch",
    "ParseError",
    "RingGeneration",
    "SeparatingDivisor",
    "SurfaceModel",
    "ThresholdCheck",
    "ThresholdEntry",
    "UnverifiableHypothesis",
    "ValidationError",
    "ZariskiDecomposition",
    "build_bound_report",
    "cycle_bruteforce_oracle",
    "fixture_names",
    "fundamental_cycle",
    "h1_correction",
    "kappa_is_two",
    "least_integer_above",
    "load_fixture",
    "load_surface",
    "load_surface_file",
    "matsusaka_compare",
    "obstruction_oracle",
    "parse_divisor",
    "ring_step_threshold",
    "surface_from_data",
    "surface_to_data",
    "theorem_thresholds",
    "threshold_holds",
    "vanishing_threshold",
    "zariski_decompose",
    "zariski_oracle",
]
