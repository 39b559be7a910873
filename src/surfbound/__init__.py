"""Exact effective bounds for multiple linear systems on surfaces.

A surface enters as a finite model: an integer intersection form of
signature (1, rank-1), a canonical class, and the curves that can appear in
fixed parts and contracted loci. Everything downstream is exact rational
arithmetic: Zariski decompositions, fundamental cycles, obstruction
enumeration, and the n-thresholds for very-ampleness, vanishing, freeness,
contraction, and ring generation of n*A + T.
"""

from types import ModuleType as _Module

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

# every name imported above that is neither private nor a module
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _Module)
]
