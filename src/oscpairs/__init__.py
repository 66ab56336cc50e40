"""Phase functions, amplitudes and distinguished solution pairs for
oscillatory equations y'' + q(x) y = 0."""

from .errors import (EvaluationError, GridError, IllConditionedError,
                     IntegrationError, NonOscillatoryError, OscpairsError,
                     ParameterError, ParseError, PhaseConsistencyError,
                     WindowError)
from .integrate import PairTrajectory, integrate_pair, normalize_unit_wronskian
from .phasekit import PhaseData, ResidualStats, appell_residual, phase_unwrap
from .principal import (CombinationCoefficients, PredicateReport,
                        PredicateResult, PrincipalReport, classify,
                        coefficient_matrix, find_principal,
                        sufficient_conditions, transform_pair)
from .qfunc import CATALOG_NAMES, EquationModel, catalog_get, parse_q
from .specfun import BesselValue, bessel_jy, example1_v, modulus
from .zeros import ZeroGapTable, critical_point_residual, gap_table, zeros_of

__version__ = "0.1.0"

__all__ = [
    "BesselValue", "CATALOG_NAMES", "CombinationCoefficients", "EquationModel",
    "EvaluationError", "GridError", "IllConditionedError", "IntegrationError",
    "NonOscillatoryError", "OscpairsError", "PairTrajectory", "ParameterError",
    "ParseError", "PhaseConsistencyError", "PhaseData", "PredicateReport",
    "PredicateResult", "PrincipalReport", "ResidualStats",
    "WindowError", "ZeroGapTable", "appell_residual",
    "bessel_jy", "catalog_get", "classify", "coefficient_matrix",
    "critical_point_residual", "example1_v",
    "find_principal", "gap_table", "integrate_pair", "modulus",
    "normalize_unit_wronskian", "parse_q", "phase_unwrap",
    "sufficient_conditions", "transform_pair",
    "zeros_of",
]
