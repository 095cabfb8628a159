"""Twice-kicked quantum top coupled to a spin-1/2: spectra, symmetries,
chaos diagnostics, localization measures, and stroboscopic dynamics."""

from .dynamics import DynamicsSeries, ScanColumn, dynamical_scan, stroboscopic_series
from .errors import NumericalError
from .floquet import FloquetOperator, KickParams, floquet_operator, unitarity_defect
from .localization import (LocalizationResult, SphereGrid, angular_distance, coe_baseline,
                           husimi_peak, probe_columns, sphere_averaged_s2, sphere_grid)
from .meanfield import (BoundStatePrediction, allowed_kappa_x, bound_state_predictions,
                        topological_count_estimate)
from .spectral import (BoundStateRecord, QuasiSpectrum, R_COE, R_CUE, R_POISSON,
                       chiral_expectation, detect_bound_states,
                       mean_spacing_ratio, parity_resolved_r, quasi_spectrum,
                       sector_eigenphases, stage_borders, stage_classify)
from .spin import coherent_state, dim_top, product_state
from .symmetry import SymmetryReport, sector_indices, symmetry_operator, verify_symmetries

__version__ = "0.1.0"
