"""Spectral solver and verification suite for traveling free-surface viscous
flow with heat transport in a periodic strip."""

from .params import (PhysicalParams, ConstitutiveSet, make_constitutive,
                     validate_params, check_parameter_gate, estimate_q_norms,
                     verify_constitutive_linearization)
from .grids import FrequencyGrid, VerticalGrid
from .fields import (SpectralField, SurfaceSpectral, YData, read_ydata_csv,
                     write_ydata_csv)
from .norms import (sobolev_norm, surface_sobolev_norm, x_norm, hdot_neg1,
                    check_divergence_trace, ydata_norm)
from .geometry import FlatteningFields, build_flattening, mean_curvature
from .odesystem import (FrequencyStack, SymbolTable, assemble_bulk_matrix,
                        assemble_boundary)
from .asymptotics import (AsymptoticReport, fit_lf_coefficient,
                          check_rho_bounds, check_highfreq_decay, full_report)
from .linear import (LinearState, apply_linear_operator, solve_surface,
                     LinearInverter, state_norm, make_random_state)
from .nonlinear import (ForcingData, SolveTrace, nonlinear_residual,
                        picard_solve, pushforward_eulerian,
                        make_forcing_preset)
from .config import RunConfig

__version__ = "0.1.0"
