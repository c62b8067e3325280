"""Parameter-robust three-field finite elements for Biot consolidation.

The package discretizes the reduced displacement/flux/pressure system with
H(div)-conforming elements, an interior-penalty treatment of the tangential
displacement, and cellwise-constant pressures, and ships the diagnostics
(inf-sup spectra, preconditioned MINRES, conservation audits, convergence
studies) used to verify the parameter-robust stability of the formulation.
"""

from .assembly import (BlockSystem, DGConfig, FormOperators,
                       IncompatibleSpaces, NormBlocks, assemble_ah)
from .analysis import (ConvergenceTable, InfSupResult, ManufacturedCase,
                       conservation_audit, convergence_study, error_norms,
                       infsup_constant, manufactured_case)
from .elements import (FESpace, QuadRule, RefBasis, DegenerateCell,
                       interpolate_pi_div, piola_map, project_qh,
                       ref_basis, triangle_rule)
from .meshing import TriMesh, jump_average_frames, structured_mesh
from .params import (FieldScaling, PhysicalParams, RangeViolation,
                     ReducedParams, DimensionMismatch, compose_timestep_rhs,
                     reduce)
from .solver import (BlockPreconditioner, BreakdownDetected, EigFailure,
                     FactorizationFailure, SingularNormMatrix, SolveReport,
                     build_preconditioner, estimate_condition, minres_solve,
                     solve_direct)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
