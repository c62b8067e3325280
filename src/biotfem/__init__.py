"""Parameter-robust three-field finite elements for Biot consolidation.

The package discretizes the reduced displacement/flux/pressure system with
H(div)-conforming elements, an interior-penalty treatment of the tangential
displacement, and cellwise-constant pressures, and ships the diagnostics
(inf-sup spectra, preconditioned MINRES, conservation audits, convergence
studies) used to verify the parameter-robust stability of the formulation.
"""

from .assembly import (AffineLoad, BlockSystem, DGConfig, FormOperators,
                       IncompatibleSpaces, NormBlocks)
from .analysis import (ConvergenceTable, InfSupResult, ManufacturedCase,
                       conservation_audit, convergence_study, error_norms,
                       infsup_constant, manufactured_case)
from .elements import (FESpace, QuadRule, DegenerateCell,
                       interpolate_pi_div, project_qh, triangle_rule)
from .meshing import TriMesh, structured_mesh
from .params import (FieldScaling, PhysicalParams, RangeViolation,
                     ReducedParams, DimensionMismatch, compose_timestep_rhs,
                     reduce)
from .solver import (BlockPreconditioner, BreakdownDetected, DirectSolver,
                     EigFailure, FactorizationFailure, SingularNormMatrix,
                     SolveReport, build_preconditioner, estimate_condition,
                     minres_solve, solve_direct)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
