"""Richardson-Gaudin / Dicke solver suite.

Solves the Bethe equations of su(2) Richardson-Gaudin models by adiabatic
continuation from the decoupled secular limit, constructs the Dicke model as
the contraction limit of a single deformed quasispin copy, and verifies every
claim against an exact-diagonalization oracle.
"""

__version__ = "0.1.0"

from .algebra import (
    GaudinMatrices,
    LevelSet,
    build_gaudin,
    deformed_weight,
    eta0_infinity_row,
    extend_with_rapidities,
    grid_label,
    unitary_xi,
)
from .rg_core import (
    DickeSpec,
    ModelSpec,
    RapiditySet,
    ResidualReport,
    deformed_dicke_residual,
    deformed_rg_residual,
    dicke_rg_residual,
    rg_residual,
    tda_residual,
)
from .solver import (
    ContinuationPolicy,
    SolutionTrace,
    continue_in_xi,
    enumerate_dicke_branches,
    newton_solve,
    solve_rg,
    solve_tda,
)
from .dicke import (
    BetheProductState,
    OperatorExpression,
    bethe_coefficients,
    build_deformed_charge0,
    build_dicke_charge,
    build_dicke_hamiltonian,
)
from .ed_oracle import (
    HilbertBasis,
    MatrixOperator,
    commutator_norm,
    eigencheck,
    realize,
    realize_rg_charges,
    spectrum,
)
