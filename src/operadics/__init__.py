"""Graded multilinear operations with partial compositions, brace algebra,
a coboundary complex with exact cohomology, and Lax-type time evolution.

The public surface re-exports the working vocabulary; the modules group as

    multiop     dense operations, partial composition, evaluation
    braces      the brace h{g1..gk} (total composition, tri- and tetrabrace,
                mu.mu are its named cases), cup product, bracket
    coboundary  the operator [., mu] and its derivation deviations
    cohomology  exact matrices, ranks, Betti tables, preimages
    dynamics    RK4 integration of dL/dt = [M, L] plus the closed-form oracle
    oscillator  the harmonic-oscillator Lax pair and transported solutions
    verify      randomized identity suites behind the `operadics verify` CLI
"""

from .braces import (
    brace,
    bracket,
    compose_associator,
    cup,
    mu_squared,
    tetrabrace,
    total_compose,
    tribrace,
)
from .bundled import bundled_path
from .coboundary import (
    adjoint_action,
    brace_deviation,
    coboundary,
    coboundary_square,
    coboundary_via_unit,
    compose_deviation,
    cup_deviation,
)
from .cohomology import (
    AlgebraSpec,
    BettiTable,
    CoboundaryMatrix,
    betti_table,
    cocycle_basis,
    coboundary_matrix,
    default_n_max,
    exact_rank,
    is_coboundary,
    load_algebra,
    nullspace,
    random_cocycle,
    solve_linear,
)
from .dynamics import (
    MAX_CELLS,
    MAX_STEPS,
    MAX_TRIPLETS,
    LaxSystem,
    Trajectory,
    conjugation_oracle,
    evaluate_observer,
    integrate,
    load_initial_op,
    load_lax_system,
    matrix_exp,
)
from .errors import (
    ArityMismatchError,
    BackendMismatchError,
    ConfigError,
    DegreeMismatchError,
    DegreeUnderflowError,
    DimMismatchError,
    MissingInitialOpError,
    NonFiniteError,
    NotAssociativeError,
    OperadError,
    ParseError,
    ShapeMismatchError,
    SizeCapError,
    SlotOutOfRangeError,
    VarianceMismatchError,
)
from .multiop import (
    COENDO,
    ENDO,
    EXACT,
    FLOAT,
    SIZE_CAP,
    MultiOp,
    add,
    allclose,
    apply,
    identity_op,
    is_zero,
    max_abs_diff,
    op_norm,
    partial_compose,
    random_op,
    scale,
    sub,
    zero_op,
)
from .oscillator import (
    MonodromyReport,
    OscillatorParams,
    canonical_flow,
    classical_lax,
    hamiltonian,
    m_matrix,
    monodromy_report,
    oscillator_system,
    resolve_l_init,
    transport_solution,
)
from .scalars import parse_exact, sign_pow
from .verify import (
    SuiteConfig,
    SuiteResult,
    derive_seed,
    diagonal_mu,
    run_all,
    run_suite,
    suite_names,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
