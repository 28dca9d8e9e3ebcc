"""Memory-aware dynamic mode decomposition.

Fits one-step transition operators to partially observed dynamics three
ways: the plain least-squares fit, a memory-aware objective derived from a
discretized memory-kernel recursion, and its cheaper first-order-in-time
approximation.  Ensembles over random memory initializations yield averaged
spectra, reconstructed expected dynamics, and empirical variance estimates;
a coupled-oscillator benchmark and a CLI pipeline tie it together.
"""

from .config import ExperimentConfig, default_config
from .ensemble import (
    EnsembleResult,
    MatchingDegeneracyWarning,
    SpectralModel,
    ensemble_variance,
    fit_ensemble,
    match_and_average,
    reconstruct,
    run_ensemble,
)
from .errors import (
    ConfigError,
    DivergenceError,
    EnsembleError,
    NumericalError,
    SingularMatrixError,
)
from .harness import (
    MethodFailure,
    RunReport,
    dmd_spectral_model,
    run_experiment,
    simulate_measurement,
    write_csv,
)
from .linalg import (
    EigDecomposition,
    eig,
    expm,
    expm_frechet,
    phase_normalize,
    pinv,
    solve,
)
from .objectives import (
    MZ_DMD,
    OBJECTIVE_KINDS,
    PLAIN_DMD,
    T_MODEL,
    Objective,
    SnapshotPair,
    cayley_M,
    dmd_fit,
    fd_gradient,
    mz_memory_matrix,
    objective_value,
    objective_value_and_gradient,
    tmodel_memory_matrix,
)
from .optim import AdamConfig, adam_step, fit_transition
from .oscillator import (
    SimConfig,
    Trajectory,
    hamiltonian,
    integrate,
    monte_carlo_projection,
    rng_stream,
)
from .plots import emit_plot

__version__ = "0.1.0"
