"""Distributed streaming multitask learning over graphs.

Networks of agents run stochastic-gradient updates on private data streams
and couple through a pluggable social step (smoothness penalties, spectral
graph filters, sparsity-promoting proximal maps, diffusion combinations,
subspace projections, overlapping and clustered variants). Closed-form
small-step-size predictions for the steady-state error live in
:mod:`adaptnets.theory`; :mod:`adaptnets.harness` runs Monte Carlo
experiments against them.
"""

from .graphs import (
    CombinationMatrix,
    ClusterPartition,
    EigensolverError,
    FeasibilityReport,
    Graph,
    SpectralKernel,
    Spectrum,
    Subspace,
    apply_spectral_kernel,
    build_laplacian,
    chebyshev_fit,
    check_feasibility,
    cluster_subspace,
    complete_graph,
    consensus_subspace,
    graph_fourier,
    inverse_graph_fourier,
    laplacian_weights,
    load_graph,
    metropolis_weights,
    projector,
    random_geometric_graph,
    ring_graph,
    save_graph,
    smoothness,
    star_graph,
)
from .streaming import (
    NetworkSample,
    SampleBlock,
    StreamModel,
    TaskField,
    draw_horizon,
    load_tasks,
    network_gradient,
    pad_blocks,
    save_tasks,
    sigmoid,
    synth_smooth_tasks,
)
from .strategies import (
    STRATEGY_KINDS,
    EdgeRegularizer,
    InterestMap,
    Strategy,
    StrategyConfig,
    build_strategy,
    cluster_metropolis,
    overlap_metropolis,
    self_learn,
)
from .theory import (
    BiasPrediction,
    FilterBoundReport,
    NoncoopPrediction,
    TheoryInputs,
    VariancePrediction,
    bias_smoothness,
    filter_bound,
    msd_noncooperative,
    msd_projection,
    variance_smoothness,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    ResolvedExperiment,
    data_stream,
    data_streams,
    load_config,
    parse_config,
    resolve,
)
from .harness import (
    DivergenceError,
    ExperimentResult,
    SteadyState,
    SweepPoint,
    TheoryComparison,
    compare_theory,
    eta_sweep,
    run_experiment,
    save_result,
    save_sweep,
    steady_state,
)

__version__ = "0.1.0"
