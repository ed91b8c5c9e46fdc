"""Sparse-core Bayesian Poisson Tucker decomposition via Gibbs sampling."""

__version__ = "0.1.0"

from .tensors import (  # noqa: F401
    SparseCountTensor,
    FiberMask,
    HeldoutSet,
    EventSchema,
    TimeBinning,
    load_events,
    make_fiber_mask,
    split,
    load_coo,
    write_coo,
    load_mask,
    write_mask,
)
from .state import (  # noqa: F401
    Hyperparameters,
    ModelState,
    init_canonical,
    init_explicit,
    core_value_at,
    reconstruct_at,
    reconstruct_cells,
    effective_dims,
    save_state,
    load_state,
)
from .gibbs import (  # noqa: F401
    ChainConfig,
    LatentSources,
    MaskCorrections,
    PosteriorSamples,
    run_chain,
    thin_counts,
    sample_locations,
    sample_lambda,
    sample_phi,
    sample_pi,
)
from .evaluation import (  # noqa: F401
    ClassSummary,
    ppd,
    ppd_positive,
    ppd_constant_baseline,
    train_loglik,
    top_classes,
    export_classes,
    load_samples,
)
from .synthetic import (  # noqa: F401
    SyntheticConfig,
    default_config,
    generate,
    recovery_trace,
)
