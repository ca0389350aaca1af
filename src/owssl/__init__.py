"""Open-world semi-supervised self-labeling toolkit."""

from .core import (
    ClassPrior,
    LabeledBlock,
    PartitionSpec,
    ProbMatrix,
    Rng,
    softmax,
    validate_prob_matrix,
)
from .sinkhorn import (
    Assignment,
    SinkhornConfig,
    marginal_error,
    residual_row_marginals,
    solve_conditional,
    solve_unconditional,
)
from .threshold import (
    PseudoBatch,
    ThresholdState,
    hierarchical_threshold,
    make_pseudo_batch,
    thresholds,
    update_state,
)
from .objectives import (
    LossBreakdown,
    ce_logit_gradient,
    clustering_loss,
    confidence_loss,
    cross_entropy,
    supervised_loss,
    total_loss,
)
from .theory import (
    EcsReport,
    PopulationSpec,
    chi_square_statistic,
    ecs_con_closed,
    ecs_uncon_closed,
    estimator_con,
    estimator_uncon,
    monte_carlo_ecs,
    sample_multinomial,
    ecs_ordering_condition,
)
from .evaluation import (
    MatchResult,
    clustering_accuracy,
    clustering_report,
    estimate_num_classes,
    hungarian,
    kmeans,
    manhattan_bias,
)
from .harness import (
    HyperParams,
    LogitQueue,
    RunLog,
    SyntheticConfig,
    SyntheticDataset,
    ToyModel,
    estimate_prior_adaptive,
    generate_dataset,
    run_bias_trajectory,
    train,
)

__version__ = "0.1.0"
