"""Open-world semi-supervised self-labeling toolkit."""

from .core import (
    ClassPrior,
    LabeledBlock,
    PartitionSpec,
    ProbMatrix,
    Rng,
    softmax,
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
    make_pseudo_batch,
    thresholds,
    update_state,
)
from .objectives import (
    clustering_loss,
    confidence_loss,
    supervised_loss,
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
    ecs_ordering_condition,
)
from .evaluation import (
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
    train,
)

__version__ = "0.1.0"
