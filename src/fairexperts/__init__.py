"""Group-fair classification without harm.

Learns group-specific representations through discriminator linkage,
learnable per-(group, class) centers, and a diversity loss; trains
per-group expert heads; and post-selects between experts and a pooled
baseline under a no-harm constraint (greedy max-min or an exact integer
program).
"""

from .config import ExperimentConfig, load_config
from .data import (
    CsvSchema,
    DataError,
    Dataset,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    save_csv,
)
from .experiment import run_experiment, run_seed
from .losses import (
    CenterCosines,
    PairAssignment,
    VirtualCenters,
    center_alignment_loss,
    discriminator_loss,
    diversity_loss,
    sample_pairs,
)
from .metrics import (
    GroupMetrics,
    auc,
    build_report,
    gap,
    group_eval,
    max_min,
)
from .net import Layer, Mlp, TrainingDivergence, init_mlp, sgd_step
from .selection import (
    SelectionDecision,
    combine,
    select_greedy,
    select_ip,
)
from .training import (
    HyperParams,
    Model,
    probe_group_accuracy,
    train_decoupled,
    train_erm,
    train_experts,
)

__version__ = "0.1.0"
