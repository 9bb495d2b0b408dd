"""LoRA-FA at desk scale: frozen-A low-rank adapters with exact gradients,
activation/parameter memory accounting, and gradient-compression
equivalence checks, on a small trained-from-scratch transformer.
"""

from .adapters import AdaptedLinear, Mode, RetainedActivations, backward as layer_backward
from .adapters import forward as layer_forward
from .adapters import init_adapter, merge
from .equivalence import estimate_unbiasedness, subspace_check, verify_sgd_equivalence
from .errors import (
    DataError,
    DimensionError,
    LorafaError,
    ModeError,
    NumericsError,
    ParameterError,
    ReconciliationError,
    RetentionPolicyError,
    StateError,
)
from .memory import MemoryBreakdown, analytic_report, measured_activation_elements, reconcile
from .model import (
    ModelConfig,
    TransformerModel,
    backward,
    build_model,
    count_trainable,
    count_trainable_formula,
    forward_logits,
    forward_loss,
    trainable_params,
)
from .optim import AdamWConfig, SGDConfig, adamw_step, init_adamw_state, sgd_step
from .rng import RngState, derive, randn
from .tasks import gen_task
from .train import RunConfig, RunReport, SweepGrid, sweep, train_run

__version__ = "0.1.0"
