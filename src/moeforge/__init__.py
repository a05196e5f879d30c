"""moeforge: mixture-of-experts layer mechanics built from a dense FFN.

Decompose a pretrained feed-forward network into fine-grained experts,
expand it into a supernet whose initial output reproduces the base network
exactly, route tokens through hard top-k gates, dispatch batches expert-wise
with bitwise loop equivalence, and study the resulting routing statistics.
"""

__version__ = "0.1.0"

from .analytics import (
    CoSelectionMatrix,
    co_selection,
    mean_partner_count,
    pattern_specialization,
    search_space_size,
)
from .ffn import (
    FfnGrads,
    FfnParams,
    ffn_backward_batch,
    ffn_forward_batch,
    init_ffn,
)
from .harness import (
    DivergenceError,
    IdentityViolation,
    EvalResult,
    SyntheticTask,
    ToyModel,
    TrainConfig,
    ablate_tuning_subsets,
    evaluate,
    generate_batch,
    init_toy_model,
    make_task,
    moe_tune,
    pretrain,
    run_gradcheck,
)
from .moe import (
    MoeConfig,
    MoeLayer,
    RouterParams,
    RoutingTrace,
    balance_loss_backward,
    dispatch_batch,
    dispatch_loop,
    expand_supernet,
    init_router,
    load_balance_loss,
    route_batch,
    split_ffn,
    top_k_select_rows,
    total_loss,
)
from .numkernel import (
    ShapeError,
    gelu,
    gelu_grad,
    make_rng,
    mm,
    relu,
    relu_grad,
    softmax_rows,
)
from .serialize import (
    FormatError,
    load_toy_model,
    read_trace_jsonl,
    save_toy_model,
    write_trace_jsonl,
)
