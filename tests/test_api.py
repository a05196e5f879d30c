"""The set of public names the moeforge package exports."""

import types

import moeforge

# Growing or shrinking this set changes the public API; CHANGES.md lists it.
PUBLIC_API = {
    # analytics
    "CoSelectionMatrix", "co_selection", "mean_partner_count", "pattern_specialization",
    "search_space_size",
    # ffn
    "FfnGrads", "FfnParams", "ffn_backward_batch", "ffn_forward_batch", "init_ffn",
    # harness
    "DivergenceError", "IdentityViolation", "EvalResult", "SyntheticTask", "ToyModel", "TrainConfig",
    "ablate_tuning_subsets", "evaluate", "generate_batch", "init_toy_model", "make_task", "moe_tune",
    "pretrain", "run_gradcheck",
    # moe
    "MoeConfig", "MoeLayer", "RouterParams", "RoutingTrace",
    "balance_loss_backward", "dispatch_batch", "dispatch_loop", "expand_supernet",
    "init_router", "load_balance_loss", "route_batch", "split_ffn", "top_k_select_rows", "total_loss",
    # numkernel
    "ShapeError", "gelu", "gelu_grad", "make_rng", "mm", "relu", "relu_grad", "softmax_rows",
    # serialize
    "FormatError", "load_toy_model", "read_trace_jsonl", "save_toy_model", "write_trace_jsonl",
}


def test_public_names_are_pinned():
    exported = {name for name, value in vars(moeforge).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(exported - PUBLIC_API) == [] and sorted(PUBLIC_API - exported) == []
