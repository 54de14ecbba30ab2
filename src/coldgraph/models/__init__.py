"""Models: the graph edge classifier and its four baselines."""

from .core import (  # noqa: F401
    EdgeGnnConfig,
    cast_params,
    classifier_forward,
    edge_embedder_forward,
    edge_gnn_forward,
    init_edge_gnn_params,
    init_relational_encoder,
    node_embedder_forward,
    relational_encoder_forward,
    rgcn_layer,
    sibling_offer_summaries,
)
from .train import (  # noqa: F401
    EdgeGnnModel,
    TrainConfig,
    TrainingDiverged,
    train_edge_gnn,
    train_mlp_heads,
    score_mlp_heads,
)
from .baselines import (  # noqa: F401
    ExpandedRgcnConfig,
    build_listing_table,
    init_expanded_rgcn_params,
    naive_fill_seller_features,
    score_expanded_rgcn,
    sign_features,
    sign_listing_table,
    train_expanded_rgcn,
)
from .checkpoint import (  # noqa: F401
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
