"""Graph learning engine for cold-start edge classification on seller-product graphs.

The package is organized as a small numpy/scipy library:

- :mod:`coldgraph.autodiff` - dense tensor engine with taped reverse-mode AD
- :mod:`coldgraph.graph` - heterogeneous graph with offers stored as edges
- :mod:`coldgraph.storage` - on-disk graph bundle format
- :mod:`coldgraph.sampling` - ego networks and their message-flow plans
- :mod:`coldgraph.simulate` - synthetic graph generator and cold-start scenarios
- :mod:`coldgraph.models` - the edge classifier and its four baselines
- :mod:`coldgraph.evaluate` - per-class AUC reports and the scaling benchmark
- :mod:`coldgraph.experiment` - experiment configs and the repro pipeline
- :mod:`coldgraph.cli` - command line front end
"""

__version__ = "0.1.0"

from . import autodiff  # noqa: F401
from .evaluate import (  # noqa: F401
    EvalReport,
    geometric_mean_auc,
    per_class_report,
    roc_auc,
    scaling_benchmark,
)
from .experiment import (  # noqa: F401
    MODEL_KINDS,
    ExperimentConfig,
    ModelConfig,
    run_repro,
    score_model,
    train_model,
)
from .graph import (  # noqa: F401
    CLASS_NAMES,
    N_CLASSES,
    N_RELATIONS,
    ExpandedGraph,
    HeteroGraph,
    NodeType,
    Relation,
    build_expanded_graph,
)
from .models import (  # noqa: F401
    EdgeGnnConfig,
    EdgeGnnModel,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train_edge_gnn,
)
from .sampling import extract_ego_network  # noqa: F401
from .simulate import (  # noqa: F401
    SCENARIOS,
    GeneratorConfig,
    ScenarioSpec,
    apply_scenario,
    generate_synthetic_graph,
    make_scenario,
)
from .storage import load_graph, save_graph  # noqa: F401
