"""
Cold-start gap, end to end
==========================

Trains the edge-classification GNN and the tabular baseline on one
synthetic graph, then scores both on the new-seller scenario where the
eval offers' seller and offer features are zeroed. The GNN can still
reach the seller's neighborhood; the tabular model cannot, and the
per-class AUC table shows the difference.
"""

from coldgraph.evaluate import per_class_report
from coldgraph.experiment import ModelConfig, score_model, train_model
from coldgraph.graph import CLASS_NAMES
from coldgraph.simulate import (
    GeneratorConfig, apply_scenario, generate_synthetic_graph, make_scenario,
)

gen = GeneratorConfig(
    n_sellers=1200, n_products=2000, n_communities=10, n_categories=8,
    d_s=12, d_p=8, d_o=8, offers_per_seller=3.5, seed=7,
)
g = generate_synthetic_graph(gen)
print(f"graph: {g.n_offers} offers, {g.n_edges} edges")

mc = ModelConfig(hidden=32, gnn_layers=3, edge_hidden=32, cls_hidden=32,
                 epochs=6, batch_size=512, mlp_hidden=32, mlp_epochs=12)

models = {}
for kind in ("edge_gnn", "tabular"):
    models[kind] = train_model(g, kind, seed=7, mc=mc)
    print(f"trained {kind}; final loss "
          f"{[round(h[-1], 4) for h in models[kind].history]}")

spec = make_scenario(g, "new_seller", seed=7)
masked, eval_offers = apply_scenario(g, spec)
labels = g.labels[eval_offers]
print(f"new_seller eval set: {len(eval_offers)} offers "
      f"from {len(spec.new_sellers)} masked sellers")

scores = {
    kind: score_model(kind, m.arch, m.param_groups, masked, eval_offers, spec)
    for kind, m in models.items()
}
base = per_class_report(scores["tabular"], labels, scenario="new_seller")
gnn = per_class_report(scores["edge_gnn"], labels, baseline=base,
                       scenario="new_seller")

print(f"\n{'class':12s} {'tabular':>8s} {'edge_gnn':>9s} {'delta_pcp':>10s}")
for k, name in enumerate(CLASS_NAMES):
    b = "   --" if base.auc[k] is None else f"{base.auc[k]:.3f}"
    a = "   --" if gnn.auc[k] is None else f"{gnn.auc[k]:.3f}"
    d = "" if gnn.delta_pcp[k] is None else f"{gnn.delta_pcp[k]:+.1f}"
    print(f"{name:12s} {b:>8s} {a:>9s} {d:>10s}")
print(f"{'geo mean':12s} {base.geo_mean:8.3f} {gnn.geo_mean:9.3f} "
      f"{100 * (gnn.geo_mean - base.geo_mean):+10.1f}")
