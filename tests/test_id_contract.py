"""Every public entry point that takes node or offer ids holds them to one
contract, ``graph.id_array``'s: a flat array with an integer dtype and ids
in ``[0, n)``.  A cast would read a fractional id as a whole one and a
negative id would index from the end, so either would silently score or
fill the wrong entity; each raises ValueError naming the argument and the
first bad id instead.  No ids give the entry point's empty result where
it has one.

The command line runs the contract too: ``coldgraph score`` on a scenario
file's ``eval_offers`` and ``coldgraph eval`` on a score file's offer ids.
"""

import contextlib
import dataclasses
import io
import json
from typing import Callable, Optional

import numpy as np
import pytest

from _helpers import tiny_config
from coldgraph.cli import main
from coldgraph.experiment import read_scores_csv, score_model, train_model, write_scores_csv
from coldgraph.graph import build_expanded_graph, id_array
from coldgraph.models import (
    EdgeGnnConfig,
    EdgeGnnModel,
    ExpandedRgcnConfig,
    naive_fill_seller_features,
    save_checkpoint,
    score_expanded_rgcn,
    sibling_offer_summaries,
)
from coldgraph.models.core import edge_gnn_scores
from coldgraph.sampling import ego_network, extract_ego_network
from coldgraph.simulate import ScenarioSpec, apply_scenario, generate_synthetic_graph
from coldgraph.storage import save_graph

INPUTS = {  # input -> its ids, given the id range [0, n)
    "fractional": lambda n: [0.7],
    "2-D": lambda n: [[0, 1]],
    "negative": lambda n: [0, -1, -2],  # the first bad id, not the smallest
    "too-large": lambda n: [0, n, n + 1],  # the first bad id, not the largest
    "empty": lambda n: [],
}


@dataclasses.dataclass
class Entry:
    call: Callable  # ids -> result; a command raises ValueError with its error line
    what: str  # one id, as the messages name the argument
    n: int  # ids lie in [0, n)
    empty: Optional[Callable] = None  # checks the result of no ids; None: they raise
    messages: dict = dataclasses.field(default_factory=dict)  # input -> message, if not id_array's

    def message(self, case: str) -> str:
        return self.messages.get(case) or {
            "fractional": f"{self.what}s must have an integer dtype, got float64",
            "2-D": f"{self.what}s must be a flat array, got shape (1, 2)",
            "negative": f"{self.what} -1 out of range [0, {self.n})",
            "too-large": f"{self.what} {self.n} out of range [0, {self.n})",
            "empty": f"{self.what}s must not be empty",
        }[case]


def _command(*argv) -> str:
    """``coldgraph argv`` in-process; its stdout, or ValueError with its error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    if rc:
        raise ValueError(err.getvalue().splitlines()[-1].removeprefix("error: "))
    return out.getvalue()


def _rows(shape):
    return lambda result: result.shape == shape


@pytest.fixture(scope="module")
def entries(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("ids")
    g = generate_synthetic_graph(tiny_config().generator)
    mc = dataclasses.replace(tiny_config().model, epochs=0, mlp_epochs=0, expanded_epochs=0)
    tabular, edge, expanded = (train_model(g, kind, 0, mc)
                               for kind in ("tabular", "edge_gnn", "rgcn_expanded"))
    edge_cfg = EdgeGnnConfig.from_dict(edge.arch)
    model = EdgeGnnModel(cfg=edge_cfg, param_groups=edge.param_groups)
    eg, expanded_cfg = build_expanded_graph(g), ExpandedRgcnConfig.from_dict(expanded.arch)
    stack = g.normalized_stack()

    save_graph(g, root / "graph")
    save_checkpoint(root / "tabular.ckpt", "tabular", tabular.arch, tabular.param_groups)
    scenario, scores, scores_out = root / "scenario.json", root / "scores.csv", root / "out.csv"

    def score_command(ids):
        scenario.write_text(json.dumps({"scenario": "new_offer", "seed": 0, "eval_offers": ids}))
        _command("score", "--checkpoint", root / "tabular.ckpt", "--graph", root / "graph",
                 "--scenario", scenario, "--out", scores_out)
        return read_scores_csv(scores_out)[1]

    def eval_command(ids):
        write_scores_csv(scores, np.zeros(0, dtype=np.int64), np.zeros((0, 9)))
        with scores.open("a") as f:
            f.writelines(f"{i}" + ",0.5" * 9 + "\n" for i in ids)
        return json.loads(_command("eval", "--scores", scores, "--graph", root / "graph",
                                   "--out-prefix", root / "report"))

    offer = dict(what="offer id", n=g.n_offers)
    return {
        "score_model": Entry(lambda ids: score_model("tabular", tabular.arch,
                                                     tabular.param_groups, g, ids),
                             empty=_rows((0, 9)), **offer),
        "EdgeGnnModel.score": Entry(lambda ids: model.score(g, ids), empty=_rows((0, 9)),
                                    **offer),
        "edge_gnn_scores": Entry(lambda ids: edge_gnn_scores(g, ids, edge.param_groups, edge_cfg),
                                 empty=_rows((0, 9)), **offer),
        "sibling_offer_summaries": Entry(
            lambda ids: sibling_offer_summaries(g, ids),
            empty=lambda sums: [s.shape for s in sums] == [(0, g.d_o)] * 2, **offer),
        "extract_ego_network": Entry(lambda ids: extract_ego_network(g, ids, 2), **offer),
        "ego_network": Entry(lambda ids: ego_network(stack, ids, 2), "seed", stack.shape[1]),
        "score_expanded_rgcn": Entry(
            lambda ids: score_expanded_rgcn(eg, expanded.param_groups[0], expanded_cfg, ids),
            empty=_rows((0, 9)), **offer),
        "naive_fill_seller_features": Entry(
            lambda ids: naive_fill_seller_features(g, ids), "new seller", g.n_sellers,
            empty=lambda filled: np.array_equal(filled, g.seller_features)),
        "apply_scenario": Entry(
            lambda ids: apply_scenario(g, ScenarioSpec("new_offer", 0, eval_offers=tuple(ids))),
            "scenario eval_offers id", g.n_offers, empty=lambda out: out[1].shape == (0,)),
        # the scenario file's codec names a value that is not an integer
        "coldgraph score": Entry(
            score_command, "scenario eval_offers id", g.n_offers, empty=_rows((0, 9)),
            messages={"fractional": "ScenarioSpec.eval_offers[0]: expected an integer, got 0.7",
                      "2-D": "ScenarioSpec.eval_offers[0]: expected an integer, got [0, 1]"}),
        # the score file's parser names its path and line; its id column is flat
        "coldgraph eval": Entry(
            eval_command, f"score file {scores}: offer id", g.n_offers,
            empty=lambda report: report["n_listings"] == 0,
            messages={"fractional": f"{scores}:2: invalid literal for int() with base 10: '0.7'",
                      "negative": f"{scores}:3: negative offer id -1"}),
    }


CASES = [(entry, case) for entry in (
    "score_model", "EdgeGnnModel.score", "edge_gnn_scores", "sibling_offer_summaries",
    "extract_ego_network", "ego_network", "score_expanded_rgcn", "naive_fill_seller_features",
    "apply_scenario", "coldgraph score", "coldgraph eval",
) for case in INPUTS if (entry, case) != ("coldgraph eval", "2-D")]


@pytest.mark.parametrize("entry, case", CASES)
def test_entry_point_holds_ids_to_the_contract(entries, entry, case):
    e = entries[entry]
    ids = INPUTS[case](e.n)
    if case == "empty" and e.empty is not None:
        assert e.empty(e.call(ids))
        return
    with pytest.raises(ValueError) as info:
        e.call(ids)
    assert str(info.value) == e.message(case)


def test_id_array_casts_ids_once_and_names_the_first_bad_one():
    ids = np.array([2, 0, 1])
    assert id_array(ids, 3, "id") is ids
    for other in (ids.astype(np.uint8), ids.astype(np.int32), [2, 0, 1]):
        got = id_array(other, 3, "id")
        assert got.dtype == np.int64 and got.tolist() == [2, 0, 1]
    for empty in ([], np.zeros(0, dtype=np.float32)):
        assert id_array(empty, 0, "id").dtype == np.int64
    with pytest.raises(ValueError, match=r"^ids must be a flat array, got shape \(\)$"):
        id_array(1, 3, "id")
    for ids, first in (([0, 3, -1], 3), ([0, -1, 3], -1)):  # by position, not by kind
        with pytest.raises(ValueError, match=rf"^id {first} out of range \[0, 3\)$"):
            id_array(ids, 3, "id")
