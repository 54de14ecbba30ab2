"""The three benchmark workloads: set-up, measured phase and output checks.

Each workload draws all of its inputs from a shipped config plus the
workload seed: the seed replaces both the experiment seed and the
generator seed, as ``CG_SEED`` does for the CLI, so the graph, the
scenario, the batch order and the request order all follow from it.

Set-up is repeated before and after the measured phase and reported as
the median of all repetitions, so work moved into it shows.  The measured
phase repeats a fixed round of operations (serve: a seeded list of
requests; train and repro: one call) until ``seconds`` have passed.  Every
time is taken at nominal host speed (see hostclock.py), and each
operation's latency is the median of its times over the rounds.  Checks
run after the measured phase, outside it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import coldgraph as cg
from hostclock import HostClock
from spans import Tracer, layer_metric_units, layer_metrics, traced

TRAIN_EPOCHS = 1  # per train_edge_gnn call; every call trains from the same init
MIN_ROUNDS = 2  # every operation is timed at least twice
SERVE_REQUESTS = 200  # per round; the p90 of their latencies has twenty beyond it
SERVE_TOLERANCE = 1e-6  # acceptance criterion 3: ego scoring == whole-graph scoring
CSV_TOLERANCE = 1e-9  # score files print ten decimals

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "auc_new_seller": "AUC",
    "peak_rss_mb": "MiB",
}

# What each end-to-end metric is called in the workload's own terms.
ALIASES = {
    "train": (("train_offers_per_s", "throughput_per_s", 1.0, "offers/s"),),
    "serve": (
        ("serve_p50_ms", "latency_p50_ms", 1.0, "ms"),
        ("serve_p90_ms", "latency_p90_ms", 1.0, "ms"),
        ("serve_requests_per_s", "throughput_per_s", 1.0, "req/s"),
    ),
    "repro": (("repro_s", "latency_p50_ms", 1e-3, "s"),),
}


@dataclass
class Phase:
    """What one set-up plus measured phase produced."""

    clock: HostClock = field(default_factory=HostClock)
    setups: list = field(default_factory=list)  # Timed, one per set-up
    rounds: list = field(default_factory=list)  # per completed round: Timed per operation
    work_per_round: float = 0.0  # offer-epochs, requests or pipelines in one round
    attempted: int = 0
    failed: int = 0
    auc: float = math.nan
    peak_rss_mb: float = math.nan
    window: tuple = (0.0, 0.0)
    checks: list = field(default_factory=list)  # (name, ok, detail)
    notes: dict = field(default_factory=dict)

    def check(self, name: str, ok, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def fail(self, name: str, ops: int) -> None:
        """Record an operation that raised; keeps the traceback on stderr."""
        traceback.print_exc(file=sys.stderr)
        self.failed += ops
        self.check(name, False, traceback.format_exc(limit=1).strip().splitlines()[-1])

    def op_s(self, at_nominal: bool = True) -> np.ndarray:
        """Each operation's median seconds over the rounds."""
        if not self.rounds:
            return np.empty(0)
        time_of = self.clock.nominal_s if at_nominal else (lambda op: op.own_s)
        return np.median([[time_of(op) for op in row] for row in self.rounds], axis=0)

    def end_to_end(self) -> dict:
        ops = self.op_s()
        have = ops.size > 0
        return {
            "setup_s": float(np.median([self.clock.nominal_s(op) for op in self.setups])),
            "throughput_per_s": self.work_per_round / ops.sum() if have else math.nan,
            "latency_p50_ms": float(np.median(ops)) * 1e3 if have else math.nan,
            "latency_p90_ms": float(np.percentile(ops, 90)) * 1e3 if have else math.nan,
            "auc_new_seller": self.auc,
            "peak_rss_mb": self.peak_rss_mb,
        }


def run_rounds(phase: Phase, seconds: float, one_round) -> None:
    """Call ``one_round`` until ``seconds`` have passed, at least ``MIN_ROUNDS``
    times; a round starts only if one as long as the last still fits.

    ``one_round`` returns the ``Timed`` record of each of its operations, the
    same operations in the same order every time, or None when one failed.
    """
    start = time.perf_counter()
    last = 0.0
    while len(phase.rounds) < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        row = one_round()
        if row is None:
            return
        phase.rounds.append(row)
        last = time.perf_counter() - t


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _seeded(config, seed: int, out_dir: Path):
    return dataclasses.replace(
        config,
        seed=seed,
        out_dir=str(out_dir),
        generator=dataclasses.replace(config.generator, seed=seed),
    )


def config_hash(config) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def edge_gnn_config(g, mc) -> "cg.EdgeGnnConfig":
    return cg.EdgeGnnConfig(
        d_s=g.d_s, d_p=g.d_p, d_o=g.d_o,
        hidden=mc.hidden, gnn_layers=mc.gnn_layers,
        edge_hidden=mc.edge_hidden, cls_hidden=mc.cls_hidden,
        mode=mc.mode, dropout=mc.dropout,
    )


def _param_digest(param_groups: list) -> str:
    h = hashlib.sha256()
    for group in param_groups:
        for name in sorted(group):
            h.update(name.encode())
            h.update(np.ascontiguousarray(group[name].data).tobytes())
    return h.hexdigest()


def _probabilities_ok(scores: np.ndarray) -> bool:
    return bool(np.isfinite(scores).all() and (scores >= 0).all() and (scores <= 1).all())


def _new_seller_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    geo = cg.per_class_report(scores, labels, scenario="new_seller").geo_mean
    return math.nan if geo is None else geo


# ---------------------------------------------------------------------------
# workloads


class Train:
    """``train_edge_gnn`` (multi-task) on the ``configs/default.json`` graph,
    then one bulk ``EdgeGnnModel.score`` of the ``new_seller`` scenario.

    Chosen because ego extraction, the relational layers, the tape backward
    and Adam do nearly all of the work, while sibling summaries, storage and
    evaluation do almost none.
    """

    config_file = "default.json"
    setup_reps = 2  # before and again after the measured phase

    def __init__(self, config, out_dir: Path):
        self.config = config

    def setup(self):
        g = cg.generate_synthetic_graph(self.config.generator)
        spec = cg.make_scenario(g, "new_seller", seed=self.config.seed)
        masked, eval_offers = cg.apply_scenario(g, spec)
        return g, masked, eval_offers

    def measure(self, state, phase: Phase, seconds: float) -> None:
        g, masked, eval_offers = state
        mc = self.config.model
        cfg = edge_gnn_config(g, mc)
        tc = mc.train_config(self.config.seed, TRAIN_EPOCHS)
        batches = tc.epochs * math.ceil(g.n_offers / tc.batch_size)
        phase.work_per_round = tc.epochs * g.n_offers
        digests, models = [], []

        def one_round():
            phase.attempted += batches
            try:
                model, took = phase.clock.call(cg.train_edge_gnn, g, cfg, tc)
            except Exception:
                phase.fail("train.train_edge_gnn", batches)
                return None
            digests.append(_param_digest(model.param_groups))
            models[:] = [model]
            return [took]

        run_rounds(phase, seconds, one_round)
        if not phase.rounds:
            return
        model = models[0]
        scores = model.score(masked, eval_offers)

        losses = [v for history in model.history for v in history]
        phase.check("train.losses_finite", all(math.isfinite(v) for v in losses),
                    f"epoch mean losses {[round(v, 6) for v in losses]}")
        phase.check("train.scores_in_unit_interval", _probabilities_ok(scores),
                    f"{scores.shape[0]} new_seller offers")
        phase.check("train.deterministic", len(set(digests)) == 1,
                    f"param digest {digests[0][:16]} over {len(digests)} calls")
        phase.auc = _new_seller_auc(scores, g.labels[eval_offers])
        phase.notes.update(param_digest=digests[0], calls=len(digests),
                           epochs_per_call=tc.epochs, offers=g.n_offers,
                           batches_per_call=batches)

    def verify(self, state, phase: Phase) -> None:
        phase.check("train.auc_defined", math.isfinite(phase.auc), f"{phase.auc:.6f}")


class Serve:
    """A closed loop, one client, no think time; each request is a newly
    onboarded seller: one ``EdgeGnnModel.score`` of all of its offers on the
    ``new_seller``-masked default graph.  A round is ``SERVE_REQUESTS``
    sellers drawn with the seed, served in the same order every round.

    Chosen because it runs the forward pass only, with no tape and no
    optimizer, so fixed per-request costs (ego extraction, full-table
    sibling sums) dominate.  Closed, because scoring is a library call
    whose caller waits for the result.
    """

    config_file = "default.json"
    setup_reps = 2  # before and again after the measured phase

    def __init__(self, config, out_dir: Path):
        self.config = config
        self.out_dir = out_dir

    def setup(self):
        g = cg.generate_synthetic_graph(self.config.generator)
        bundle = self.out_dir / "graph"
        cg.save_graph(g, bundle)
        g = cg.load_graph(bundle)
        spec = cg.make_scenario(g, "new_seller", seed=self.config.seed)
        masked, eval_offers = cg.apply_scenario(g, spec)
        cfg = edge_gnn_config(g, self.config.model)
        # Latency does not depend on weight values, so the seeded initial
        # draw stands in for trained weights.
        params = cg.models.init_edge_gnn_params(cfg, self.config.seed)
        ckpt = self.out_dir / "serve.ckpt"
        cg.save_checkpoint(ckpt, "edge_gnn", cfg.to_dict(), [params])
        _, arch, groups = cg.load_checkpoint(ckpt)
        model = cg.EdgeGnnModel(cfg=cg.EdgeGnnConfig(**arch), param_groups=groups)
        return g, masked, eval_offers, np.asarray(spec.new_sellers, dtype=np.int64), model

    def measure(self, state, phase: Phase, seconds: float) -> None:
        g, masked, eval_offers, sellers, model = state
        offers_of = {int(s): np.flatnonzero(masked.offer_seller == s) for s in sellers}
        rng = np.random.default_rng([self.config.seed, 1])
        requests = [offers_of[int(s)] for s in rng.choice(sellers, SERVE_REQUESTS)]
        phase.work_per_round = len(requests)
        served = []

        def one_round():
            row = []
            for offers in requests:
                phase.attempted += 1
                try:
                    scores, took = phase.clock.call(model.score, masked, offers)
                except Exception:
                    phase.fail("serve.request", 1)
                    return None
                row.append(took)
                served.append((offers, scores))
            return row

        run_rounds(phase, seconds, one_round)
        phase.notes.update(requests=len(served), distinct_requests=len(requests),
                           new_sellers=int(sellers.size),
                           offers_per_request=round(float(np.mean([o.size for o in requests])), 3))
        self._served = served

    def verify(self, state, phase: Phase) -> None:
        g, masked, eval_offers, sellers, model = state
        whole = model.score(masked, np.arange(masked.n_offers))
        worst, bad = 0.0, 0
        for offers, scores in self._served:
            diff = float(np.max(np.abs(scores - whole[offers])))
            worst = max(worst, diff)
            if not (diff <= SERVE_TOLERANCE and _probabilities_ok(scores)):
                bad += 1
        phase.failed += bad
        phase.check("serve.matches_whole_graph", bad == 0,
                    f"{bad} of {len(self._served)} requests off; max |diff| {worst:.3g}")
        phase.auc = _new_seller_auc(whole[eval_offers], g.labels[eval_offers])
        phase.check("serve.auc_defined", math.isfinite(phase.auc), f"{phase.auc:.6f}")
        self._served = []


class Repro:
    """``run_repro`` on ``configs/small.json``.

    Chosen because it is the only workload where the baselines, storage,
    checkpoints, scenario masking, evaluation and artifact writes carry
    weight, and where the relational layer runs full batch.
    """

    config_file = "small.json"
    setup_reps = 500  # config parses each side of the measured phase; each takes under 0.1 ms

    def __init__(self, config, out_dir: Path):
        self.config = config
        self.path = out_dir / "config.json"
        self.path.write_text(json.dumps(config.to_dict(), indent=1) + "\n")

    def setup(self):
        return cg.ExperimentConfig.from_json_file(self.path)

    def measure(self, config, phase: Phase, seconds: float) -> None:
        ops = len(config.models) * (1 + len(config.scenarios))  # train_model + score_model calls
        phase.work_per_round = 1.0
        aucs = []

        def one_round():
            phase.attempted += ops
            try:
                manifest, took = phase.clock.call(cg.run_repro, config)
            except Exception:
                phase.fail("repro.run_repro", ops)
                return None
            self._manifest = manifest
            aucs.append(manifest["reports"][("new_seller", "edge_gnn")].geo_mean)
            return [took]

        run_rounds(phase, seconds, one_round)
        if not phase.rounds:
            return
        phase.auc = math.nan if aucs[-1] is None else aucs[-1]
        phase.check("repro.deterministic", len(set(aucs)) == 1,
                    f"edge_gnn/new_seller AUC over {len(aucs)} pipelines")
        phase.notes.update(pipelines=len(aucs), operations_per_pipeline=ops)

    def verify(self, config, phase: Phase) -> None:
        """Check the last pipeline's artifacts.

        Scores are recomputed from the reloaded checkpoints; parameters
        are float32 in memory and on disk and scoring is deterministic,
        so these equal the pipeline's in-memory scores.
        """
        manifest, self._manifest = self._manifest, None
        out = Path(config.out_dir)
        lines = (out / "summary_geo.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        cells = {}
        for line in lines[1:]:
            model, *values = line.split(",")
            cells.update({(scenario, model): v for scenario, v in zip(header[1:], values)})
        reports = manifest["reports"]
        want = len(config.models) * len(config.scenarios)
        phase.check("repro.summary_geo_complete",
                    len(cells) == want and all(
                        k in reports and v == _geo_cell(reports[k]) for k, v in cells.items()),
                    f"{len(cells)} of {want} cells, each equal to its in-memory report")
        # A class with one or two positives among small.json's few new_offer
        # offers can score an AUC of exactly 0; the geometric mean is then
        # undefined by design, which is no fault of the pipeline.
        undefined = [k for k, v in cells.items() if not _unit_fraction(v)]
        phase.check("repro.summary_geo_in_unit_interval",
                    all(cells[k] == "undefined" and k in reports
                        and any(a is None or a <= 0 for a in reports[k].auc)
                        for k in undefined),
                    f"{want - len(undefined)} of {want} cells in (0, 1]; undefined only "
                    f"where a class AUC is 0 or undefined: {sorted(undefined)}")
        cell = cells.get(("new_seller", "edge_gnn"))
        phase.check("repro.auc_matches_summary", cell == f"{phase.auc:.6f}",
                    f"summary_geo.csv {cell} vs {phase.auc:.6f}")

        g = manifest["graph"]
        loaded = {}
        for kind in config.models:
            try:
                loaded[kind] = cg.load_checkpoint(out / f"{kind}.ckpt")
            except cg.models.CheckpointError as exc:
                phase.check(f"repro.checkpoint_reloads.{kind}", False, str(exc))
                continue
            phase.check(f"repro.checkpoint_reloads.{kind}", loaded[kind][0] == kind)
        worst, bad, files = 0.0, 0, 0
        for name, spec in manifest["specs"].items():
            masked, eval_offers = cg.apply_scenario(g, spec)
            for kind, (_, arch, groups) in loaded.items():
                scores = cg.score_model(kind, arch, groups, masked, eval_offers, spec)
                ids, values = cg.experiment.read_scores_csv(out / f"scores_{kind}_{name}.csv")
                same_shape = values.shape == scores.shape
                diff = float(np.max(np.abs(values - scores))) if same_shape else math.inf
                worst = max(worst, diff)
                bad += not (np.array_equal(ids, eval_offers) and diff <= CSV_TOLERANCE)
                files += 1
        phase.check("repro.score_files_match", bad == 0 and files == want,
                    f"{files - bad} of {want} files; max |diff| {worst:.3g}")


def _geo_cell(report) -> str:
    return "undefined" if report.geo_mean is None else f"{report.geo_mean:.6f}"


def _unit_fraction(text: str) -> bool:
    try:
        v = float(text)
    except ValueError:
        return False
    return 0.0 < v <= 1.0


WORKLOADS = {"train": Train, "serve": Serve, "repro": Repro}


# ---------------------------------------------------------------------------
# running a workload


def _set_up(workload, reps: int, phase: Phase):
    state = None
    for _ in range(reps):
        state = None  # release the previous set-up before timing the next
        state, took = phase.clock.call(workload.setup)
        phase.setups.append(took)
    return state


def run_phase(workload, seconds: float, setup_reps: int, tracer=None) -> Phase:
    """Set up, measure and verify once; set up again after, for the median."""
    phase = Phase()
    trace = (lambda: traced(tracer)) if tracer is not None else nullcontext
    with phase.clock.running():
        with trace():
            state = _set_up(workload, setup_reps, phase)
            lo, cpu = time.perf_counter(), os.times()
            workload.measure(state, phase, seconds)
            phase.window = (lo, time.perf_counter())
            cpu_end = os.times()
        if phase.rounds:
            workload.verify(state, phase)
        state = None
        with trace():
            _set_up(workload, setup_reps, phase)
    phase.peak_rss_mb = _peak_rss_mb()
    wall = phase.op_s(at_nominal=False)
    phase.notes.update(
        rounds=len(phase.rounds), operations_per_round=len(phase.rounds[0]) if phase.rounds else 0,
        measured_user_s=round(cpu_end.user - cpu.user, 3),
        measured_sys_s=round(cpu_end.system - cpu.system, 3),
        host_factor=round(phase.clock.median_factor(*phase.window), 4),
        host_samples=len(phase.clock.sample_s),
        wall_latency_p50_ms=round(float(np.median(wall)) * 1e3, 3) if wall.size else None,
    )
    return phase


@dataclass
class Result:
    workload: str
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    end_to_end: dict  # name -> value, from the untraced phase
    checks: list
    notes: dict
    config_hash: str


def run(name: str, seed: int, seconds: float, trace: bool, config_dir: Path,
        out_dir: Path) -> Result:
    """Set up and measure one workload; with ``trace`` also a traced phase.

    ``out_dir`` is emptied first and receives the workload's files, the
    spans of a traced phase and nothing else.
    """
    cls = WORKLOADS[name]
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    config = cg.ExperimentConfig.from_json_file(config_dir / cls.config_file)
    config = _seeded(config, seed, out_dir / "repro")
    workload = cls(config, out_dir)

    phases = [run_phase(workload, seconds, cls.setup_reps)]
    e2e = phases[0].end_to_end()
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
    if trace:
        tracer = Tracer()
        phases.append(run_phase(workload, seconds, cls.setup_reps, tracer))
        traced_e2e = phases[1].end_to_end()
        units = layer_metric_units()
        metrics = {k: (v, units[k]) for k, v in layer_metrics(tracer, phases[1].window).items()}
        for k, v in traced_e2e.items():
            metrics[f"overhead.{k}"] = (v - e2e[k], END_TO_END_UNITS[k])
        same = traced_e2e["auc_new_seller"] == e2e["auc_new_seller"]
        phases[1].check("trace.same_auc", same, "traced and untraced runs agree")
        tracer.write_jsonl(out_dir / "spans.jsonl")

    checks = list(phases[0].checks)
    for phase in phases[1:]:
        checks += [(f"traced.{n}", ok, d) for n, ok, d in phase.checks]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    notes = dict(phases[0].notes, setup_reps=len(phases[0].setups),
                 measured_s=round(phases[0].window[1] - phases[0].window[0], 3))
    if trace and tracer.missing:  # functions the program no longer has read as zero
        notes["missing_probes"] = tracer.missing
    values = [v for v, _ in metrics.values()]
    correct = (
        failed == 0 and bool(checks) and all(ok for _, ok, _ in checks)
        and all(math.isfinite(v) for v in values)
    )
    return Result(name, correct, max(attempted, 1), failed, metrics, e2e, checks, notes,
                  config_hash(config))
