"""The workloads: train a model, serve what was trained, train again.

Every workload runs the same phases through the program's public entry
points, sized so that different layers dominate each one:

* ``train_sampled`` — scale 18 with sampled 1-hop fanout-8 subgraphs and
  scheduled plans (the plan layer works here; each fit regenerates the
  data, which is the set-up ``setup_s`` reports);
* ``serve_open`` — short scale-18 full-graph fits (no plan layer); its
  set-up is ``ServeSession.from_checkpoint_dir``.

Both then serve full-catalogue top-10 over the scale-18 task (2.2k/4.5k
items) at a fixed open-loop rate, search for the highest rate and time hot
reloads.  A request costs milliseconds: shorter ones (the scale-2 catalogue,
or float32 scoring) carry a run-to-run machine component of about a
millisecond that their percentiles do not survive on a shared two-core box.

The default execution path is used throughout: float64, serial executor,
eager steps, no prefetch.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import time
import types
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import repro.core.checkpoint as checkpoint_module
import repro.core.engine as engine_module
import repro.serve.reload as reload_module
import repro.serve.scorer as scorer_module
import repro.serve.service as service_module
from repro.baselines import build_model
from repro.core import Callback, CDRTrainer, TrainerConfig, build_task
from repro.experiments import ExperimentSettings
from repro.experiments.runner import prepare_dataset
from repro.profiling import profile
from repro.serve import (
    ErrorResponse,
    HotReloader,
    RepresentationStore,
    ScoreRequest,
    ScoreResponse,
    ServeSession,
)
from repro.tensor import Tensor, ops

from . import openloop
from .tracing import Shims, Tracer

OVERLAP_RATIO = 0.5
EMBEDDING_DIM = 32
EVAL_NEGATIVES = 99
#: Ops whose forward and backward times the traced run reports; together
#: they hold over 90% of op time on the training workloads.
TRACED_OPS = (
    "linear",
    "segment_softmax_attend",
    "gated_tanh_mix",
    "pair_feature_concat",
    "spmm",
    "add",
    "gather_concat_rows",
    "gather_rows",
    "relu",
    "mean",
)
STAGE_LAYERS = ("encoder", "intra_matching", "inter_matching", "complementing", "prediction")


@dataclass(frozen=True)
class Spec:
    """One workload's shape.  Every field is part of the workload."""

    name: str
    scale: float
    batch_size: int
    #: Training steps per fit (well inside the first epoch).
    steps: int
    sampled: bool
    #: Checkpoint cadence in steps; a fit writes two checkpoints.
    checkpoint_every_steps: int
    #: The set-up ``setup_s`` reports, repeated within a run for its median.
    #: "train": every fit regenerates data and task, then builds model and
    #: trainer.  "serve": data and task are built once (each fit gets a fresh
    #: model), and ``ServeSession.from_checkpoint_dir`` runs three times.
    setup: str


WORKLOADS = {
    "train_sampled": Spec(
        name="train_sampled", scale=18, batch_size=512, steps=20,
        sampled=True, checkpoint_every_steps=10, setup="train",
    ),
    "serve_open": Spec(
        name="serve_open", scale=18, batch_size=256, steps=12,
        sampled=False, checkpoint_every_steps=6, setup="serve",
    ),
}

#: Open-loop rate (requests/s) of the latency measurement: about a quarter
#: of the service rate of these requests (one over their mean service time,
#: 250-380 requests/s on a two-core x86 VM), so requests sometimes queue
#: but the server is far from saturation.  The tail is queueing: at a
#: higher rate, the machine's speed swings of a few seconds moved p99 more
#: (over ten seeds p99 spread 0.21-0.33 at 120 requests/s; a queue
#: simulation with those swings gave 0.29 there and 0.22 at 80).
SERVE_RATE = 80.0
#: The serving phase runs in rounds of a fixed-rate block, a verified
#: slate and, every ``RELOAD_EVERY`` rounds, a timed reload.
ROUNDS = 30
#: Requests of a fixed-rate block (0.6 s at ``SERVE_RATE``).
BLOCK_REQUESTS = 50
#: The blocks whose requests give p50 and p99: the calmest ones, by mean
#: latency.  On a shared machine the same code runs up to a third
#: slower for seconds to minutes at a time (a fixed kernel timed each second
#: for six minutes on a two-core VM ranged 923-1559 runs/s); over 40-60 s
#: windows its mean still spread 0.10-0.13, its best second 0.02-0.03.  The
#: slowest blocks measure the neighbours, so they are left out; the 1000
#: pooled requests leave 10 beyond p99.  Short blocks follow those swings
#: closely.  The mean also leaves out the blocks hit by a stall or by a
#: burst of arrivals: over ten seeds on that VM, p99 of the 20 blocks of
#: lowest mean service time spread 0.21-0.26, of lowest mean latency
#: 0.13-0.15 (p50 the same either way).
FAST_BLOCKS = 20
#: Requests of a highest-rate probe: its p99 leaves 10 beyond.
PROBE_REQUESTS = 1000
#: Requests of the first blocks replayed with spans on in a traced run.
TRACED_REQUESTS = 200
#: Slates of each block checked against full rescoring.
VERIFY_PER_ROUND = 1
#: Rounds per timed reload (each a swap to the other checkpoint).
RELOAD_EVERY = 3
#: p99 limit of the highest-rate search.  A chosen limit, not a derived one.
#: On the two-core VM, p99 measured 10-60 ms at 0.6-0.8 of the service
#: rate, and crossed 200 ms only from about 0.95 on, where it jumped
#: between runs by a factor of ten; so the search stays below that knee.
LATENCY_LIMIT_S = 0.200
#: Halvings of the highest-rate search after its first probe, when it fails.
SEARCH_STEPS = 1
#: The highest-rate search probes this share of the calm blocks' service
#: rate first; when it passes, the search ends there, so ``serve_max_rps``
#: is 0.6 service rates.  When it fails, the search halves the rate and
#: interpolates on p99 between the passing and the failing probe.  At 0.75,
#: a slow stretch of the machine during the probe (a third slower) put it
#: at the knee: one run in five failed.
SEARCH_SHARE = 0.6
#: ``ServeSession.from_checkpoint_dir`` calls per run when it is the set-up.
SERVE_SETUPS = 3
#: Fit repetitions: at least this many, then more while time is left.
MIN_FITS = 3
#: Fits before the serving phase (the rest follow it); the last of them
#: writes the checkpoints that are served.
FITS_BEFORE_SERVING = 2
MAX_FITS = 40


def _median(values):
    return float(statistics.median(values)) if values else 0.0


class Run:
    """State of one workload run: measurements, checks, counters, spans."""

    def __init__(self, spec: Spec, seed: int, seconds: float, trace: bool, work_dir: Path):
        self.spec = spec
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.trace = bool(trace)
        self.work_dir = work_dir
        self.tracer = Tracer()
        self.checks: Dict[str, bool] = {}
        self.notes: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}

    def check(self, name: str, ok: bool, detail=None) -> None:
        self.checks[name] = bool(ok) and self.checks.get(name, True)
        if detail is not None:
            self.notes[f"check.{name}"] = detail

    # ------------------------------------------------------------------
    # settings shared by the training and serving halves
    # ------------------------------------------------------------------
    def manifest(self) -> Dict:
        """The ``run.json`` manifest ``repro train --checkpoint-dir`` writes."""
        spec = self.spec
        return {
            "model": "NMCDR",
            "settings": {
                "scenario": "cloth_sport",
                "scale": spec.scale,
                "overlap_ratio": OVERLAP_RATIO,
                "embedding_dim": EMBEDDING_DIM,
                "num_epochs": 1,
                "batch_size": spec.batch_size,
                "num_eval_negatives": EVAL_NEGATIVES,
                "seed": self.seed,
            },
            "trainer": self.trainer_fields(None),
        }

    def trainer_fields(self, checkpoint_dir: Optional[str]) -> Dict:
        spec = self.spec
        fields = {
            "num_epochs": 1,
            "batch_size": spec.batch_size,
            "num_eval_negatives": EVAL_NEGATIVES,
            "eval_every": 0,
            "seed": self.seed,
            "checkpoint_dir": checkpoint_dir,
            "checkpoint_every_steps": spec.checkpoint_every_steps,
        }
        if spec.sampled:
            fields.update(
                sampled_subgraph_training=True,
                subgraph_num_hops=1,
                subgraph_fanout=8,
                scheduled_subgraph_plans=True,
            )
        return fields


# ----------------------------------------------------------------------
# training phase
# ----------------------------------------------------------------------
class StepLosses(Callback):
    """Engine callback collecting every step's loss and the time it ended
    (a public hook, no shim)."""

    def __init__(self) -> None:
        self.losses: List[float] = []
        self.ends: List[float] = []

    def on_step_end(self, context, step, loss) -> None:
        self.losses.append(loss)
        self.ends.append(time.perf_counter())


def _examples_per_fit(task, spec: Spec, steps: int) -> int:
    """Labelled examples (positives + one negative each) a fit trained on."""
    return sum(
        min(steps * spec.batch_size, task.domain(key).split.num_train * 2)
        for key in ("a", "b")
    )


class Training:
    """Repeated set-up + fit, then one validation; the training half of a run.

    Fits run in two groups, before and after the serving phase, so the
    fastest time of each part of a fit is picked from both ends of the run.
    """

    def __init__(self, run: Run) -> None:
        self.run = run
        self.settings = ExperimentSettings(**run.manifest()["settings"])
        self.timings: Dict[str, List[float]] = {"data": [], "task": [], "model": [], "total": []}
        self.fit_walls: List[float] = []
        self.traced_walls: List[float] = []
        #: Per untraced fit, the stretches between its start, its step ends
        #: and its end: together, the fit wall.
        self.stretches: List[List[float]] = []
        self.examples = 0
        self.final_losses: List[float] = []
        self.layer_samples: Dict[str, List[float]] = {}
        self.task = None
        self.trainer = None
        self.checkpoint_dir: Optional[Path] = None
        self.fits = 0
        #: Time spent in the fit loop (set-ups included), against ``--seconds``.
        self.seconds = 0.0

    def fit(self) -> None:
        """One set-up and one timed fit; its checkpoints replace the last fit's."""
        run, spec = self.run, self.run.spec
        began = time.perf_counter()
        if self.checkpoint_dir is not None:
            shutil.rmtree(self.checkpoint_dir, ignore_errors=True)
        self.checkpoint_dir = run.work_dir / f"checkpoints-{self.fits}"
        self.task, self.trainer, losses = _setup(
            run, self.settings, self.task, self.checkpoint_dir, self.timings
        )
        trainer = self.trainer

        # Traced runs alternate untraced and traced fits so the tracing
        # overhead is measured on the same workload in the same process.
        traced = run.trace and self.fits % 2 == 1
        since = len(run.tracer.spans)
        shims = install_train_shims(run.tracer, trainer) if traced else None
        # Per-op forward times come from wrapped ops, backward from the engine hook.
        profiled = profile(instrument=True) if traced else nullcontext()
        try:
            with profiled as profiler:
                fit_started = time.perf_counter()
                history = _fit(trainer, spec, run.tracer if traced else None)
                fit_ended = time.perf_counter()
                wall = fit_ended - fit_started
        finally:
            if shims is not None:
                shims.remove()
        steps = history.num_batches
        run.attempted += steps
        finite = [loss for loss in losses.losses if math.isfinite(loss)]
        run.failed += steps - len(finite)
        run.check("losses_finite", len(finite) == len(losses.losses) == steps)
        self.final_losses.append(losses.losses[-1] if losses.losses else float("nan"))
        if traced:
            self.traced_walls.append(wall)
            for key, value in train_layer_metrics(
                run.tracer, since, history, profiler, trainer.model.plan_schedule
            ).items():
                self.layer_samples.setdefault(key, []).append(value)
        else:
            self.fit_walls.append(wall)
            self.stretches.append(np.diff([fit_started, *losses.ends, fit_ended]).tolist())
            self.examples = _examples_per_fit(self.task, spec, steps)
        run.notes.setdefault("fit_history", []).append(
            {
                "wall_s": wall,
                "traced": traced,
                "steps": steps,
                "data_prep_s": history.data_prep_seconds_total,
                "data_wait_s": history.data_wait_seconds_total,
                "checkpoints": history.checkpoints_written,
            }
        )
        self.fits += 1
        self.seconds += time.perf_counter() - began

    def finish(self) -> None:
        """Checks over all fits, one validation, and the training metrics."""
        run = self.run
        # Same seed, same program: every fit must end on the same loss, bit for bit.
        run.notes["final_loss_hex"] = [float(loss).hex() for loss in self.final_losses]
        run.check(
            "final_loss_bit_equal",
            len(set(run.notes["final_loss_hex"])) == 1,
            run.notes["final_loss_hex"],
        )
        # Validation runs once, after the timed fits.
        eval_started = time.perf_counter()
        metrics = self.trainer.evaluate(subset="valid")
        run.layers["eval.evaluate_s"] = time.perf_counter() - eval_started
        run.layers["eval.calls"] = 1.0
        ndcg = float(np.mean([metrics[key]["ndcg@10"] for key in metrics]))
        run.check("valid_ndcg_finite", math.isfinite(ndcg) and ndcg > 0, ndcg)

        # Every fit does the same work (their losses are bit-equal), so each
        # stretch of it, from one step end to the next, is timed once per
        # fit.  The wall is rebuilt from each stretch's fastest time: the
        # slower ones ran while the machine was contended (see FAST_BLOCKS).
        run.check("fits_step_aligned", len({len(fit) for fit in self.stretches}) == 1)
        fastest_wall = sum(map(min, zip(*self.stretches)))
        run.e2e["train_examples_per_s"] = self.examples / fastest_wall
        run.notes["fastest_fit_wall_s"] = fastest_wall
        run.e2e["valid_ndcg10"] = ndcg
        if run.spec.setup == "train":
            run.e2e["setup_s"] = _median(self.timings["total"])
        for part in ("data", "task", "model"):
            run.layers[f"setup.{part}_s"] = _median(self.timings[part])
        for key, values in self.layer_samples.items():
            run.layers[key] = _median(values)
        if run.trace:
            run.layers["trace.train_overhead"] = (
                _median(self.traced_walls) / _median(self.fit_walls) - 1.0
            )


def _setup(run: Run, settings, task, checkpoint_dir: Path, timings: Dict):
    """Data and task (unless reused), then model and trainer; all timed."""
    started = time.perf_counter()
    if task is None or run.spec.setup == "train":
        dataset = prepare_dataset(settings)
        data_done = time.perf_counter()
        task = build_task(dataset, head_threshold=settings.head_threshold)
        task_done = time.perf_counter()
        timings["data"].append(data_done - started)
        timings["task"].append(task_done - data_done)
    else:
        task_done = started
    checkpoint_dir.mkdir(parents=True)
    (checkpoint_dir / "run.json").write_text(json.dumps(run.manifest(), indent=2))
    model = build_model("NMCDR", task, embedding_dim=settings.embedding_dim, seed=settings.seed)
    losses = StepLosses()
    trainer = CDRTrainer(
        model, task, TrainerConfig(**run.trainer_fields(str(checkpoint_dir))), callbacks=[losses]
    )
    done = time.perf_counter()
    timings["model"].append(done - task_done)
    timings["total"].append(done - started)
    return task, trainer, losses


def _fit(trainer, spec: Spec, tracer: Optional[Tracer]):
    """One timed fit through the public training entry points."""
    with tracer.span("fit") if tracer is not None else nullcontext():
        engine = trainer.build_engine()
        # The trainer's loaders feed the pipeline, as ``repro profile`` does.
        pipeline = engine.build_pipeline(trainer._loaders)
        return engine.fit(pipeline, max_steps=spec.steps)


def install_train_shims(tracer: Tracer, trainer) -> Shims:
    """Wrap the public calls of every training layer for one fit."""
    shims = Shims(tracer)
    model = trainer.model
    for params in (model.domain_a_params, model.domain_b_params):
        shims.wrap(params.encoder, "forward", "encoder")
        for layer in params.intra_layers:
            shims.wrap(layer, "forward", "intra_matching")
        for layer in params.inter_layers:
            shims.wrap(layer, "forward", "inter_matching")
        shims.wrap(params.complementing, "forward", "complementing")
        shims.wrap(
            params.prediction, "forward", "prediction",
            after=lambda result, args: tracer.count("prediction.rows", args[0].shape[0]),
        )
    shims.wrap(ops, "binary_cross_entropy_probs", "prediction")
    shims.wrap(model, "compute_batch_loss", "forward")
    schedule = model.plan_schedule
    if schedule is not None:
        shims.wrap(
            schedule, "plan_for", "plan",
            after=lambda plan, args: tracer.count("plan.nodes", _plan_nodes(plan)),
        )
    shims.wrap(Tensor, "backward", "backward")
    shims.wrap(engine_module, "clip_grad_norm", "optim")
    shims.wrap(trainer.optimizer, "step", "optim")
    shims.wrap(trainer.optimizer, "zero_grad", "optim")
    shims.wrap(
        checkpoint_module, "save_checkpoint", "checkpoint",
        after=lambda path, args: tracer.count("checkpoint.bytes", Path(path).stat().st_size),
    )

    original_build = engine_module.build_pipeline

    def build_pipeline(*args, **kwargs):
        pipeline = original_build(*args, **kwargs)
        epoch = pipeline.epoch

        def timed_epoch(index):
            steps = epoch(index)
            while True:
                with tracer.span("data"):
                    batches = next(steps, None)
                if batches is None:
                    return
                yield batches

        object.__setattr__(pipeline, "epoch", timed_epoch)
        return pipeline

    shims.replace(engine_module, "build_pipeline", build_pipeline)
    return shims


def _plan_nodes(plan) -> int:
    nodes = 0
    for key in ("a", "b"):
        subgraph = plan.domain(key).subgraph
        if subgraph is not None:
            nodes += len(subgraph.user_ids) + len(subgraph.item_ids)
    return nodes


def train_layer_metrics(tracer: Tracer, since: int, history, profiler,
                        schedule) -> Dict[str, float]:
    """Per-layer numbers of one traced fit, from its spans and op profile."""
    own = tracer.self_by_name(since)
    spans = tracer.spans[since:]

    def calls(name):
        return float(sum(1 for span in spans if span.name == name))

    counts = tracer.counts
    metrics = {
        "data.prep_s": history.data_prep_seconds_total,
        "data.wait_s": history.data_wait_seconds_total,
        "plan.build_s": own.get("plan", 0.0),
        "plan.calls": calls("plan"),
        "plan.nodes_per_step": counts.pop("plan.nodes", 0.0) / max(calls("plan"), 1.0),
        "autograd.backward_s": own.get("backward", 0.0),
        "optim.step_s": own.get("optim", 0.0),
        "checkpoint.save_s": own.get("checkpoint", 0.0),
        "checkpoint.bytes": counts.pop("checkpoint.bytes", 0.0),
        "prediction.rows": counts.pop("prediction.rows", 0.0),
    }
    plans = schedule.stats if schedule is not None else None
    metrics["plan.delta_ratio"] = (
        plans.delta_expansions / plans.plans_built if plans and plans.plans_built else 0.0
    )
    for layer in STAGE_LAYERS:
        metrics[f"{layer}.fwd_s"] = own.get(layer, 0.0)
        if layer != "prediction":
            metrics[f"{layer}.calls"] = calls(layer)
    fit_wall = sum(span.duration for span in spans if span.name == "fit")
    unattributed = own.get("fit", 0.0) + own.get("forward", 0.0)
    metrics["trace.train_coverage"] = 1.0 - unattributed / fit_wall if fit_wall else 0.0
    metrics["trace.train_unattributed_s"] = unattributed
    forward = {name: stats.seconds for name, stats in profiler.forward_ops.items()}
    backward = {name: stats.seconds for name, stats in profiler.backward_ops.items()}
    total = sum(forward.values()) + sum(backward.values())
    listed = 0.0
    for op in TRACED_OPS:
        metrics[f"ops.{op}.fwd_s"] = forward.get(op, 0.0)
        metrics[f"ops.{op}.bwd_s"] = backward.get(op, 0.0)
        listed += forward.get(op, 0.0) + backward.get(op, 0.0)
    metrics["ops.listed_share"] = listed / total if total else 0.0
    return metrics


# ----------------------------------------------------------------------
# serving phase
# ----------------------------------------------------------------------
def serve_phase(run: Run, task, directory: Path) -> None:
    """Serve the trained checkpoints: set-up, fixed rate, rate search, reloads."""
    spec = run.spec
    checkpoints = sorted(directory.glob("ckpt-*.npz"))
    run.check("two_checkpoints", len(checkpoints) >= 2, [p.name for p in checkpoints])
    first = checkpoints[0]

    setups = []
    session = None
    serve_setups = SERVE_SETUPS if spec.setup == "serve" else 1
    for index in range(serve_setups):
        traced = run.trace and index == serve_setups - 1
        shims = install_store_shims(run.tracer) if traced else None
        since = len(run.tracer.spans)
        try:
            started = time.perf_counter()
            session = ServeSession.from_checkpoint_dir(directory, checkpoint=first)
            setups.append(time.perf_counter() - started)
        finally:
            if shims is not None:
                shims.remove()
        if traced:
            run.layers["store.build_s"] = run.tracer.total_by_name("store.build", since)
    if spec.setup == "serve":
        run.e2e["setup_s"] = _median(setups)
    run.notes["serve_setups_s"] = setups

    tables = session.scorer.store.tables
    activity = {
        key: np.bincount(task.domain(key).split.train_users, minlength=task.domain(key).num_users)
        for key in tables
    }
    run.check(
        "store_matches_task",
        all(tables[key].num_users == len(activity[key]) for key in tables),
    )
    run.notes["cold_start_users"] = sum(int((~table.warm).sum()) for table in tables.values())
    rng = np.random.default_rng([run.seed, 1])
    total = ROUNDS * BLOCK_REQUESTS + PROBE_REQUESTS
    lines = openloop.request_lines(rng, activity, total)
    gaps = rng.exponential(1.0, size=total)
    probe_lines, probe_gaps = lines[-PROBE_REQUESTS:], gaps[-PROBE_REQUESTS:]
    verify_rng = np.random.default_rng([run.seed, 2])

    def serve(requests):
        return session.serve_lines(requests, robust=True)

    # Rounds spread each measurement over the whole serving phase, so a slow
    # stretch of a shared machine moves one round of each, not all of it.
    reloader = HotReloader(session)
    rounds_since = len(run.tracer.spans)
    blocks, reloads = [], []
    for index in range(ROUNDS):
        block_lines = lines[index * BLOCK_REQUESTS:(index + 1) * BLOCK_REQUESTS]
        block_gaps = gaps[index * BLOCK_REQUESTS:(index + 1) * BLOCK_REQUESTS]
        block = openloop.run_phase(serve, block_lines, block_gaps, SERVE_RATE,
                                   keep_responses=True)
        _count_phase(run, block)
        blocks.append(block)
        # Exactness, before a reload changes the model: a seeded sample of
        # the block's slates equals full rescoring.
        sample = verify_rng.choice(len(block_lines), size=VERIFY_PER_ROUND, replace=False)
        exact = all(
            session.verify(json.loads(block_lines[i]), json.loads(block.responses[i]))
            for i in sample
            if not openloop.is_error(block.responses[i])
        )
        run.check("served_slates_exact", exact)
        if index % RELOAD_EVERY == RELOAD_EVERY - 1:
            reloads.extend(timed_reloads(run, session, reloader, checkpoints, 1))

    # p50 and p99 over the calmest blocks: 10 samples lie beyond p99.
    fast = sorted(blocks, key=lambda block: np.mean(block.latency_s))[:FAST_BLOCKS]
    latency = [value for block in fast for value in block.latency_s]
    run.e2e["serve_p50_ms"] = openloop.percentile(latency, 0.5) * 1e3
    run.e2e["serve_p99_ms"] = openloop.percentile(latency, 0.99) * 1e3
    # The fastest reload, for the reason the slowest blocks are left out.
    run.e2e["reload_s"] = min(reloads)
    run.layers["serve.queue_wait_ms"] = np.mean([b.queue_wait_s for b in fast]) * 1e3
    run.layers["serve.generator_late_ms"] = np.mean([b.generator_late_s for b in fast]) * 1e3
    service_rate = 1.0 / np.mean([b.service_s for b in fast])
    run.notes.update(
        serve_blocks=[_phase_note(block, probe=False) for block in blocks],
        serve_fast_blocks=sorted(blocks.index(block) for block in fast),
        serve_block_latency_ms=[[value * 1e3 for value in b.latency_s] for b in blocks],
        serve_service_rate_rps=service_rate,
        reloads_s=reloads,
    )

    if run.trace:
        for name, span in (("load", "reload.load"), ("canary", "reload.canary"),
                           ("store_build", "store.build")):
            run.layers[f"reload.{name}_s"] = (
                run.tracer.total_by_name(span, rounds_since) / len(reloads)
            )
        run.layers["reload.swaps"] = float(session.health.reload_swapped)
        untraced = [value for block in blocks for value in block.latency_s]
        traced_phase(run, session, serve, lines[:TRACED_REQUESTS], gaps[:TRACED_REQUESTS],
                     untraced[:TRACED_REQUESTS])
    else:
        # Every probe replays the same requests and arrival pattern, scaled
        # to its rate, so probes differ only in the offered rate.
        def probe(rate):
            result = openloop.run_phase(serve, probe_lines, probe_gaps, rate)
            _count_phase(run, result)
            return result

        best, results = openloop.highest_rate(
            probe, SEARCH_SHARE * service_rate, LATENCY_LIMIT_S, SEARCH_STEPS,
        )
        run.e2e["serve_max_rps"] = best
        run.notes["serve_search"] = [_phase_note(result, probe=True) for result in results]


def _count_phase(run: Run, result) -> None:
    run.attempted += result.attempted
    run.failed += result.failed


def _phase_note(result, probe: bool) -> Dict:
    note = {
        "rate": result.rate,
        "requests": result.attempted,
        "failed": result.failed,
        "p50_ms": openloop.percentile(result.latency_s, 0.5) * 1e3,
        "service_median_ms": statistics.median(result.service_s) * 1e3,
        "backlog_drains": result.backlog_drains(),
    }
    if probe:
        note["p99_ms"] = openloop.percentile(result.latency_s, 0.99) * 1e3
        note["passes"] = openloop.passes(result, LATENCY_LIMIT_S)
    return note


def install_store_shims(tracer: Tracer) -> Shims:
    """Time ``RepresentationStore.build`` (session set-up and reloads)."""
    shims = Shims(tracer)
    shims.wrap(RepresentationStore, "build", "store.build")
    return shims


def install_serve_shims(tracer: Tracer, session) -> Shims:
    """Wrap the request path: parse, score_batch, score_pairs, top-K, serialise."""
    shims = Shims(tracer)
    json_proxy = types.SimpleNamespace(loads=json.loads, dumps=json.dumps)
    shims.wrap(json_proxy, "loads", "parse")
    shims.wrap(json_proxy, "dumps", "serialise")
    shims.replace(service_module, "json", json_proxy)
    shims.wrap(ScoreRequest, "from_json", "parse")
    scorer = session.scorer
    shims.wrap(scorer, "score_batch", "admit_lookup")
    shims.wrap(
        scorer.model, "score_pairs", "score",
        after=lambda result, args: tracer.count("serve.pairs", len(result)),
    )
    shims.wrap(scorer_module, "exact_top_k", "topk")
    shims.wrap(ScoreResponse, "to_json", "serialise")
    shims.wrap(ErrorResponse, "to_json", "serialise")
    return shims


def traced_phase(run: Run, session, serve, lines, gaps, untraced_latency) -> None:
    """Replay the requests of the first fixed-rate blocks with spans on.

    Each request gets a root span; ``untraced_latency`` holds the same
    requests' latencies without spans, for the tracing overhead.
    """
    tracer = run.tracer
    since = len(tracer.spans)
    open_request = []

    def on_request(index):
        tracer.request = index
        open_request.append(tracer.open("request"))

    shims = install_serve_shims(tracer, session)
    try:
        def traced_serve(requests):
            for response in serve(requests):
                tracer.close(open_request.pop())
                tracer.request = None
                yield response

        result = openloop.run_phase(traced_serve, lines, gaps, SERVE_RATE, on_request=on_request)
    finally:
        shims.remove()
    _count_phase(run, result)
    own = tracer.self_by_name(since)
    count = max(result.attempted, 1)
    busy = tracer.total_by_name("request", since)
    run.layers["serve.parse_s"] = own.get("parse", 0.0) / count
    run.layers["serve.admit_lookup_s"] = own.get("admit_lookup", 0.0) / count
    run.layers["serve.score_s"] = own.get("score", 0.0) / count
    run.layers["serve.pairs"] = tracer.counts.pop("serve.pairs", 0.0) / count
    run.layers["serve.topk_s"] = own.get("topk", 0.0) / count
    run.layers["serve.serialise_s"] = own.get("serialise", 0.0) / count
    run.layers["serve.unattributed_s"] = own.get("request", 0.0) / count
    run.layers["trace.serve_coverage"] = 1.0 - own.get("request", 0.0) / busy if busy else 0.0
    run.layers["trace.serve_overhead"] = (
        openloop.percentile(result.latency_s, 0.5)
        / openloop.percentile(untraced_latency, 0.5)
        - 1.0
    )


def timed_reloads(run: Run, session, reloader, checkpoints: List[Path], count: int) -> List[float]:
    """Time ``count`` validate-then-swap reloads, each until the new generation answers.

    Each reload swaps to the checkpoint the session is not serving (the
    newest or the oldest), so every one is a real swap.
    """
    tracer = run.tracer
    probe = json.dumps({"domain": "a", "user": 0, "k": 10})
    shims = None
    if run.trace:
        shims = install_store_shims(tracer)
        shims.wrap(reload_module, "load_checkpoint", "reload.load")
        shims.wrap(reloader, "_canary", "reload.canary")
    elapsed = []
    try:
        for _ in range(count):
            swaps = session.health.reload_swapped
            candidate = checkpoints[-1] if swaps % 2 == 0 else checkpoints[0]
            before = session.scorer.store.generation
            started = time.perf_counter()
            result = reloader.reload(candidate)
            answer = json.loads(next(iter(session.serve_lines([probe], robust=True))))
            elapsed.append(time.perf_counter() - started)
            run.attempted += 1
            swapped = result.swapped and answer.get("generation") == before + 1
            run.failed += 0 if swapped else 1
            run.check(
                "reload_swapped", swapped,
                None if swapped else dict(result, answered=answer.get("generation")),
            )
    finally:
        if shims is not None:
            shims.remove()
    return elapsed


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> Run:
    spec = WORKLOADS[name]
    run = Run(spec, seed, seconds, trace, work_dir)
    training = Training(run)
    for _ in range(FITS_BEFORE_SERVING):
        training.fit()
    serve_phase(run, training.task, training.checkpoint_dir)
    while training.fits < MIN_FITS or (
        training.fits < MAX_FITS and training.seconds < run.seconds
    ):
        training.fit()
    training.finish()
    return run
