"""The three benchmark workloads: train, monitor and analyze.

Every workload is a closed loop with one client: each call into modwatch
waits for its result before the next is made.  A run sets up its inputs
from the workload seed several times, timing each, and keeps the last.
It then runs the train phase once and ``ROUNDS`` rounds of all six:

    train      train.train on the training split (desk CVAE, batch 16);
               in the rounds only on ``train``, as retrainings
    online     one evaluate.score call per pulse, batch 1
    eval       ``modwatch eval`` over the whole stream, in-process (cli.main)
    sampled    evaluate.score(mode="sampled") on chunks of CHUNK pulses
    landscape  ``modwatch landscape --jobs nproc``, in-process
    uq         ``modwatch uq``, in-process

A workload's own phases run at full size and are the only ones traced.
The others run at a small fixed size so that every run reports every
end-to-end metric.  On ``monitor`` and ``analyze`` the train metrics come
from training the checkpoint during set-up, which is not traced.  Rounds
spread each phase's samples over the whole run, so a burst of load from
elsewhere on the machine moves a few samples rather than a whole metric.
On the 2-vCPU machine this was tuned on, speed switched between two levels
about 1.4x apart, each held for seconds to minutes.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from modwatch import checkpoint as CK
from modwatch import cli
from modwatch import data as D
from modwatch import evaluate as E
from modwatch import model as M
from modwatch import train as TR
from modwatch.errors import ModwatchError

ROUNDS = 10
SETUPS = 3  # set-ups timed per run; setup_s is their median
OWN_PHASES = {
    "train": ("train",),
    "monitor": ("online", "eval", "sampled"),
    "analyze": ("landscape", "uq"),
}
LEARNING_RATE = 5e-3  # reaches a usable detector in a few epochs at batch 16
# Model initialisation and the choice of uq example pulses are part of the
# workload, not of its inputs: with fixed seeds for them, the quality guards
# and the uq work (examples are replicated per module) vary with the
# generated data only.
INIT_SEED = 0
UQ_SEED = 0
FPR_BUDGET = 0.1
SAMPLED_DRAWS = 10
CHUNK = 32
# split of the monitored stream and the analysis set: no training share, so
# every pulse is scored; thresholds come from the validation normals
SPLIT = (0.0, 0.2, 0.8)


@dataclass(frozen=True)
class Sizes:
    train_per_module: int  # normal pulses per module in the training set
    train_faults: int
    epochs: int  # fixed epoch count; patience equals it
    retrains: int  # further trainings spread over the rounds, timed only
    stream_per_module: int  # normal pulses per module in the monitored stream
    stream_faults: int
    online: int  # batch-1 verdicts
    evals: int  # `modwatch eval` runs over the whole stream
    sampled_chunks: int  # chunks of CHUNK pulses scored in sampled mode
    analysis_per_module: int  # normal pulses per module for landscape and uq
    resolution: int  # landscape grid side
    examples: int  # uq example pulses
    uq_draws: int
    landscapes: int  # `modwatch landscape` runs
    uq_runs: int  # `modwatch uq` runs


# Small fixed sizes for the phases that are not the workload's own.
LIGHT = Sizes(
    train_per_module=24, train_faults=0, epochs=8, retrains=0,
    stream_per_module=6, stream_faults=45, online=2000, evals=ROUNDS,
    sampled_chunks=2 * ROUNDS, analysis_per_module=3, resolution=3, examples=2,
    uq_draws=20, landscapes=6, uq_runs=ROUNDS,
)
SMOKE = Sizes(
    train_per_module=4, train_faults=15, epochs=1, retrains=0,
    stream_per_module=4, stream_faults=30, online=20, evals=1, sampled_chunks=1,
    analysis_per_module=4, resolution=3, examples=2, uq_draws=4, landscapes=1, uq_runs=1,
)


def sizes_for(workload: str, seconds: int, smoke: bool) -> Sizes:
    """Work per phase.  A workload's own phases scale with ``seconds``; the
    amount of work, not the time, is fixed, so per-layer counts compare
    exactly between commits."""
    if smoke:
        return replace(SMOKE, retrains=1) if workload == "train" else SMOKE
    if workload == "train":
        return replace(LIGHT, train_per_module=40, train_faults=150,
                       epochs=max(2, seconds // 2), retrains=2)
    if workload == "monitor":
        return replace(
            LIGHT, stream_per_module=60, stream_faults=600, online=200 * seconds,
            evals=max(1, round(seconds / 4)), sampled_chunks=2 * seconds,
        )
    runs = max(1, round(seconds / 1.5))
    return replace(
        LIGHT, analysis_per_module=4, resolution=5, examples=4, uq_draws=50,
        landscapes=runs, uq_runs=runs,
    )


def share(total: int, round_index: int) -> int:
    """Items of ``total`` that fall in round ``round_index`` of ROUNDS."""
    return total * (round_index + 1) // ROUNDS - total * round_index // ROUNDS


class Throughput:
    """Work done per second, one sample per timed operation.

    The rate reported is the median of the per-operation rates.  On a
    shared host a stall of a second or more now and then hits one
    operation; a ratio of totals carries that stall into the metric, while
    the median of many operations spread over the run leaves it out."""

    def __init__(self):
        self.work: list[float] = []
        self.seconds: list[float] = []

    def add(self, work: float, seconds: float) -> None:
        self.work.append(work)
        self.seconds.append(seconds)

    def rate(self) -> float:
        return statistics.median(self.rates())

    def rates(self) -> list[float]:
        return [w / s for w, s in zip(self.work, self.seconds)]


class Abandoned(Exception):
    """A modwatch operation that the next steps depend on failed."""


class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def need(self, what: str, fn, *args, **kwargs):
        """Run one modwatch operation; a ModwatchError counts as failed and
        raises Abandoned."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except ModwatchError as exc:
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            raise Abandoned(what) from exc

    def call(self, what: str, fn, *args, **kwargs):
        """Run one modwatch operation; None if it failed."""
        try:
            return self.need(what, fn, *args, **kwargs)
        except Abandoned:
            return None


@dataclass
class Inputs:
    spec: M.ModelSpec
    train_std: D.WaveformTensor
    val_normal: D.WaveformTensor
    stats: D.ChannelStats
    stream_path: str
    stream_size: int
    online_pulses: D.WaveformTensor  # standardized test split of the stream
    analysis_path: str
    config_path: str
    model_dir: str
    params: M.ModelParameters | None = None
    train_result: TR.TrainResult | None = None


class Session:
    def __init__(self, workload: str, seed: int, seconds: int, smoke: bool,
                 work_dir: str, tracer, jobs: int):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes_for(workload, seconds, smoke)
        self.work_dir = work_dir
        self.tracer = tracer
        self.jobs = jobs
        self.outcome = Outcome()
        self.values: dict[str, float] = {}
        self.inputs: Inputs | None = None
        self.setup_times: list[float] = []
        # samples gathered across set-ups and rounds
        self.latencies: list[list[float]] = [[] for _ in range(ROUNDS)]
        self.round = 0
        self.online_scores: dict[int, tuple[str, float]] = {}
        self.work = {name: Throughput() for name in (
            "train_samples_per_s", "eval_pulses_per_s", "sampled_pulses_per_s",
            "landscape_cells_per_s", "calibration_samples_per_s")}
        self.online_done = 0
        self.chunks_done = 0

    def _train_config(self, epochs: int) -> TR.TrainConfig:
        return TR.TrainConfig(
            max_epochs=epochs, patience=epochs, learning_rate=LEARNING_RATE, seed=INIT_SEED
        )

    def _cli(self, argv: list[str]) -> bool:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.outcome.call(argv[0], cli.main, argv)
        return self.outcome.check(code == 0, f"modwatch {argv[0]} exits 0 (got {code})")

    # ------------------------------------------------------------- set-up

    def setup(self) -> None:
        for i in range(SETUPS):
            run_dir = os.path.join(self.work_dir, f"setup{i}")
            os.makedirs(run_dir)
            t0 = time.perf_counter()
            try:
                with self.tracer.tracing():
                    inputs = self._setup_once(run_dir)
            except Abandoned:
                self.inputs = None
                return
            self.setup_times.append(time.perf_counter() - t0)
            self.inputs = inputs
        self.values["setup_s"] = statistics.median(self.setup_times)

    def _setup_once(self, run_dir: str) -> Inputs:
        s = self.sizes
        need = self.outcome.need
        train_wt = need("generate", D.generate, D.desk_config(
            4 * self.seed, samples_per_module=s.train_per_module, fault_count=s.train_faults))
        parts = need("split", D.split, train_wt, seed=self.seed)
        train_std, stats = need("standardize", D.standardize, parts.train)
        val_std, _ = need("standardize", D.standardize, parts.validation, stats)
        val_normal = val_std.select(val_std.normal_mask())

        # the stream and the analysis set come from the same station (module
        # templates do not depend on the seed) with fresh noise and faults;
        # both are written, and the stream is read back as a monitor would
        stream_path = os.path.join(run_dir, "stream.mwts")
        need("save_dataset", D.save_dataset, stream_path, need(
            "generate", D.generate, D.desk_config(
                4 * self.seed + 1, samples_per_module=s.stream_per_module,
                fault_count=s.stream_faults)))
        stream = need("load_dataset", D.load_dataset, stream_path)
        stream_parts = need("split", D.split, stream, fractions=SPLIT, seed=self.seed)
        online_pulses, _ = need("standardize", D.standardize, stream_parts.test, stats)
        analysis_path = os.path.join(run_dir, "analysis.mwts")
        need("save_dataset", D.save_dataset, analysis_path, need(
            "generate", D.generate, D.desk_config(
                4 * self.seed + 2, samples_per_module=s.analysis_per_module, fault_count=0)))

        config_path = os.path.join(run_dir, "bench.ini")
        with open(config_path, "w") as fh:
            fh.write(
                f"[split]\ntrain_fraction = {SPLIT[0]}\nval_fraction = {SPLIT[1]}\n"
                f"test_fraction = {SPLIT[2]}\nseed = {self.seed}\n"
                f"[eval]\nfpr_budget = {FPR_BUDGET}\n"
                f"[landscape]\ndataset_split = test\n"
                f"[uq]\nn_draws = {s.uq_draws}\nexamples = {s.examples}\n"
            )
        model_dir = os.path.join(run_dir, "model")
        os.makedirs(model_dir)
        stats.save_csv(os.path.join(model_dir, "stats.csv"), tuple(train_wt.channel_names))
        inputs = Inputs(
            spec=M.desk_spec(), train_std=train_std, val_normal=val_normal, stats=stats,
            stream_path=stream_path, stream_size=stream.n_samples,
            online_pulses=online_pulses, analysis_path=analysis_path,
            config_path=config_path, model_dir=model_dir,
        )
        if self.workload != "train":
            # training is the train workload's own phase, so here it is
            # timed but not traced
            with self.tracer.paused():
                self._train(inputs, s.epochs)
            if inputs.params is None:
                raise Abandoned("train")
            self._save_and_load(inputs)
        return inputs

    # ------------------------------------------------------------- phases

    def _phase(self, name: str, fn, *args) -> None:
        if name in OWN_PHASES[self.workload]:
            with self.tracer.tracing():
                fn(*args)
        else:
            fn(*args)

    def run(self) -> None:
        if self.inputs is None:
            return
        if self.workload == "train":
            self._phase("train", self._train, self.inputs, self.sizes.epochs)
            try:
                self._save_and_load(self.inputs)
            except Abandoned:
                return
            self._check_round_trip()
        if self.inputs.params is None:
            return
        s = self.sizes
        rounds = (
            ("train", self.phase_retrain, s.retrains),
            ("online", self.phase_online, s.online),
            ("eval", self.phase_eval, s.evals),
            ("sampled", self.phase_sampled, s.sampled_chunks),
            ("landscape", self.phase_landscape, s.landscapes),
            ("uq", self.phase_uq, s.uq_runs),
        )
        for r in range(ROUNDS):
            self.round = r
            for name, fn, total in rounds:
                if share(total, r):
                    self._phase(name, fn, share(total, r))
        self.finish()

    def _train(self, inputs: Inputs, epochs: int) -> None:
        t0 = time.perf_counter()
        result = self.outcome.call(
            "train", TR.train, inputs.spec, inputs.train_std, inputs.val_normal,
            self._train_config(epochs))
        elapsed = time.perf_counter() - t0
        if result is None:
            return
        if inputs.params is None:
            # the first training's model is the one saved, scored and reported
            inputs.train_result = result
            inputs.params = result.params
        # samples over wall time, each epoch's validation pass included
        self.work["train_samples_per_s"].add(
            len(result.log.epochs) * inputs.train_std.n_samples, elapsed)
        val_total = result.log.epochs[-1].validation.total
        self.outcome.check(math.isfinite(val_total), f"val_total finite ({val_total})")
        self.outcome.check(len(result.log.epochs) == epochs,
                           f"{len(result.log.epochs)} of {epochs} epochs run")

    def phase_retrain(self, count: int) -> None:
        """Train again from scratch: one long training samples the machine's
        speed at one stretch of the run, several sample it across the run."""
        for _ in range(count):
            self._train(self.inputs, self.sizes.epochs)

    def _save_and_load(self, inputs: Inputs) -> None:
        """Checkpoint to disk and back; the loaded parameters are used."""
        if inputs.params is None:
            return
        path = os.path.join(inputs.model_dir, "checkpoint.mwck")
        self.outcome.need("save_checkpoint", CK.save_checkpoint, path, inputs.spec, inputs.params)
        spec, params = self.outcome.need("load_checkpoint", CK.load_checkpoint, path)
        inputs.params = params
        self.outcome.check(spec == inputs.spec, "checkpoint spec round-trips")

    def _check_round_trip(self) -> None:
        """save -> load -> save is bit-exact, and so are the arrays."""
        inputs = self.inputs
        if inputs.train_result is None or inputs.params is None:
            return
        with open(os.path.join(inputs.model_dir, "checkpoint.mwck"), "rb") as fh:
            on_disk = fh.read()
        again = io.BytesIO()
        try:
            self.outcome.need("save_checkpoint", CK.save_checkpoint, again, inputs.spec,
                              inputs.params)
        except Abandoned:
            return
        self.outcome.check(again.getvalue() == on_disk, "checkpoint bytes round-trip")
        same = all(
            a.data.view(np.uint32).tobytes() == b.data.view(np.uint32).tobytes()
            for (_, a), (_, b) in zip(inputs.train_result.params.named_tensors(),
                                      inputs.params.named_tensors())
        )
        self.outcome.check(same, "checkpoint arrays round-trip bit-exactly")

    def phase_online(self, count: int) -> None:
        inputs = self.inputs
        pulses = inputs.online_pulses
        for _ in range(count):
            i = self.online_done % pulses.n_samples
            self.online_done += 1
            one = pulses.select(slice(i, i + 1))
            t0 = time.perf_counter()
            scores = self.outcome.call(
                "score", E.score, inputs.params, inputs.spec, one, batch_size=1)
            self.latencies[self.round].append(time.perf_counter() - t0)
            if scores:
                self.online_scores[scores[0].sample_id] = (scores[0].label, scores[0].aggregate)

    def phase_eval(self, count: int) -> None:
        inputs = self.inputs
        for _ in range(count):
            t0 = time.perf_counter()
            ok = self._cli(["eval", "--data", inputs.stream_path, "--multi", inputs.model_dir,
                            "--config", inputs.config_path,
                            "--out", os.path.join(self.work_dir, "eval"),
                            "--seed", str(self.seed), "--jobs", str(self.jobs)])
            if ok:
                self.work["eval_pulses_per_s"].add(inputs.stream_size, time.perf_counter() - t0)

    def phase_sampled(self, count: int) -> None:
        inputs = self.inputs
        pulses = inputs.online_pulses
        for _ in range(count):
            start = (self.chunks_done * CHUNK) % pulses.n_samples
            self.chunks_done += 1
            chunk = pulses.select(slice(start, start + CHUNK))
            t0 = time.perf_counter()
            scores = self.outcome.call(
                "score sampled", E.score, inputs.params, inputs.spec, chunk,
                mode="sampled", n_draws=SAMPLED_DRAWS, seed=self.seed, batch_size=CHUNK)
            elapsed = time.perf_counter() - t0
            if scores is not None:
                self.work["sampled_pulses_per_s"].add(chunk.n_samples, elapsed)
                self.outcome.check(
                    all(s.replica_aggregates.size == SAMPLED_DRAWS for s in scores),
                    "sampled scores carry one aggregate per draw")

    def phase_landscape(self, count: int) -> None:
        inputs = self.inputs
        res = self.sizes.resolution
        cells = res * res + 1  # the centre is evaluated once more on its own
        for _ in range(count):
            t0 = time.perf_counter()
            ok = self._cli(["landscape", "--data", inputs.analysis_path,
                            "--model", inputs.model_dir, "--config", inputs.config_path,
                            "--res", str(res), "--out", os.path.join(self.work_dir, "landscape"),
                            "--jobs", str(self.jobs)])
            if ok:
                self.work["landscape_cells_per_s"].add(cells, time.perf_counter() - t0)

    def phase_uq(self, count: int) -> None:
        inputs = self.inputs
        for _ in range(count):
            t0 = time.perf_counter()
            ok = self._cli(["uq", "--data", inputs.analysis_path, "--model", inputs.model_dir,
                            "--config", inputs.config_path,
                            "--out", os.path.join(self.work_dir, "uq"),
                            "--seed", str(UQ_SEED), "--jobs", str(self.jobs)])
            if ok:
                self.work["calibration_samples_per_s"].add(
                    self.sizes.examples, time.perf_counter() - t0)

    # ------------------------------------------------------ metrics, checks

    def samples(self) -> dict[str, list[float]]:
        return {
            "pulse_latency_ms": [1e3 * x for r in self.latencies for x in r],
            **{name: t.rates() for name, t in self.work.items()},
        }

    def finish(self) -> None:
        """Turn the samples into metrics and check the outputs (untraced)."""
        v = self.values
        result = self.inputs.train_result
        if result is not None:
            v["val_total"] = result.log.epochs[-1].validation.total
        rounds = [r for r in self.latencies if r]
        if rounds:
            v["pulse_latency_p50_ms"] = 1e3 * float(np.median(np.concatenate(rounds)))
            # each round's p90, then their median: a burst of scheduling
            # spikes that fills one round moves one of ten values
            v["pulse_latency_p90_ms"] = 1e3 * statistics.median(
                float(np.percentile(r, 90)) for r in rounds)
        for name, t in self.work.items():
            if t.seconds:
                v[name] = t.rate()
        with self.tracer.paused():
            self._check_threshold()
            if self.work["eval_pulses_per_s"].seconds:
                self._check_eval_outputs(os.path.join(self.work_dir, "eval", "scores.csv"))
            if self.work["landscape_cells_per_s"].seconds:
                self._check_centre(os.path.join(self.work_dir, "landscape", "landscape_main.csv"))
            if self.work["calibration_samples_per_s"].seconds:
                self._check_areas(os.path.join(self.work_dir, "uq"))

    def _check_threshold(self) -> None:
        """pick_threshold keeps the empirical FPR within its budget."""
        normals = [a for label, a in self.online_scores.values() if label == D.NORMAL_LABEL]
        if len(normals) * FPR_BUDGET < 1:
            return
        threshold = self.outcome.call("pick_threshold", E.pick_threshold, normals, FPR_BUDGET)
        if threshold is not None:
            fpr = float(np.mean(np.asarray(normals) >= threshold))
            self.outcome.check(fpr <= FPR_BUDGET, f"empirical FPR {fpr} within {FPR_BUDGET}")

    def _check_eval_outputs(self, scores_csv: str) -> None:
        with open(scores_csv, newline="") as fh:
            batched = {int(r["sample_id"]): (r["label"], float(r["aggregate"]))
                       for r in csv.DictReader(fh)}
        normals = np.array([a for lbl, a in batched.values() if lbl == D.NORMAL_LABEL])
        faults = np.array([a for lbl, a in batched.values() if lbl != D.NORMAL_LABEL])
        curve = self.outcome.call("roc_auc", E.roc_auc, normals, faults)
        if curve is None:
            return
        # pooled over every fault class
        self.values["detect_auc"] = curve.auc
        # Mann-Whitney by brute force: every (fault, normal) pair, ties 1/2
        wins = (faults[:, None] > normals[None, :]).sum(dtype=np.float64)
        ties = (faults[:, None] == normals[None, :]).sum(dtype=np.float64)
        brute = (wins + 0.5 * ties) / (faults.size * normals.size)
        self.outcome.check(abs(curve.auc - brute) <= 1e-12,
                           f"roc_auc {curve.auc!r} equals pair count {brute!r}")
        common = sorted(set(self.online_scores) & set(batched))
        self.outcome.check(bool(common), "online and batch phases share pulses")
        if common:
            one = np.array([self.online_scores[i][1] for i in common])
            many = np.array([batched[i][1] for i in common])
            worst = float(np.max(np.abs(one - many) / np.abs(many)))
            self.outcome.check(worst <= 1e-4,
                               f"batch-1 scores match batched scores (rel diff {worst:.2e})")

    def _check_centre(self, grid_csv: str) -> None:
        """The grid centre equals dataset_loss at the trained parameters."""
        inputs = self.inputs
        with open(grid_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        c = self.sizes.resolution // 2
        centre = float(rows[1 + c][1 + c])

        def reference() -> float:
            wt = D.load_dataset(inputs.analysis_path)
            surface, _ = D.standardize(D.split(wt, fractions=SPLIT, seed=self.seed).test,
                                       inputs.stats)
            return TR.dataset_loss(inputs.params, inputs.spec, surface, 1.0, 64).total

        direct = self.outcome.call("dataset_loss at the centre", reference)
        if direct is not None:
            self.outcome.check(math.isclose(centre, direct, rel_tol=1e-9),
                               f"grid centre {centre!r} equals dataset_loss {direct!r}")

    def _check_areas(self, uq_dir: str) -> None:
        areas = []
        for name in sorted(os.listdir(uq_dir)):
            if name.startswith("uq_") and name.endswith(".csv"):
                with open(os.path.join(uq_dir, name), newline="") as fh:
                    areas += [float(r["miscalibration_area"]) for r in csv.DictReader(fh)]
        self.outcome.check(bool(areas), "uq wrote miscalibration areas")
        self.outcome.check(all(0.0 <= a <= 0.5 for a in areas),
                           f"miscalibration areas in [0, 0.5] "
                           f"({min(areas, default=0)}..{max(areas, default=0)})")
