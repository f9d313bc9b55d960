"""Anomaly scoring and detection metrics.

A sample's anomaly score is its reconstruction MSE under a trained model,
kept per channel (different fault types light up different waveforms) with
the aggregate being the mean across channels.  Flagging convention: a
sample is flagged anomalous when score >= threshold.

Every summary of a ScoreTable (``summarize``, ``auc_table``,
``compare_methods``) is a column table: a dict from CSV header name to
column, in header order, which its ``write_*_csv`` function writes as is.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as M
from .data import WaveformTensor
from .errors import ConfigError, DataError, ShapeError
from .model import ModelParameters, ModelSpec
from .tensor import Tensor
from .util import check_finite, parallel_map, seeded_rng, write_csv

_DRAW_TAG = 0x5C02
DENSITY_EDGES = 10.0 ** (np.arange(33) * 0.25 - 7.0)  # 1e-7 .. 1e1, 0.25 decades


@dataclass
class AnomalyScore:
    """One row of a ScoreTable."""

    sample_id: int
    module_id: int
    label: str
    channel_mse: np.ndarray  # (channels,) float64
    aggregate: float
    replica_aggregates: np.ndarray | None = None  # (n_draws,) in sampled mode


@dataclass(eq=False)
class ScoreTable:
    """Scores of N samples as columns named like the fields of AnomalyScore;
    ``table[i]`` is row i as an AnomalyScore."""

    sample_id: np.ndarray  # (N,) int64
    module_id: np.ndarray  # (N,) int64
    label: np.ndarray  # (N,) str
    channel_mse: np.ndarray  # (N, channels) float64
    aggregate: np.ndarray  # (N,) float64, the mean over channels
    replica_aggregates: np.ndarray | None = None  # (N, n_draws) in sampled mode

    def __len__(self) -> int:
        return self.sample_id.size

    def __getitem__(self, i: int) -> AnomalyScore:
        reps = self.replica_aggregates
        return AnomalyScore(
            int(self.sample_id[i]), int(self.module_id[i]), str(self.label[i]),
            self.channel_mse[i], float(self.aggregate[i]),
            None if reps is None else reps[i].copy(),
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


@dataclass
class RocCurve:
    points: np.ndarray  # (K, 2) columns FPR, TPR; starts (0,0), ends (1,1)
    thresholds: np.ndarray  # (K,) sweep values, descending; starts +inf
    auc: float
    positive_count: int
    negative_count: int


def _channel_mse(x64: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    err = (x64 - x_hat.astype(np.float64)) ** 2
    return err.mean(axis=1)  # (batch, channels)


def score(
    params: ModelParameters,
    spec: ModelSpec,
    data: WaveformTensor,
    mode: str = "deterministic",
    n_draws: int = 100,
    seed: int = 0,
    batch_size: int = 32,
    jobs: int = 1,
) -> ScoreTable:
    """Reconstruction-error scores for every sample in ``data``.

    ``deterministic`` mode decodes from z = mu.  ``sampled`` mode averages
    ``n_draws`` stochastic reconstructions and keeps the per-draw aggregate
    scores so downstream metrics can carry uncertainty.
    """
    if mode not in ("deterministic", "sampled"):
        raise ConfigError(f"unknown scoring mode {mode!r}")
    if mode == "sampled" and n_draws < 2:
        raise ConfigError(f"sampled mode needs n_draws >= 2, got {n_draws}")
    data.validate_structure()  # each batch is checked for finiteness as it is read
    if data.data.shape[1:] != (spec.time_steps, spec.channels):
        raise ShapeError(
            f"data dims {data.data.shape[1:]} vs model ({spec.time_steps}, {spec.channels})"
        )
    if spec.mode == "cvae" and data.n_samples:
        worst = int(data.module_ids.max())
        if worst >= spec.module_count:
            raise DataError(f"module id {worst} unseen by this model")

    params = params.frozen()  # forward only: no tape
    n = data.n_samples
    channel_mse = np.empty((n, spec.channels), dtype=np.float64)
    replicas = np.empty((n, n_draws), dtype=np.float64) if mode == "sampled" else None

    def _score_batch(start: int) -> None:
        rows = slice(start, min(start + batch_size, n))
        x = check_finite(data.data[rows], "waveform data")
        x64 = x.astype(np.float64)
        ids = data.module_ids[rows] if spec.mode == "cvae" else None
        if mode == "deterministic":
            channel_mse[rows] = _channel_mse(x64, M.reconstruct(params, spec, x, ids))
            return
        ch_sum = np.zeros((x.shape[0], spec.channels), dtype=np.float64)
        dist = M.encode(params, spec, Tensor(x), ids)
        for draw in range(n_draws):
            rng = seeded_rng(seed, _DRAW_TAG, draw, start)
            ch = _channel_mse(x64, M.decode_draw(params, spec, dist, ids, rng))
            ch_sum += ch
            replicas[rows, draw] = ch.mean(axis=1)
        channel_mse[rows] = ch_sum / n_draws

    # worker threads fill disjoint rows
    parallel_map(_score_batch, range(0, n, batch_size), jobs)
    return ScoreTable(
        sample_id=data.sample_ids.astype(np.int64),
        module_id=data.module_ids.astype(np.int64),
        label=data.labels.copy(),
        channel_mse=channel_mse,
        aggregate=channel_mse.mean(axis=1),
        replica_aggregates=replicas,
    )


def _rank_auc(neg: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Mann-Whitney AUC of each column of ``pos`` (P, K) against the same
    column of ``neg`` (N, K): the fraction of (abnormal, normal) pairs where
    the abnormal sample scores higher, counting ties as one half."""
    n, p, k = neg.shape[0], pos.shape[0], neg.shape[1]
    if n == 0 or p == 0:
        raise DataError("both score classes must be nonempty")
    # dense ranks over all columns, with column j's ranks shifted past column
    # j-1's, so one sorted array and two searches count every column apart
    ranks = np.unique(np.concatenate([neg, pos]), return_inverse=True)[1].reshape(n + p, k)
    keys = ranks + np.arange(k) * (int(ranks.max()) + 1)
    neg_sorted = np.sort(keys[:n], axis=None)
    less = np.searchsorted(neg_sorted, keys[n:], side="left")
    ties = np.searchsorted(neg_sorted, keys[n:], side="right") - less
    # every normal of the columns before j sorts below column j's keys
    less -= np.arange(k) * n
    wins = less.sum(axis=0, dtype=np.float64) + 0.5 * ties.sum(axis=0, dtype=np.float64)
    return wins / (p * n)


def roc_auc(normal_scores, abnormal_scores) -> RocCurve:
    """ROC curve and AUC with higher scores treated as more anomalous.

    AUC is the Mann-Whitney pair statistic: the fraction of
    (abnormal, normal) pairs where the abnormal sample scores higher,
    counting ties as one half.
    """
    neg = np.asarray(normal_scores, dtype=np.float64).ravel()
    pos = np.asarray(abnormal_scores, dtype=np.float64).ravel()
    auc = float(_rank_auc(neg[:, None], pos[:, None])[0])

    sweep = np.unique(np.concatenate([neg, pos]))[::-1]
    thresholds = np.concatenate([[np.inf], sweep])
    # share of each class scoring >= each threshold
    fpr = (neg.size - np.searchsorted(np.sort(neg), thresholds, side="left")) / neg.size
    tpr = (pos.size - np.searchsorted(np.sort(pos), thresholds, side="left")) / pos.size
    points = np.column_stack([fpr, tpr])
    return RocCurve(
        points=points,
        thresholds=thresholds,
        auc=auc,
        positive_count=int(pos.size),
        negative_count=int(neg.size),
    )


def pick_threshold(normal_scores, fpr_budget: float) -> float:
    """Smallest score value whose empirical FPR on ``normal_scores`` stays
    within the budget; a sample is flagged when its score >= threshold."""
    if not 0.0 < fpr_budget <= 1.0:
        raise ConfigError(f"fpr_budget must be in (0, 1], got {fpr_budget}")
    s = np.sort(np.asarray(normal_scores, dtype=np.float64).ravel())
    if s.size < 10:
        raise DataError(f"need >= 10 normal scores to resolve the quantile, got {s.size}")
    k = int(np.floor(fpr_budget * s.size))
    if k < 1:
        raise DataError(
            f"budget {fpr_budget} allows no false positives among {s.size} samples"
        )
    # count of scores >= v must be <= k; candidates are the data values
    candidates = np.unique(s)
    within = np.flatnonzero(s.size - np.searchsorted(s, candidates, side="left") <= k)
    if within.size:
        return float(candidates[within[0]])
    return float(np.nextafter(s[-1], np.inf))


def flagged(scores, threshold: float) -> np.ndarray:
    return np.asarray(scores, dtype=np.float64) >= threshold


def density_counts(values) -> np.ndarray:
    """Histogram over the fixed log10 grid; values are clipped into range."""
    v = np.asarray(values, dtype=np.float64).ravel()
    v = np.clip(v, DENSITY_EDGES[0], DENSITY_EDGES[-1])
    counts, _ = np.histogram(v, bins=DENSITY_EDGES)
    return counts


def _named_values(scores: ScoreTable, channel_names: list[str]):
    """``(names, values)``: 'aggregate' then the channel names, and the
    (N, len(names)) matrix of the matching score columns."""
    names = ["aggregate", *channel_names]
    values = np.column_stack([scores.aggregate, scores.channel_mse])[:, : len(names)]
    return names[: values.shape[1]], values


def _extend(table: dict, *blocks) -> None:
    """Append rows to a column table, given as one block per column."""
    for column, block in zip(table.values(), blocks, strict=True):
        column.extend(block)


def summarize(scores: ScoreTable, channel_names: list[str]) -> tuple[dict, dict]:
    """Box statistics per (module, label, channel) and pooled log-bin
    densities per (label, channel), as column tables; 'aggregate' rows
    cover the per-sample mean score."""
    if not scores:
        raise DataError("no scores to summarize")
    modules, labels = scores.module_id, scores.label
    names, values = _named_values(scores, channel_names)
    k = len(names)

    groups = sorted(set(zip(modules.tolist(), labels.tolist())))
    stats = []  # per group, (7, k): count, min, q1, median, q3, max, mean
    for module, label in groups:
        # every reduction runs along the contiguous axis, so each channel's
        # figures equal those of the channel taken alone
        per_channel = np.ascontiguousarray(values[(modules == module) & (labels == label)].T)
        stats.append([
            np.full(k, per_channel.shape[1]), per_channel.min(axis=1),
            *np.percentile(per_channel, [25.0, 50.0, 75.0], axis=1),
            per_channel.max(axis=1), per_channel.mean(axis=1),
        ])
    count, *figures = np.array(stats).transpose(1, 0, 2).reshape(7, -1)
    box = {
        "module": np.repeat([m for m, _ in groups], k),
        "label": np.repeat([lbl for _, lbl in groups], k),
        "channel": np.tile(names, len(groups)),
        "count": count.astype(np.int64),
        **dict(zip(["min", "q1", "median", "q3", "max", "mean"], figures)),
    }

    pooled = np.unique(labels)
    counts = np.array([density_counts(values[labels == lbl, c]) for lbl in pooled for c in range(k)])
    bins = counts.shape[1]
    density = {
        "label": np.repeat(pooled, k * bins),
        "channel": np.tile(np.repeat(names, bins), pooled.size),
        "bin_low": np.tile(DENSITY_EDGES[:-1], counts.shape[0]),
        "bin_high": np.tile(DENSITY_EDGES[1:], counts.shape[0]),
        "count": counts.ravel(),
        # an empty histogram has all-zero counts, so its fractions stay 0
        "fraction": (counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)).ravel(),
    }
    return box, density


def auc_table(
    scores: ScoreTable, channel_names: list[str], normal_label: str = "normal"
) -> dict:
    """Per fault class: aggregate AUC pooled and per module, plus
    per-channel AUCs ranked by detection strength, as a column table."""
    modules, labels = scores.module_id, scores.label
    normal = labels == normal_label
    if not normal.any():
        raise DataError("no normal samples to compare against")
    names, values = _named_values(scores, channel_names)
    k, n_normal = len(names), int(normal.sum())
    table = {key: [] for key in
             ("fault", "module", "channel", "auc", "n_normal", "n_abnormal", "channel_rank")}
    for fault in np.unique(labels[~normal]).tolist():
        abnormal = labels == fault
        aucs = _rank_auc(values[normal], values[abnormal])
        # a stable sort keeps channel order among equal AUCs
        rank = np.empty(k - 1, dtype=np.int64)
        rank[np.argsort(-aucs[1:], kind="stable")] = np.arange(1, k)
        _extend(table, [fault] * k, ["all"] * k, names, aucs.tolist(), [n_normal] * k,
                [int(abnormal.sum())] * k, ["", *rank.tolist()])
        for module in np.unique(modules[abnormal]).tolist():
            neg, pos = normal & (modules == module), abnormal & (modules == module)
            if neg.any():
                auc = float(_rank_auc(values[neg, :1], values[pos, :1])[0])
                _extend(table, [fault], [module], ["aggregate"], [auc], [int(neg.sum())],
                        [int(pos.sum())], [""])
    return table


def _method_auc(scores: ScoreTable, neg, pos) -> tuple[float, float | None]:
    """Aggregate AUC of one method on one cell, and its spread over draws."""
    auc = float(_rank_auc(scores.aggregate[neg, None], scores.aggregate[pos, None])[0])
    replicas = scores.replica_aggregates
    if replicas is None:
        return auc, None
    return auc, float(_rank_auc(replicas[neg], replicas[pos]).std())


def compare_methods(
    multi_scores: ScoreTable,
    single_scores: dict[int, ScoreTable],
    normal_label: str = "normal",
) -> dict:
    """AUC of the multi-module model vs the per-module models on the same
    test set, one row per (fault class, module), as a column table; cells
    without fault or normal samples are marked absent (None) rather than
    zero, and so is their ``delta``, auc_multi - auc_single."""
    modules, labels = multi_scores.module_id, multi_scores.label
    present = np.unique(modules).tolist()
    for m in present:
        if m not in single_scores:
            raise DataError(f"no single-module scores for module {m}")
        ids = multi_scores.sample_id[modules == m]
        if not np.array_equal(np.sort(ids), np.sort(single_scores[m].sample_id)):
            raise DataError(f"methods scored different sample sets for module {m}")

    table = {key: [] for key in ("fault", "module", "n_normal", "n_abnormal", "auc_multi",
                                 "sd_multi", "auc_single", "sd_single", "delta")}
    for fault in np.unique(labels[labels != normal_label]).tolist():
        for m in present:
            neg = (modules == m) & (labels == normal_label)
            pos = (modules == m) & (labels == fault)
            n_neg, n_pos = int(neg.sum()), int(pos.sum())
            multi = single = (None, None)
            delta = None
            if n_neg and n_pos:
                s = single_scores[m]
                multi = _method_auc(multi_scores, neg, pos)
                single = _method_auc(s, s.label == normal_label, s.label == fault)
                delta = multi[0] - single[0]
            row = (fault, m, n_neg, n_pos, *multi, *single, delta)
            for column, cell in zip(table.values(), row, strict=True):
                column.append(cell)
    return table


# ---------------------------------------------------------------- CSV output


def write_scores_csv(path, scores: ScoreTable, channel_names: list[str]) -> None:
    write_csv(
        path,
        ["sample_id", "module", "label", *channel_names, "aggregate"],
        [scores.sample_id, scores.module_id, scores.label, *scores.channel_mse.T,
         scores.aggregate],
    )


def write_roc_csv(path, curve: RocCurve) -> None:
    write_csv(path, ["threshold", "fpr", "tpr"], [curve.thresholds, *curve.points.T])


def write_auc_table_csv(path, table: dict) -> None:
    """Write a column table: its keys are the header, its values the columns."""
    write_csv(path, list(table), table.values())


# every summary table is written the same way
write_boxstats_csv = write_density_csv = write_comparison_csv = write_auc_table_csv
