"""Anomaly scoring and detection metrics.

A sample's anomaly score is its reconstruction MSE under a trained model,
kept per channel (different fault types light up different waveforms) with
the aggregate being the mean across channels.  Flagging convention: a
sample is flagged anomalous when score >= threshold.
"""
from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import model as M
from .data import WaveformTensor
from .errors import ConfigError, DataError, ShapeError
from .model import ModelParameters, ModelSpec
from .tensor import Tensor
from .util import seeded_rng

_DRAW_TAG = 0x5C02
DENSITY_EDGES = 10.0 ** (np.arange(33) * 0.25 - 7.0)  # 1e-7 .. 1e1, 0.25 decades


@dataclass
class AnomalyScore:
    sample_id: int
    module_id: int
    label: str
    channel_mse: np.ndarray  # (channels,) float64
    aggregate: float
    replica_aggregates: np.ndarray | None = None  # (n_draws,) in sampled mode


@dataclass
class RocCurve:
    points: np.ndarray  # (K, 2) columns FPR, TPR; starts (0,0), ends (1,1)
    thresholds: np.ndarray  # (K,) sweep values, descending; starts +inf
    auc: float
    positive_count: int
    negative_count: int


def _channel_mse(x: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    err = (x.astype(np.float64) - x_hat.astype(np.float64)) ** 2
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
) -> list[AnomalyScore]:
    """Reconstruction-error scores for every sample in ``data``.

    ``deterministic`` mode decodes from z = mu.  ``sampled`` mode averages
    ``n_draws`` stochastic reconstructions and keeps the per-draw aggregate
    scores so downstream metrics can carry uncertainty.
    """
    if mode not in ("deterministic", "sampled"):
        raise ConfigError(f"unknown scoring mode {mode!r}")
    if mode == "sampled" and n_draws < 2:
        raise ConfigError(f"sampled mode needs n_draws >= 2, got {n_draws}")
    data.validate()
    if data.data.shape[1:] != (spec.time_steps, spec.channels):
        raise ShapeError(
            f"data dims {data.data.shape[1:]} vs model ({spec.time_steps}, {spec.channels})"
        )
    if spec.mode == "cvae" and data.n_samples:
        worst = int(data.module_ids.max())
        if worst >= spec.module_count:
            raise DataError(f"module id {worst} unseen by this model")

    n = data.n_samples
    starts = list(range(0, n, batch_size))

    def _score_batch(start: int):
        stop = min(start + batch_size, n)
        x = data.data[start:stop]
        ids = data.module_ids[start:stop] if spec.mode == "cvae" else None
        if mode == "deterministic":
            x_hat = M.reconstruct(params, spec, x, ids, epsilon=None)
            ch = _channel_mse(x, x_hat)
            return start, ch, None
        ch_sum = np.zeros((stop - start, spec.channels), dtype=np.float64)
        reps = np.zeros((n_draws, stop - start), dtype=np.float64)
        xt = Tensor(x)
        dist = M.encode(params, spec, xt, ids)
        for draw in range(n_draws):
            rng = seeded_rng(seed, _DRAW_TAG, draw, start)
            eps = rng.standard_normal((stop - start, spec.latent_dim)).astype(np.float32)
            z = M.reparameterize(dist, eps)
            x_hat = M.decode(params, spec, z, ids).data
            ch = _channel_mse(x, x_hat)
            ch_sum += ch
            reps[draw] = ch.mean(axis=1)
        return start, ch_sum / n_draws, reps

    if jobs <= 1:
        batches = [_score_batch(s) for s in starts]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            batches = list(pool.map(_score_batch, starts))

    out: list[AnomalyScore] = []
    for start, ch, reps in batches:
        for i in range(ch.shape[0]):
            out.append(
                AnomalyScore(
                    sample_id=int(data.sample_ids[start + i]),
                    module_id=int(data.module_ids[start + i]),
                    label=str(data.labels[start + i]),
                    channel_mse=ch[i],
                    aggregate=float(ch[i].mean()),
                    replica_aggregates=None if reps is None else reps[:, i].copy(),
                )
            )
    return out


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


@dataclass
class BoxStats:
    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float


def _box_rows(rows: np.ndarray) -> list[BoxStats]:
    """Box statistics of each row of a C-contiguous (K, n) array; every
    reduction runs along the contiguous axis, so each row's figures equal
    those of the row taken alone."""
    q1, med, q3 = np.percentile(rows, [25.0, 50.0, 75.0], axis=1)
    return [
        BoxStats(rows.shape[1], *map(float, stat))
        for stat in zip(rows.min(axis=1), q1, med, q3, rows.max(axis=1), rows.mean(axis=1))
    ]


def box_stats(values) -> BoxStats:
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise DataError("cannot summarize an empty group")
    return _box_rows(v[None, :])[0]


def density_counts(values) -> np.ndarray:
    """Histogram over the fixed log10 grid; values are clipped into range."""
    v = np.asarray(values, dtype=np.float64).ravel()
    v = np.clip(v, DENSITY_EDGES[0], DENSITY_EDGES[-1])
    counts, _ = np.histogram(v, bins=DENSITY_EDGES)
    return counts


def _columns(scores: list[AnomalyScore]):
    """Sample ids, module ids, labels and an (N, channels + 1) float64
    matrix holding each sample's aggregate and then its channel scores."""
    return (
        np.array([s.sample_id for s in scores], dtype=np.int64),
        np.array([s.module_id for s in scores], dtype=np.int64),
        np.array([s.label for s in scores], dtype=str),
        np.array([(s.aggregate, *s.channel_mse) for s in scores], dtype=np.float64),
    )


def summarize(
    scores: list[AnomalyScore], channel_names: list[str]
) -> tuple[list[dict], list[dict]]:
    """Box statistics per (module, label, channel) and pooled log-bin
    densities per (label, channel); 'aggregate' rows cover the per-sample
    mean score."""
    if not scores:
        raise DataError("no scores to summarize")
    _, modules, labels, values = _columns(scores)
    names = ["aggregate", *channel_names]

    box_rows = []
    for module, label in sorted(set(zip(modules.tolist(), labels.tolist()))):
        group = (modules == module) & (labels == label)
        per_channel = np.ascontiguousarray(values[group, : len(names)].T)
        for name, st in zip(names, _box_rows(per_channel)):
            box_rows.append(
                {
                    "module": module,
                    "label": label,
                    "channel": name,
                    "count": st.count,
                    "min": st.minimum,
                    "q1": st.q1,
                    "median": st.median,
                    "q3": st.q3,
                    "max": st.maximum,
                    "mean": st.mean,
                }
            )

    density_rows = []
    for label in np.unique(labels).tolist():
        group = values[labels == label]
        for c, name in enumerate(names):
            counts = density_counts(group[:, c])
            total = counts.sum()
            for b in range(counts.size):
                density_rows.append(
                    {
                        "label": label,
                        "channel": name,
                        "bin_low": DENSITY_EDGES[b],
                        "bin_high": DENSITY_EDGES[b + 1],
                        "count": int(counts[b]),
                        "fraction": counts[b] / total if total else 0.0,
                    }
                )
    return box_rows, density_rows


def auc_table(
    scores: list[AnomalyScore], channel_names: list[str], normal_label: str = "normal"
) -> list[dict]:
    """Per fault class: aggregate AUC pooled and per module, plus
    per-channel AUCs ranked by detection strength."""
    _, modules, labels, values = _columns(scores)
    normal = labels == normal_label
    if not normal.any():
        raise DataError("no normal samples to compare against")
    names = ["aggregate", *channel_names]
    rows = []
    for fault in np.unique(labels[~normal]).tolist():
        abnormal = labels == fault
        aucs = _rank_auc(values[normal, : len(names)], values[abnormal, : len(names)])
        channel_rows = [
            {
                "fault": fault,
                "module": "all",
                "channel": name,
                "auc": float(auc),
                "n_normal": int(normal.sum()),
                "n_abnormal": int(abnormal.sum()),
            }
            for name, auc in zip(names, aucs)
        ]
        ranked = sorted(
            (r for r in channel_rows if r["channel"] != "aggregate"),
            key=lambda r: -r["auc"],
        )
        rank_of = {r["channel"]: i + 1 for i, r in enumerate(ranked)}
        for r in channel_rows:
            r["channel_rank"] = rank_of.get(r["channel"], "")
            rows.append(r)
        for module in np.unique(modules[abnormal]).tolist():
            mod_norm = normal & (modules == module)
            mod_abn = abnormal & (modules == module)
            if not mod_norm.any():
                continue
            rows.append(
                {
                    "fault": fault,
                    "module": module,
                    "channel": "aggregate",
                    "auc": float(_rank_auc(values[mod_norm, :1], values[mod_abn, :1])[0]),
                    "n_normal": int(mod_norm.sum()),
                    "n_abnormal": int(mod_abn.sum()),
                    "channel_rank": "",
                }
            )
    return rows


def _replicas(scores: list[AnomalyScore]) -> np.ndarray | None:
    """(N, n_draws) per-draw aggregates, or None when a sample has none."""
    if not scores or any(s.replica_aggregates is None for s in scores):
        return None
    if len({s.replica_aggregates.size for s in scores}) != 1:
        raise DataError("replica counts differ between samples")
    return np.stack([s.replica_aggregates for s in scores]).astype(np.float64, copy=False)


@dataclass
class ComparisonCell:
    fault: str
    module: int
    n_normal: int
    n_abnormal: int
    auc_multi: float | None
    sd_multi: float | None
    auc_single: float | None
    sd_single: float | None

    @property
    def delta(self) -> float | None:
        if self.auc_multi is None or self.auc_single is None:
            return None
        return self.auc_multi - self.auc_single


def _method_auc(values, replicas, neg, pos) -> tuple[float, float | None]:
    """Aggregate AUC of one method on one cell, and its spread over draws."""
    auc = float(_rank_auc(values[neg, :1], values[pos, :1])[0])
    if replicas is None:
        return auc, None
    return auc, float(_rank_auc(replicas[neg], replicas[pos]).std())


def compare_methods(
    multi_scores: list[AnomalyScore],
    single_scores: dict[int, list[AnomalyScore]],
    normal_label: str = "normal",
) -> list[ComparisonCell]:
    """AUC of the multi-module model vs the per-module models on the same
    test set, one cell per (fault class, module); cells without fault or
    normal samples are marked absent (None) rather than zero."""
    ids, modules, labels, values = _columns(multi_scores)
    replicas = _replicas(multi_scores)
    single = {}
    for m in np.unique(modules).tolist():
        if m not in single_scores:
            raise DataError(f"no single-module scores for module {m}")
        s_ids, _, s_labels, s_values = _columns(single_scores[m])
        if not np.array_equal(np.sort(ids[modules == m]), np.sort(s_ids)):
            raise DataError(f"methods scored different sample sets for module {m}")
        single[m] = s_labels, s_values, _replicas(single_scores[m])

    cells = []
    for fault in np.unique(labels[labels != normal_label]).tolist():
        for m, (s_labels, s_values, s_replicas) in single.items():
            neg = (modules == m) & (labels == normal_label)
            pos = (modules == m) & (labels == fault)
            n_neg, n_pos = int(neg.sum()), int(pos.sum())
            if not n_pos or not n_neg:
                cells.append(ComparisonCell(fault, m, n_neg, n_pos, None, None, None, None))
                continue
            cells.append(
                ComparisonCell(
                    fault, m, n_neg, n_pos,
                    *_method_auc(values, replicas, neg, pos),
                    *_method_auc(
                        s_values, s_replicas, s_labels == normal_label, s_labels == fault
                    ),
                )
            )
    return cells


# ---------------------------------------------------------------- CSV output


def write_scores_csv(path, scores: list[AnomalyScore], channel_names: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_id", "module", "label", *channel_names, "aggregate"])
        for s in scores:
            w.writerow(
                [s.sample_id, s.module_id, s.label]
                + [repr(float(v)) for v in s.channel_mse]
                + [repr(s.aggregate)]
            )


def write_roc_csv(path, curve: RocCurve) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["threshold", "fpr", "tpr"])
        for t, (fpr, tpr) in zip(curve.thresholds, curve.points):
            w.writerow([repr(float(t)), repr(float(fpr)), repr(float(tpr))])


def write_auc_table_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["fault", "module", "channel", "auc", "n_normal", "n_abnormal", "channel_rank"]
        )
        for r in rows:
            w.writerow(
                [
                    r["fault"],
                    r["module"],
                    r["channel"],
                    repr(r["auc"]),
                    r["n_normal"],
                    r["n_abnormal"],
                    r["channel_rank"],
                ]
            )


def write_boxstats_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["module", "label", "channel", "count", "min", "q1", "median", "q3", "max", "mean"]
        )
        for r in rows:
            w.writerow(
                [r["module"], r["label"], r["channel"], r["count"]]
                + [repr(r[k]) for k in ("min", "q1", "median", "q3", "max", "mean")]
            )


def write_density_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["label", "channel", "bin_low", "bin_high", "count", "fraction"])
        for r in rows:
            w.writerow(
                [
                    r["label"],
                    r["channel"],
                    repr(float(r["bin_low"])),
                    repr(float(r["bin_high"])),
                    r["count"],
                    repr(float(r["fraction"])),
                ]
            )


def write_comparison_csv(path, cells: list[ComparisonCell]) -> None:
    def fmt(v):
        return "" if v is None else repr(float(v))

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "fault",
                "module",
                "n_normal",
                "n_abnormal",
                "auc_multi",
                "sd_multi",
                "auc_single",
                "sd_single",
                "delta",
            ]
        )
        for c in cells:
            w.writerow(
                [
                    c.fault,
                    c.module,
                    c.n_normal,
                    c.n_abnormal,
                    fmt(c.auc_multi),
                    fmt(c.sd_multi),
                    fmt(c.auc_single),
                    fmt(c.sd_single),
                    fmt(c.delta),
                ]
            )
