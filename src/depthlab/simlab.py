"""Contamination benchmark: data generator, bias measures, replication grid.

The sampling model is a point-mass contaminated standard Gaussian: each row
is N(0, I_p) with probability 1 - epsilon and the constant vector
(k, ..., k) otherwise.  For every grid cell and replicate the same dataset
is handed to every estimator; per-replicate biases are the extreme
eigenvalues of the estimated scatter (b = max(lambda_1, 1/lambda_p), plus
the condition number), aggregated as a location measure over replicates and
then a max over the contamination distances k.

Determinism: the seed of each replicate is derived from the cell parameters
and replicate index alone, so reruns and resumed runs are byte-identical
regardless of worker count.  Flagged replicates (singular or non-converged
fits) are excluded from the location measure and counted in a failures
column.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .depth import as_dataset
from .estimators import ESTIMATOR_IDS, run_estimator
from .numerics import RngStream

__all__ = [
    "ContaminationSpec",
    "BiasRecord",
    "AggregateRow",
    "gen_contaminated",
    "bias_measures",
    "run_grid",
    "write_records_csv",
    "read_records_csv",
    "RecordsError",
    "aggregate",
    "write_aggregate_csv",
    "efficiency",
    "boxplot_stats",
    "RECORD_HEADER",
]

RECORD_HEADER = ("estimator", "p", "n", "epsilon", "k", "replicate",
                 "lambda1", "lambdap", "b", "cn", "flag")
AGGREGATE_HEADER = ("estimator", "p", "n", "epsilon", "measure",
                    "b_hat_log", "bcn_hat_log", "failures")


@dataclass(frozen=True)
class ContaminationSpec:
    """One cell of the contamination grid."""

    p: int
    n: int
    epsilon: float
    k: int
    seed: int

    def __post_init__(self):
        if self.n < self.p + 2:
            raise ValueError("need n >= p + 2")
        if not 0.0 <= self.epsilon < 0.5:
            raise ValueError("epsilon must lie in [0, 1/2)")
        if self.k < 0:
            raise ValueError("k must be nonnegative")


@dataclass(frozen=True)
class BiasRecord:
    estimator: str
    p: int
    n: int
    epsilon: float
    k: int
    replicate: int
    lambda1: float
    lambdap: float
    b: float
    cn: float
    flag: bool


@dataclass(frozen=True)
class AggregateRow:
    estimator: str
    p: int
    n: int
    epsilon: float
    measure: str
    b_hat_log: float
    bcn_hat_log: float
    failures: int


def _eps_key(epsilon):
    return int(round(epsilon * 1_000_000))


def replicate_seed(spec: ContaminationSpec, r: int) -> int:
    """Stable 64-bit seed for replicate ``r`` of a cell."""
    ss = np.random.SeedSequence(
        entropy=spec.seed & (2**64 - 1),
        spawn_key=(spec.p, spec.n, _eps_key(spec.epsilon), spec.k, r))
    return int(ss.generate_state(1, np.uint64)[0])


def gen_contaminated(spec: ContaminationSpec):
    """Sample n rows of the point-mass contaminated Gaussian.

    Bernoulli indicators and Gaussian rows come from disjoint sub-streams of
    the cell seed, so the clean part of the sample does not shift when
    epsilon changes.
    """
    stream = RngStream(spec.seed)
    bern = stream.child(1).generator().random(spec.n) < spec.epsilon
    x = stream.child(2).generator().standard_normal((spec.n, spec.p))
    x[bern] = float(spec.k)
    return x


def bias_measures(result, spec=None, replicate=0, truth=None):
    """Extreme-eigenvalue bias record of an estimated scatter matrix.

    Eigenvalues are taken after standardizing by ``truth`` (identity by
    default); singular or non-converged fits are flagged and carry infinite
    b.
    """
    sigma = np.asarray(result.scatter, dtype=float)
    if truth is not None:
        t = np.asarray(truth, dtype=float)
        vals, vecs = np.linalg.eigh(0.5 * (t + t.T))
        if vals[0] <= 0:
            raise ValueError("truth matrix must be positive definite")
        root_inv = (vecs / np.sqrt(vals)) @ vecs.T
        sigma = root_inv @ sigma @ root_inv
    vals = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
    lam1 = float(vals[-1])
    lamp = float(vals[0])
    flag = (not result.converged) or result.singular or lamp <= 0.0 \
        or not np.isfinite(lam1)
    if flag and lamp <= 0.0:
        b = float("inf")
        cn = float("inf")
    else:
        b = max(lam1, 1.0 / lamp)
        cn = lam1 / lamp
    kw = dict(estimator=result.estimator_id, replicate=replicate,
              lambda1=lam1, lambdap=lamp, b=b, cn=cn, flag=bool(flag))
    if spec is not None:
        kw.update(p=spec.p, n=spec.n, epsilon=spec.epsilon, k=spec.k)
    else:
        kw.update(p=sigma.shape[0], n=0, epsilon=0.0, k=0)
    return BiasRecord(**kw)


def _estimator_stream_key(estimator_id):
    # Stable per-estimator key so results do not depend on which other
    # estimators run in the same grid.
    return 1000 + ESTIMATOR_IDS.index(estimator_id.upper())


def _one_replicate(args):
    spec, estimator_ids, r = args
    rspec = replace(spec, seed=replicate_seed(spec, r))
    data = gen_contaminated(rspec)
    out = []
    for eid in estimator_ids:
        stream = RngStream(rspec.seed).child(_estimator_stream_key(eid))
        try:
            res = run_estimator(eid, data, stream)
            rec = bias_measures(res, spec=spec, replicate=r)
        except (ValueError, ArithmeticError, np.linalg.LinAlgError):
            rec = BiasRecord(estimator=eid, p=spec.p, n=spec.n,
                             epsilon=spec.epsilon, k=spec.k, replicate=r,
                             lambda1=float("nan"), lambdap=float("nan"),
                             b=float("inf"), cn=float("inf"), flag=True)
        out.append(rec)
    return out


def run_grid(cells, estimator_ids=None, replicates=50, csv_path=None,
             resume=False, threads=1, progress=None):
    """Run the benchmark over ``cells`` x ``estimator_ids`` x replicates.

    Emits records to ``csv_path`` cell by cell (append-only) when given;
    with ``resume`` the already-present (cell, estimator, replicate) triples
    are kept and skipped.  A numerical failure of an estimator
    (``ValueError``, ``ArithmeticError``, ``LinAlgError``) becomes a flagged
    row; any other exception is a programming error and aborts the grid.
    With ``threads > 1`` the replicates of each cell are spread over one
    process pool that serves the whole grid.
    """
    estimator_ids = list(estimator_ids or ESTIMATOR_IDS)
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    done = set()
    records = []
    if resume and csv_path and os.path.exists(csv_path):
        records = read_records_csv(csv_path)
        done = {(r.estimator, r.p, r.n, _eps_key(r.epsilon), r.k, r.replicate)
                for r in records}
    fh = None
    writer = None
    if csv_path:
        new_file = not (resume and os.path.exists(csv_path))
        fh = open(csv_path, "w" if new_file else "a", newline="",
                  encoding="utf-8")
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(RECORD_HEADER)

    pool = ProcessPoolExecutor(max_workers=threads) if threads > 1 else None
    run = map if pool is None else pool.map
    try:
        for spec in cells:
            todo = [r for r in range(replicates)
                    if any((eid, spec.p, spec.n, _eps_key(spec.epsilon),
                            spec.k, r) not in done for eid in estimator_ids)]
            tasks = [(spec, tuple(estimator_ids), r) for r in todo]
            batches = list(run(_one_replicate, tasks))
            new_recs = [rec for batch in batches for rec in batch
                        if (rec.estimator, rec.p, rec.n,
                            _eps_key(rec.epsilon), rec.k,
                            rec.replicate) not in done]
            new_recs.sort(key=lambda r: (r.replicate,
                                         estimator_ids.index(r.estimator)))
            records.extend(new_recs)
            if writer is not None:
                for rec in new_recs:
                    writer.writerow(_record_row(rec))
                fh.flush()
            if progress is not None:
                progress(spec)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        if fh is not None:
            fh.close()
    return records


def _fmt(x):
    if np.isinf(x):
        return "inf"
    if np.isnan(x):
        return "nan"
    return f"{x:.12g}"


def _record_row(rec: BiasRecord):
    return [rec.estimator, rec.p, rec.n, f"{rec.epsilon:.6g}", rec.k,
            rec.replicate, _fmt(rec.lambda1), _fmt(rec.lambdap), _fmt(rec.b),
            _fmt(rec.cn), int(rec.flag)]


def write_records_csv(records, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_HEADER)
        for rec in records:
            writer.writerow(_record_row(rec))


class RecordsError(ValueError):
    """A records CSV that cannot be read back."""


def read_records_csv(path):
    """Records of a CSV written by :func:`write_records_csv` or
    :func:`run_grid`.

    A wrong header, or a row that is cut short (as by an interrupted run) or
    does not parse, raises :class:`RecordsError` naming the file and line.
    """
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != RECORD_HEADER:
            raise RecordsError(f"unexpected records header in {path}: {header}")
        for row in reader:
            try:
                if len(row) != len(RECORD_HEADER):
                    raise ValueError(f"{len(row)} of {len(RECORD_HEADER)} "
                                     f"fields")
                records.append(BiasRecord(
                    estimator=row[0], p=int(row[1]), n=int(row[2]),
                    epsilon=float(row[3]), k=int(row[4]),
                    replicate=int(row[5]), lambda1=float(row[6]),
                    lambdap=float(row[7]), b=float(row[8]), cn=float(row[9]),
                    flag=bool(int(row[10]))))
            except ValueError as exc:
                raise RecordsError(f"{path}, line {reader.line_num}: "
                                   f"malformed record ({exc})") from None
    return records


def _location(values, measure):
    if measure == "median":
        return float(np.median(values))
    if measure == "mean":
        return float(np.mean(values))
    raise ValueError("measure must be 'median' or 'mean'")


def per_k_locations(records, measure="median"):
    """Location measure of b and CN per (estimator, p, n, epsilon, k) cell.

    Returns ``{(estimator, p, n, epsilon): {k: (b_k, cn_k, failures)}}``;
    flagged records are excluded from the location and counted.
    """
    groups = {}
    for rec in records:
        key = (rec.estimator, rec.p, rec.n, rec.epsilon)
        groups.setdefault(key, {}).setdefault(rec.k, []).append(rec)
    out = {}
    for key, by_k in groups.items():
        table = {}
        for k, recs in sorted(by_k.items()):
            good_b = [r.b for r in recs if not r.flag]
            good_cn = [r.cn for r in recs if not r.flag]
            failures = sum(1 for r in recs if r.flag)
            if good_b:
                table[k] = (_location(good_b, measure),
                            _location(good_cn, measure), failures)
            else:
                table[k] = (float("nan"), float("nan"), failures)
        out[key] = table
    return out


def aggregate(records, measure="median"):
    """Worst-k aggregation of the per-cell locations (log scale emitted)."""
    if not records:
        raise ValueError("no records to aggregate")
    rows = []
    for key, table in sorted(per_k_locations(records, measure).items()):
        est, p, n, eps = key
        bs = [v[0] for v in table.values() if np.isfinite(v[0])]
        cns = [v[1] for v in table.values() if np.isfinite(v[1])]
        failures = sum(v[2] for v in table.values())
        if not bs:
            rows.append(AggregateRow(est, p, n, eps, measure,
                                     float("nan"), float("nan"), failures))
            continue
        rows.append(AggregateRow(est, p, n, eps, measure,
                                 float(np.log(max(bs))),
                                 float(np.log(max(cns))), failures))
    return rows


def write_aggregate_csv(rows, fh):
    writer = csv.writer(fh)
    writer.writerow(AGGREGATE_HEADER)
    for r in rows:
        writer.writerow([r.estimator, r.p, r.n, f"{r.epsilon:.6g}", r.measure,
                         _fmt(r.b_hat_log), _fmt(r.bcn_hat_log), r.failures])


def efficiency(records, estimator_id):
    """Clean-model efficiency versus the sample covariance.

    The mean absolute (log-scale) error of an estimator is the worst-k mean
    over replicates of log(CN); the efficiency is the ratio of
    the sample covariance's MAE to the estimator's.  Pass records simulated
    at epsilon = 0.
    """
    if estimator_id.upper() == "SCOV":
        return 1.0

    def mae(eid):
        by_k = {}
        for rec in records:
            if rec.estimator != eid or rec.flag:
                continue
            if np.isfinite(rec.cn) and rec.cn > 0:
                by_k.setdefault(rec.k, []).append(np.log(rec.cn))
        if not by_k:
            raise ValueError(f"no clean-model records for {eid}")
        return max(float(np.mean(v)) for v in by_k.values())

    return mae("SCOV") / mae(estimator_id.upper())


def boxplot_stats(values):
    """Five-number summary with type-7 quartiles and 1.5 IQR whiskers."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size < 5:
        raise ValueError("need at least 5 values")
    q1, med, q3 = np.percentile(v, [25, 50, 75])
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = v[(v >= lo_fence) & (v <= hi_fence)]
    whisk_lo = float(inside[0])
    whisk_hi = float(inside[-1])
    outliers = v[(v < lo_fence) | (v > hi_fence)]
    return {"median": float(med), "q1": float(q1), "q3": float(q3),
            "whisker_low": whisk_lo, "whisker_high": whisk_hi,
            "outliers": [float(o) for o in outliers]}
