"""Command-line interface: depth evaluation, maxbias curves, simulation
grids, and report generation.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 internal
numerical failure.  The environment variable ``DEPTHLAB_SEED`` overrides the
configured simulation seed.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import svg
from .depth import (
    ls_depth1,
    ls_depth2,
    mvreg_depth,
    read_dataset,
    regression_depth,
    scatter_depth,
    scatter_depth_gaussian,
    scatter_depth_pointmass,
    tukey_depth,
    default_mvreg_candidates,
)
from .estimators import ESTIMATOR_IDS
from .maxbias import (
    CURVES,
    DivergenceError,
    curve_table,
    ls2_breakdown,
    scatter_breakdown,
    write_curve_csv,
)
from .numerics import RngStream, SpdMatrix, unit_directions
from .simlab import (
    ContaminationSpec,
    RecordsError,
    aggregate,
    boxplot_stats,
    efficiency,
    per_k_locations,
    read_records_csv,
    run_grid,
    write_aggregate_csv,
)

_USAGE_ERROR, _DATA_ERROR, _NUM_ERROR = 2, 3, 4


class DataError(Exception):
    pass


def _load_dataset(path):
    try:
        return read_dataset(path)
    except (OSError, ValueError) as exc:
        raise DataError(str(exc)) from exc

DEFAULT_CONFIG = {
    "seed": 1,
    "p": [2, 5],
    "n_factors": [10, 40],
    "n": None,
    "epsilon": [0.1, 0.2],
    "k": [0, 1, 5, 10, 15, 20, 25],
    "replicates": 50,
    "estimators": list(ESTIMATOR_IDS),
    "location_measure": "median",
    "out": "records.csv",
    "threads": 1,
}


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# Config parsing (flat "key = value" lines, lists in brackets)
# ---------------------------------------------------------------------------

def _parse_scalar(tok):
    tok = tok.strip()
    low = tok.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        pass
    return tok


def parse_config_text(text):
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        if val.startswith("[") and val.endswith("]"):
            inner = val[1:-1].strip()
            out[key] = [_parse_scalar(t) for t in inner.split(",")] if inner else []
        else:
            out[key] = _parse_scalar(val)
    return out


def load_config(path=None, overrides=None):
    cfg = dict(DEFAULT_CONFIG)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            user = parse_config_text(fh.read())
        unknown = set(user) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(user)
    if overrides:
        cfg.update({k: v for k, v in overrides.items() if v is not None})
    env_seed = os.environ.get("DEPTHLAB_SEED")
    if env_seed is not None:
        cfg["seed"] = int(env_seed)
    bad = [e for e in cfg["estimators"] if str(e).upper() not in ESTIMATOR_IDS]
    if bad:
        raise ValueError(f"unknown estimators: {bad}")
    cfg["estimators"] = [str(e).upper() for e in cfg["estimators"]]
    if cfg["location_measure"] not in ("median", "mean"):
        raise ValueError("location_measure must be median or mean")
    return cfg


def config_cells(cfg):
    cells = []
    for p in cfg["p"]:
        if cfg.get("n"):
            sizes = [int(n) for n in cfg["n"]]
        else:
            sizes = [int(f) * int(p) for f in cfg["n_factors"]]
        for n in sizes:
            for eps in cfg["epsilon"]:
                for k in cfg["k"]:
                    cells.append(ContaminationSpec(p=int(p), n=int(n),
                                                   epsilon=float(eps),
                                                   k=int(k),
                                                   seed=int(cfg["seed"])))
    return cells


# ---------------------------------------------------------------------------
# depth subcommand
# ---------------------------------------------------------------------------

def _parse_vector(text):
    return np.array([float(t) for t in text.split(",")], dtype=float)


def _parse_gamma(text):
    if os.path.exists(text):
        return SpdMatrix.from_matrix(read_dataset(text))
    return SpdMatrix.from_diagonal(_parse_vector(text))


def cmd_depth(args):
    kind = args.kind
    needs_data = kind not in ("scatter-gaussian", "pointmass")
    data = None
    if needs_data:
        if not args.data:
            return _fail(_USAGE_ERROR, f"depth {kind} requires --data")
        data = _load_dataset(args.data)
    rng = RngStream(args.seed)
    if kind == "tukey":
        theta = _parse_vector(args.theta)
        p = data.shape[1]
        dirs = None if p <= 2 else unit_directions(args.dirs * p, p, rng)
        value = tukey_depth(theta, data, dirs=dirs)
    elif kind == "ls1":
        value = ls_depth1(args.mu, args.sigma, data)
    elif kind == "ls2":
        value = ls_depth2(args.mu, args.sigma, data)
    elif kind == "scatter":
        gamma = _parse_gamma(args.gamma)
        p = data.shape[1]
        center = (_parse_vector(args.center) if args.center
                  else np.zeros(p))
        dirs = (np.array([[1.0]]) if p == 1
                else unit_directions(args.dirs * p, p, rng))
        value = scatter_depth(gamma, data, center=center, dirs=dirs)
    elif kind == "scatter-gaussian":
        value = scatter_depth_gaussian(_parse_gamma(args.gamma))
    elif kind == "pointmass":
        gamma = _parse_gamma(args.gamma)
        e = _parse_vector(args.e)
        value = scatter_depth_pointmass(gamma, args.epsilon, args.r, e)
    elif kind == "regression":
        beta = _parse_vector(args.beta)
        x, y = data[:, :-1], data[:, -1]
        p = x.shape[1]
        dirs = None if p <= 2 else unit_directions(args.dirs * p, p, rng)
        value = regression_depth(beta, x, y, dirs=dirs)
    elif kind == "mvreg":
        m = args.responses
        x, y = data[:, :-m], data[:, -m:]
        b = _parse_vector(args.beta).reshape(x.shape[1], m)
        u = default_mvreg_candidates(x, y, b, rng)
        value = mvreg_depth(b, x, y, u)
    else:  # pragma: no cover - argparse restricts choices
        return _fail(_USAGE_ERROR, f"unknown depth kind {kind}")
    print(f"{value:.6f}")
    return 0


# ---------------------------------------------------------------------------
# maxbias subcommand
# ---------------------------------------------------------------------------

def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:stop:step")
    start, stop, step = (float(t) for t in parts)
    if step <= 0:
        raise ValueError("grid step must be positive")
    vals = []
    t = start
    while t <= stop + 1e-12:
        vals.append(round(t, 12))
        t += step
    return np.array(vals)


def cmd_maxbias(args):
    if args.curve == "ls2-breakdown":
        print(f"{ls2_breakdown():.10f}")
        return 0
    if args.curve == "scatter-breakdown":
        print(f"{scatter_breakdown():.10f}")
        return 0
    if args.curve not in CURVES:
        return _fail(_USAGE_ERROR,
                     f"unknown curve {args.curve!r}; known: "
                     f"{sorted(CURVES) + ['ls2-breakdown', 'scatter-breakdown']}")
    grid = _parse_grid(args.grid)
    curve = curve_table(args.curve, grid)
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            write_curve_csv(curve, fh)
    else:
        write_curve_csv(curve, sys.stdout)
    if args.svg:
        values = curve.values
        label = f"maxbias[{args.curve}]"
        if args.log_scale:
            values = np.log(np.maximum(values, 1e-300))
            label = f"log {label}"
        doc = svg.line_chart(curve.epsilon_grid, {args.curve: list(values)},
                             title=f"{args.curve} maximum-bias curve",
                             xlabel="contamination level",
                             ylabel=label, vline=curve.breakdown)
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(doc)
    return 0


# ---------------------------------------------------------------------------
# simulate / report subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args):
    overrides = {"out": args.out, "threads": args.threads}
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = load_config(args.config, overrides)
    cells = config_cells(cfg)

    def progress(spec):
        print(f"cell p={spec.p} n={spec.n} eps={spec.epsilon:g} "
              f"k={spec.k} done", flush=True)

    records = run_grid(cells, estimator_ids=cfg["estimators"],
                       replicates=int(cfg["replicates"]),
                       csv_path=cfg["out"], resume=args.resume,
                       threads=int(cfg["threads"]), progress=progress)
    flagged = sum(1 for r in records if r.flag)
    print(f"records: {len(records)} written to {cfg['out']} "
          f"({flagged} flagged)")
    if records and flagged == len(records):
        return _fail(_NUM_ERROR, "every replicate failed")
    return 0


def cmd_report(args):
    records = read_records_csv(args.records)
    if not records:
        return _fail(_DATA_ERROR, f"no records in {args.records}")
    os.makedirs(args.out_dir, exist_ok=True)
    rows = aggregate(records, measure=args.measure)
    agg_path = os.path.join(args.out_dir, "aggregate.csv")
    with open(agg_path, "w", newline="", encoding="utf-8") as fh:
        write_aggregate_csv(rows, fh)
    print(f"wrote {agg_path}")

    table = per_k_locations(records, measure=args.measure)
    cells = sorted({(p, n, eps) for (_, p, n, eps) in table})
    for (p, n, eps) in cells:
        ks = sorted({k for key, by_k in table.items()
                     if key[1:] == (p, n, eps) for k in by_k})
        series = {}
        for (est, pp, nn, ee), by_k in sorted(table.items()):
            if (pp, nn, ee) != (p, n, eps):
                continue
            series[est] = [float(np.log(by_k[k][0])) if k in by_k
                           and np.isfinite(by_k[k][0]) else None for k in ks]
        name = f"bias_vs_k_p{p}_n{n}_eps{eps:g}.svg"
        doc = svg.line_chart(ks, series,
                             title=f"worst-case bias vs contamination "
                                   f"distance (p={p}, n={n}, eps={eps:g})",
                             xlabel="point-mass coordinate k",
                             ylabel="log b")
        with open(os.path.join(args.out_dir, name), "w",
                  encoding="utf-8") as fh:
            fh.write(doc)
        print(f"wrote {os.path.join(args.out_dir, name)}")

        by_cell = {}
        for rec in records:
            if (rec.p, rec.n, rec.epsilon) == (p, n, eps) and not rec.flag \
                    and np.isfinite(rec.b):
                by_cell.setdefault(rec.k, {}).setdefault(
                    rec.estimator, []).append(np.log(rec.b))
        for k, groups in sorted(by_cell.items()):
            stats = {est: boxplot_stats(v) for est, v in sorted(groups.items())
                     if len(v) >= 5}
            if not stats:
                continue
            name = f"boxplot_p{p}_n{n}_eps{eps:g}_k{k}.svg"
            doc = svg.boxplot(stats,
                              title=f"log bias across replicates "
                                    f"(p={p}, n={n}, eps={eps:g}, k={k})",
                              ylabel="log b")
            with open(os.path.join(args.out_dir, name), "w",
                      encoding="utf-8") as fh:
                fh.write(doc)
    if args.efficiency:
        ests = sorted({r.estimator for r in records})
        print("efficiency (clean-model records assumed):")
        for est in ests:
            try:
                print(f"  {est:7s} {efficiency(records, est):.3f}")
            except ValueError:
                print(f"  {est:7s} n/a")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="depthlab",
        description="Depth functions, deepest estimators, maximum-bias "
                    "curves, and the robust-scatter contamination benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("depth", help="evaluate a depth function")
    d.add_argument("kind", choices=["tukey", "ls1", "ls2", "scatter",
                                    "scatter-gaussian", "pointmass",
                                    "regression", "mvreg"])
    d.add_argument("--data", help="CSV dataset, one observation per row")
    d.add_argument("--theta", help="location candidate (comma separated)")
    d.add_argument("--mu", type=float, default=0.0)
    d.add_argument("--sigma", type=float, default=1.0)
    d.add_argument("--gamma", help="scatter candidate: diagonal (comma "
                                   "separated) or CSV matrix path")
    d.add_argument("--center", help="known location for scatter depth")
    d.add_argument("--beta", help="regression candidate (comma separated, "
                                  "row-major for mvreg)")
    d.add_argument("--responses", type=int, default=1,
                   help="number of trailing response columns (mvreg)")
    d.add_argument("--epsilon", type=float, default=0.0)
    d.add_argument("--r", type=float, default=1.0)
    d.add_argument("--e", help="contamination direction (comma separated)")
    d.add_argument("--dirs", type=int, default=500,
                   help="sampled directions per dimension when p > 2")
    d.add_argument("--seed", type=int, default=0)
    d.set_defaults(func=cmd_depth)

    m = sub.add_parser("maxbias", help="evaluate maximum-bias curves")
    m.add_argument("--curve", required=True)
    m.add_argument("--grid", default="0:0.30:0.05",
                   help="epsilon grid start:stop:step")
    m.add_argument("--out", default="-", help="CSV output path (- = stdout)")
    m.add_argument("--svg", help="also emit an SVG line plot")
    m.add_argument("--log-scale", action="store_true")
    m.set_defaults(func=cmd_maxbias)

    s = sub.add_parser("simulate", help="run the contamination benchmark")
    s.add_argument("--config", help="flat key = value config file")
    s.add_argument("--out", help="records CSV path")
    s.add_argument("--resume", action="store_true")
    s.add_argument("--threads", type=int, default=None)
    s.add_argument("--seed", type=int, default=None)
    s.set_defaults(func=cmd_simulate)

    r = sub.add_parser("report", help="aggregate records and emit figures")
    r.add_argument("records", help="records CSV from 'simulate'")
    r.add_argument("--out-dir", default="report")
    r.add_argument("--measure", choices=["median", "mean"], default="median")
    r.add_argument("--efficiency", action="store_true",
                   help="print clean-model efficiencies")
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        return _fail(_USAGE_ERROR, str(exc))
    except (DataError, RecordsError) as exc:
        return _fail(_DATA_ERROR, str(exc))
    except (FileNotFoundError, OSError) as exc:
        return _fail(_DATA_ERROR, str(exc))
    except (KeyError, ValueError) as exc:
        return _fail(_USAGE_ERROR, str(exc))
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        return _fail(_NUM_ERROR, str(exc))


if __name__ == "__main__":
    sys.exit(main())
