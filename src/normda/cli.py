"""Command-line entry point.

Subcommands: synth (write a synthetic dataset CSV), run (execute an
experiment config and write a report directory), project (2-D projection
CSV for one fold and strategy), table (re-render a report directory),
validate (dataset diagnostics). Exit codes: 0 ok, 2 an input the command
rejects (any NormdaError), 3 an OS error, 4 a failed cell under
`run --strict`. Any other exception is a bug and shows its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bench, dataset
from .errors import ConfigError, NormdaError
from .normalize import ZSCORE_SIDES, NormStrategy

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_EXPERIMENT = 4


def _parse_file(path, parse):
    """`parse` applied to dataset.read_text(path). A ValueError from `parse`
    (JSON syntax, a key repeated in one object, unknown or wrong-typed
    fields) is a ConfigError naming the path."""
    text = dataset.read_text(path)
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _unique_keys(pairs: list) -> dict:
    """json.loads' object hook: the object, unless a key repeats in it."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} appears more than once in one object")
        obj[key] = value
    return obj


def _read_json(path, from_dict):
    """from_dict applied to the JSON object in `path`."""
    return _parse_file(path, lambda text: from_dict(json.loads(text, object_pairs_hook=_unique_keys)))


def _read_config(path) -> bench.ExperimentConfig:
    return _read_json(path, bench.config_from_dict)


def cmd_synth(args) -> int:
    cfg = _read_json(args.config, bench.synthetic_from_dict)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    ds = dataset.generate_synthetic(cfg)
    dataset.save_csv(ds, args.out)
    print(f"wrote {args.out}: n={ds.n} m={ds.m} domains={len(ds.domain_keys())}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _read_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)

    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    report = bench.run_experiment(cfg, jobs=jobs)
    outdir = bench.write_report(report, cfg.output_dir)
    print(bench.emit_table(report.cells, "markdown"), end="")
    failed = [c for c in report.cells if not c.ok]
    for cell in failed:
        print(f"FAILED {cell.strategy}/{cell.method}: {cell.error}", file=sys.stderr)
    print(f"report written to {outdir}")
    if failed and args.strict:
        return EXIT_EXPERIMENT
    return EXIT_OK


def cmd_project(args) -> int:
    ds = dataset.load_csv(args.data)
    strategy = NormStrategy.from_name(args.strategy)
    folds = dataset.folds_for(ds, args.protocol)
    if not 0 <= args.fold_index < len(folds):
        raise ConfigError(f"fold index {args.fold_index} out of range [0, {len(folds)})")
    fold = folds[args.fold_index]
    rows = bench.emit_projection(ds, fold, strategy)
    text = bench.projection_csv(rows)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}: {len(rows)} rows ({fold.name}, {strategy.value})")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_table(args) -> int:
    rows = _parse_file(Path(args.report) / bench.FOLDS_CSV, bench.rows_from_folds_csv)
    print(bench.emit_table(bench.cells_from_rows(rows), "markdown"), end="")
    return EXIT_OK


def cmd_validate(args) -> int:
    ds = dataset.load_csv(args.data)
    classes, counts = np.unique(ds.labels, return_counts=True)
    print(f"rows={ds.n} features={ds.m} classes={classes.size}")
    print("label counts: " + ", ".join(f"{c}:{n}" for c, n in zip(classes.tolist(), counts.tolist())))
    single_row_domains = []
    for key in ds.domain_keys():
        rows = ds.rows_of(key)
        print(f"domain subject={key.subject} session={key.session}: {rows.size} rows")
        if rows.size < 2:
            single_row_domains.append(key)
    constant = [
        (ds.feature_names[j] if ds.feature_names else f"f{j}")
        for j in range(ds.m)
        if float(ds.features[:, j].std()) == 0.0
    ]
    for name in constant:
        print(f"warning: feature {name} is constant")
    own_test = "/".join(s.value for s, (_, test) in ZSCORE_SIDES.items() if test == "own")
    for key in single_row_domains:
        print(
            f"warning: domain subject={key.subject} session={key.session} has 1 row; "
            f"incompatible with {own_test} per-domain statistics on the test side"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normda",
        description="Benchmark split-aware normalization strategies against DA methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic shifted-domain dataset CSV")
    p.add_argument("--config", required=True, help="JSON file of generator settings")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="run an experiment config and write a report directory")
    p.add_argument("--config", required=True, help="JSON experiment configuration")
    p.add_argument("--out", default=None, help="override the report directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--jobs", type=int, default=None, help="worker processes (default: cores)")
    p.add_argument("--strict", action="store_true", help="exit 4 if any cell failed")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("project", help="emit a 2-D projection CSV for one fold")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--protocol", choices=dataset.PROTOCOLS, default="loso")
    p.add_argument("--fold-index", type=int, default=0)
    p.add_argument("--strategy", default="Z2")
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("table", help="re-render the markdown table from a report directory")
    p.add_argument("--report", required=True, help="report directory containing folds.csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("validate", help="check a dataset CSV against the format contract")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NormdaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, NormdaError) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
