"""Command-line front end for the experiment harness.

Every subcommand loads an optional JSON config (defaults otherwise), applies
flag overrides, runs its experiment, writes CSVs into the output directory
and prints a short summary.  See docs/csv-schema.md for the file formats.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    ExperimentConfig,
    baseline_3bs,
    cardinality_experiment,
    default_config,
    run_localization,
    summarize_localization,
    topology_experiment,
    uniqueness_experiment,
    write_localization_csv,
    write_rows_csv,
)


def _load_config(args, n_irs: int = 1) -> ExperimentConfig:
    if getattr(args, "config", None):
        try:
            cfg = ExperimentConfig.load(args.config)
        except ValueError as err:
            args.error(f"--config {args.config}: {err}")
    else:
        cfg = default_config(n_irs=n_irs)
    if getattr(args, "trials", None) is not None:
        cfg = replace(cfg, trials=args.trials)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "k", None) is not None:
        cfg = replace(cfg, k=args.k)
    if getattr(args, "skip_phase1", None) is not None:
        cfg = replace(cfg, skip_phase1=args.skip_phase1)
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _non_negative_int(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def _add_common(p, with_k=True):
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--trials", type=_positive_int, help="Monte-Carlo trials")
    p.add_argument("--seed", type=_non_negative_int, help="master seed")
    if with_k:
        p.add_argument("--k", type=_positive_int, help="number of targets")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(error=p.error)


def cmd_cardinality(args) -> int:
    cfg = _load_config(args, n_irs=args.n_irs or 1)
    if args.n_irs not in (None, len(cfg.irs)):
        args.error(f"--n-irs {args.n_irs} does not match --config's IRS count {len(cfg.irs)}")
    rows = cardinality_experiment(cfg, args.k_values)
    out = _out_dir(args)
    write_rows_csv(out / "cardinality.csv", rows)
    for row in rows:
        print(
            f"K={row['k']} R={row['n_irs']}: unfiltered={row['unfiltered']} "
            f"mean feasible={row['mean_feasible']:.2f} "
            f"mean {row['reduced_kind']}={row['mean_reduced']:.2f}"
        )
    print(f"wrote {out / 'cardinality.csv'}")
    return 0


def cmd_localize(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    outcomes = run_localization(cfg)
    rows = [summarize_localization(outcomes, cfg.error_radius_m, "algorithm")]
    write_localization_csv(out / "localization.csv", outcomes)
    if args.oracle:
        oracle = run_localization(cfg, oracle=True)
        rows.append(summarize_localization(oracle, cfg.error_radius_m, "oracle"))
        write_localization_csv(out / "localization_oracle.csv", oracle)
    write_rows_csv(out / "localization_summary.csv", rows)
    for row in rows:
        print(
            f"{row['mode']}: error probability={row['error_probability']:.4f} "
            f"association accuracy={row['association_accuracy']:.4f} "
            f"({row['trials']} trials, K={row['k']})"
        )
    print(f"wrote {out / 'localization.csv'}")
    return 0


def cmd_topology(args) -> int:
    cfg = _load_config(args)
    rows = topology_experiment(cfg)
    out = _out_dir(args)
    write_rows_csv(out / "topology.csv", rows)
    for row in rows:
        print(
            f"{row['variant']}: c1_ok={row['c1_ok']} c2_ok={row['c2_ok']} "
            f"error probability={row['error_probability']:.4f}"
        )
    print(f"wrote {out / 'topology.csv'}")
    return 0


def cmd_baseline(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    rows = []
    outcomes = baseline_3bs(cfg)
    rows.append(summarize_localization(outcomes, cfg.error_radius_m, "baseline_3bs"))
    if args.oracle:
        oracle = baseline_3bs(cfg, oracle=True)
        rows.append(
            summarize_localization(oracle, cfg.error_radius_m, "baseline_3bs_oracle")
        )
    write_rows_csv(out / "baseline.csv", rows)
    for row in rows:
        print(
            f"{row['mode']}: error probability={row['error_probability']:.4f} "
            f"mean solver calls={row['mean_solver_calls']:.1f}"
        )
    print(f"wrote {out / 'baseline.csv'}")
    return 0


def cmd_uniqueness(args) -> int:
    report = uniqueness_experiment(n_scenes=args.scenes, seed=args.seed)
    out = _out_dir(args)
    (out / "uniqueness.json").write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"{report['localized']}/{report['scenes']} scenes uniquely associated and "
        f"localized (worst position error {report['worst_position_error_m']:.2e} m)"
    )
    print(f"wrote {out / 'uniqueness.json'}")
    return 0 if report["localized"] == report["scenes"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="irsloc",
        description="Passive-target localization experiments with two BSs and "
        "reflecting-surface anchors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cardinality", help="feasible-set size vs target count")
    _add_common(p, with_k=False)
    p.add_argument(
        "--k-values", type=lambda s: [_positive_int(v) for v in s.split(",")],
        default="2,3,4,5,6,7", help="comma-separated K list",
    )
    p.add_argument("--n-irs", type=int, choices=(1, 2, 3), help="stock layout (default 1)")
    p.set_defaults(func=cmd_cardinality)

    p = sub.add_parser("localize", help="end-to-end localization error probability")
    _add_common(p)
    p.add_argument(
        "--skip-phase1",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="use quantized geometric ranges instead of waveform processing",
    )
    p.add_argument("--oracle", action="store_true", help="also run known-association mode")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("topology", help="anchor placements that defeat association")
    _add_common(p)
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("baseline", help="three active BSs instead of IRS anchors")
    _add_common(p)
    p.add_argument("--oracle", action="store_true", help="also run known-association mode")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser(
        "uniqueness-check",
        help="perfect-range association uniqueness over random scenes",
    )
    p.add_argument("--scenes", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_non_negative_int, default=1)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_uniqueness)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
