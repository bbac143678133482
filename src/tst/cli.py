"""Operator entry point.

Subcommands: ``synth`` (generate a synthetic CSV dataset), ``train`` (one
trial), ``study`` (repeated trials with TopAcc/MinAcc/AvgAcc/Std), ``cost``
(analytic FLOPs/parameter report, optionally the bundled reference sweep),
and ``embed`` (per-block class-token t-SNE export).

Every command writes a JSON run manifest next to its outputs: resolved
configuration, seeds, input paths with content hashes, the exact argv, the
package version, and a timestamp. Identical flags + seed give byte
identical primary outputs; only the manifest timestamp differs.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime
failure; any other exception is a bug and also exits 4, with a single
``internal error:`` line on stderr instead of a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, analysis, data, training
from .errors import ConfigError, DataError, TrainingAbort
from .model import _CORES, TSTConfig, TSTModel, load_checkpoint, save_checkpoint

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

# the most trials one study runs (the paper runs 10): cmd_study lists every seed up front
MAX_TRIALS = 10**4
# the most samples (classes x per class x length) one synth writes: 400 MB of
# float32 windows held at once, about 5x the default 10 x 900 x 2048
MAX_SYNTH_SAMPLES = 10**8
# the most parameters train and study build (stock: 1.6e6): 1.6 GB of float32 weights,
# gradients and Adam moments at the bound
MAX_PARAMS = 10**8


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: Path, command: str, args: argparse.Namespace,
                   config: TSTConfig | None = None, inputs: list[Path] = ()):
    manifest = {
        "command": command,
        "argv": args.argv,   # what main() parsed: under cli.main([...]) sys.argv is the host's
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "flags": {k: v for k, v in vars(args).items() if k not in ("func", "argv")},
        "inputs": {str(p): _sha256(p) for p in inputs},
    }
    if config is not None:
        manifest["resolved_config"] = config.to_dict()
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def resolve_config(args: argparse.Namespace) -> TSTConfig:
    """Config file (if any) over defaults, then explicit flag overrides."""
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8-sig") as fh:   # a byte-order mark too
                values = json.load(fh)
        except OSError as exc:   # missing, a directory, or not readable
            raise ConfigError(f"cannot read config file {args.config}: {exc.strerror}") from None
        except ValueError as exc:   # malformed JSON or text that is not UTF-8
            raise ConfigError(f"{args.config} is not valid JSON: {exc}") from None
        cfg = TSTConfig.from_dict(values)
    else:
        cfg = TSTConfig()
    overrides = {
        "ns": args.ns, "dim": args.dim, "dim_mlp": args.dim_mlp, "d_k": args.dk,
        "heads": args.heads, "depth": args.depth, "p_drop": args.pdrop,
        "pos_encoding": args.pos_encoding, "epochs": args.epochs,
        "batch_size": args.batch_size, "lr": args.lr, "L": args.length,
        "n_class": args.classes,
    }
    return dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _add_split_flags(p: argparse.ArgumentParser):
    """The flags ``train`` and ``study`` share. Each declares ``--data`` and its own flags
    first, which keeps the order in which argparse names missing required flags."""
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--split-seed", type=int, default=0, dest="split_seed")
    p.add_argument("--train-count", type=int, dest="train_count")
    p.add_argument("--test-count", type=int, dest="test_count")
    _add_override_flags(p)


def _add_override_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file with TSTConfig field names")
    p.add_argument("--ns", type=int, help="number of subsequences")
    p.add_argument("--dim", type=int, help="embedding dimension")
    p.add_argument("--dim-mlp", type=int, dest="dim_mlp", help="MLP hidden width")
    p.add_argument("--dk", type=int, help="query/key depth per head")
    p.add_argument("--heads", type=int, help="attention heads")
    p.add_argument("--depth", type=int, help="stacked blocks")
    p.add_argument("--pdrop", type=float, help="dropout probability")
    p.add_argument("--pos-encoding", choices=["1d", "none"], dest="pos_encoding")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float, help="initial learning rate")
    p.add_argument("--length", type=int, help="window length L")
    p.add_argument("--classes", type=int, help="number of classes")


def _load_split(args, cfg: TSTConfig) -> data.DatasetSplit:
    if (params := analysis.cost_report(cfg).params_full) > MAX_PARAMS:   # before any data
        raise ConfigError(f"the config has {params} parameters; training takes <= {MAX_PARAMS}")
    windows = data.load_csv(args.data, length=cfg.L, n_class=cfg.n_class)
    n_test = max(1, round(len(windows) * 2 / 9))     # 7:2 proportions
    n_train = len(windows) - n_test
    if args.train_count is not None:
        n_train = args.train_count
    if args.test_count is not None:
        n_test = args.test_count
    return data.split_train_test(windows, n_train, n_test, seed=args.split_seed)


def _require_at_least(args, low: int, *flags: str):
    """Reject the first given flag whose value (unless unset or absent) is below ``low``."""
    for flag in flags:
        value = getattr(args, flag, None)
        if value is not None and value < low:
            raise ConfigError(f"--{flag.replace('_', '-')} must be >= {low}, got {value}")


def _require_output(flag: str, path: Path, file: bool = False) -> Path:
    """``path``, unless the command could not write it as its output directory (with ``file``,
    its output file): a file path naming a directory, or a path whose nearest existing part
    (a directory counts itself) is not a directory. Creates nothing."""
    if file and path.is_dir():
        raise ConfigError(f"{flag} {path} is a directory")
    start = path.parent if file else path
    nearest = next((p for p in (start, *start.parents) if p.exists()), start)
    if not nearest.is_dir():
        raise ConfigError(f"{flag} {path}: {nearest} is not a directory")
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    classes = data.default_synthetic_spec()
    if not 1 <= args.classes <= len(classes):
        raise ConfigError(f"--classes must be in [1, {len(classes)}], got {args.classes}")
    _require_at_least(args, 1, "per_class", "length")
    samples = args.classes * args.per_class * args.length
    if samples > MAX_SYNTH_SAMPLES:   # before any window is built
        raise ConfigError(f"--classes x --per-class x --length must be <= "
                          f"{MAX_SYNTH_SAMPLES} samples, got {samples}")
    out = _require_output("--out", Path(args.out), file=True)
    windows = data.generate_synthetic(classes[:args.classes], args.per_class, args.seed,
                                      length=args.length)
    out.parent.mkdir(parents=True, exist_ok=True)
    data.write_csv(windows, out,
                   comment=f"synthetic bearing windows: {args.classes} classes x "
                           f"{args.per_class}, L={args.length}, seed={args.seed}")
    write_manifest(out.parent, "synth", args)
    print(f"wrote {len(windows)} windows to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    out_dir = _require_output("--out-dir", Path(args.out_dir))
    split = _load_split(args, cfg)
    model = TSTModel(cfg, seed=args.seed)
    report = training.train(model, split, cfg, seed=args.seed)

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trial_report.csv").write_text("\n".join(report.lines()) + "\n")
    save_checkpoint(model, out_dir / "model.tst")
    x_test, y_test = data.windows_to_arrays(split.test)
    matrix = analysis.confusion(y_test, model.predict(x_test), n_class=cfg.n_class)
    np.savetxt(out_dir / "confusion.csv", matrix, fmt="%d", delimiter=",")
    write_manifest(out_dir, "train", args, config=cfg, inputs=[Path(args.data)])
    print(f"final test accuracy {report.final_test_acc:.4f} "
          f"(train {report.train_acc[-1]:.4f}) -> {out_dir}")
    return EXIT_OK


def cmd_study(args) -> int:
    _require_at_least(args, 1, "trials", "jobs")   # before --trials sizes the seed list
    if args.trials > MAX_TRIALS:
        raise ConfigError(f"--trials must be <= {MAX_TRIALS}, got {args.trials}")
    if args.jobs > _CORES:   # each job is a thread holding its own model and data copy
        raise ConfigError(f"--jobs must be <= {_CORES}, the usable cores, got {args.jobs}")
    cfg = resolve_config(args)
    out_dir = _require_output("--out-dir", Path(args.out_dir))
    split = _load_split(args, cfg)
    seeds = [args.base_seed + i for i in range(args.trials)]
    study = training.repeat_trials(split, cfg, seeds, jobs=args.jobs)

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "study_report.csv").write_text("\n".join(study.lines()) + "\n")
    for trial in study.trials:
        (out_dir / f"trial_{trial.seed}.csv").write_text("\n".join(trial.lines()) + "\n")
    write_manifest(out_dir, "study", args, config=cfg, inputs=[Path(args.data)])
    if not study.trials:
        raise TrainingAbort(f"all {len(seeds)} trials aborted; the reasons are in "
                            f"{out_dir / 'study_report.csv'}")
    print(f"trials={len(study.trials)} top={study.top_acc:.4f} min={study.min_acc:.4f} "
          f"avg={study.avg_acc:.4f} std={study.std:.4f} -> {out_dir}")
    return EXIT_OK


def _sweep_records() -> list[dict]:
    """One record per reference-sweep row, keyed by the CSV columns; the
    table and the CSV both print these values."""
    records = []
    for row, rep in analysis.sweep_results():
        cfg = row.config()
        records.append({
            "label": row.label, "ns": cfg.ns, "sub_len": cfg.sub_len, "dim": cfg.dim,
            "dim_mlp": cfg.dim_mlp, "d_k": cfg.d_k, "heads": cfg.heads, "depth": cfg.depth,
            "pos_encoding": cfg.pos_encoding,
            "flops_m": rep.flops_m, "flops_target_m": row.flops_target_m,
            "params_m": rep.params_m, "params_target_m": row.params_target_m,
            "params_full": rep.params_full, "macs_attention": rep.macs_attention,
        })
    return records


def _cost_lines(records: list[dict]) -> list[str]:
    head = (f"{'label':<9}{'ns':>5}{'sub':>6}{'dim':>5}{'mlp':>5}{'d_k':>5}{'h':>3}"
            f"{'depth':>6}{'pos':>6}{'flops_M':>10}{'target':>9}{'d%':>7}"
            f"{'params_M':>10}{'target':>9}{'d%':>7}")
    out = [head]
    for r in records:
        f_delta = 100.0 * (r["flops_m"] - r["flops_target_m"]) / r["flops_target_m"]
        p_delta = 100.0 * (r["params_m"] - r["params_target_m"]) / r["params_target_m"]
        out.append(
            f"{r['label']:<9}{r['ns']:>5}{r['sub_len']:>6}{r['dim']:>5}{r['dim_mlp']:>5}"
            f"{r['d_k']:>5}{r['heads']:>3}{r['depth']:>6}{r['pos_encoding']:>6}"
            f"{r['flops_m']:>10.2f}{r['flops_target_m']:>9.2f}{f_delta:>+7.2f}"
            f"{r['params_m']:>10.3f}{r['params_target_m']:>9.2f}{p_delta:>+7.2f}"
        )
    return out


def cmd_cost(args) -> int:
    if args.csv is not None and not args.sweep:
        raise ConfigError("--csv writes the sweep, so it needs --sweep")
    if args.sweep:
        given = " or ".join(f"--{k.replace('_', '-')}" for k, v in vars(args).items()
                            if v is not None
                            and k not in ("subcommand", "func", "argv", "sweep", "csv"))
        if given:   # the other cost flags build the one config that --sweep does not print
            raise ConfigError(f"--sweep prints its own configs, so it takes no {given}")
        csv = None if args.csv is None else _require_output("--csv", Path(args.csv), file=True)
        records = _sweep_records()
        print("\n".join(_cost_lines(records)))
        if csv is not None:
            csv.parent.mkdir(parents=True, exist_ok=True)
            with open(csv, "w", encoding="utf-8") as fh:
                fh.write(",".join(records[0]) + "\n")
                for r in records:   # floats in full (repr), the rest as printed
                    fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                                      for v in r.values()) + "\n")
        return EXIT_OK

    cfg = resolve_config(args)
    rep = analysis.cost_report(cfg)
    print(f"linear MACs/sample : {rep.macs_linear:>14,}  ({rep.flops_m:.2f} M)")
    print(f"attention MACs     : {rep.macs_attention:>14,}  ({rep.macs_attention / 1e6:.2f} M, "
          f"excluded from the comparable figure)")
    print(f"parameters (full)  : {rep.params_full:>14,}")
    print(f"parameters (cmp)   : {rep.params_comparable:>14,}  ({rep.params_m:.3f} M)")
    return EXIT_OK


def cmd_embed(args) -> int:
    _require_at_least(args, 1, "max_points")
    out = _require_output("--out", Path(args.out), file=True)
    model = load_checkpoint(args.checkpoint)
    cfg = model.config
    windows = data.load_csv(args.data, length=cfg.L, n_class=cfg.n_class)
    if args.max_points is not None and len(windows) > args.max_points:
        keep = np.random.default_rng(args.seed).choice(len(windows), args.max_points,
                                                       replace=False)
        windows = [windows[i] for i in sorted(keep)]
    coords, _ = analysis.export_embeddings(model, windows, out,
                                           perplexity=args.perplexity,
                                           iterations=args.iterations, seed=args.seed)
    write_manifest(out.parent, "embed", args, config=cfg,
                   inputs=[Path(args.checkpoint), Path(args.data)])
    print(f"wrote {len(coords) * len(windows)} embedding points "
          f"({cfg.depth + 1} stages x {len(windows)} windows) to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ``ConfigError``, which ``main`` prints as one line,
    instead of printing the usage block and exiting."""

    def error(self, message):   # an unrecognized argument is echoed as given, newlines too
        raise ConfigError(" ".join(message.split()))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tst",
        description="Time series transformer for vibration fault diagnosis.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic CSV dataset")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--per-class", type=int, default=900, dest="per_class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--length", type=int, default=2048)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "train", help="train one model",
        description=f"Trains a single trial. The trial report columns are "
                    f"{training.TRIAL_COLUMNS}, one row per epoch, followed by a summary record.")
    p.add_argument("--data", required=True, help="CSV dataset")
    p.add_argument("--seed", type=int, default=0)
    _add_split_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "study", help="repeat trials and aggregate accuracy statistics",
        description=f"Per-trial report columns: {training.TRIAL_COLUMNS}. The study report "
                    f"lists trial,seed,final_test_acc,status plus a summary with "
                    f"top/min/avg accuracy and the population std.")
    p.add_argument("--data", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--base-seed", type=int, default=0, dest="base_seed")
    p.add_argument("--jobs", type=int, default=1)
    _add_split_flags(p)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("cost", help="analytic FLOPs / parameter report")
    p.add_argument("--sweep", choices=["table4"], help="named sweep to print (table4: the "
                   "bundled reference sweep with expected values)")
    p.add_argument("--csv", help="also write the sweep in delimited form")
    _add_override_flags(p)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("embed", help="export per-block class-token t-SNE coordinates")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--perplexity", type=float, default=30.0)
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-points", type=int, dest="max_points",
                   help="subsample the dataset before embedding")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)   # --help and --version still exit 0
        args.argv = argv
        _require_at_least(args, 0, "seed", "base_seed", "split_seed")   # numpy's seed domain
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingAbort, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:   # a bug, not bad input: still one line, never a traceback
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
