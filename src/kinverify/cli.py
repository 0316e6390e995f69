"""Command-line entry point wiring the library into reproducible runs.

Exit codes: 0 success, 1 validation, data, file or numeric failure (one
``error:`` line on stderr), 2 usage error. Every subcommand that writes
files lists them once, as (path, save) pairs, and hands them to
``_check_outputs``, which refuses a bad target before any loading, training
or scoring. At the end ``_write_outputs`` checks them again, since the work
may have run for hours, then writes them: its artifacts first, then a
manifest with the resolved config, the seed and a checksum per artifact.
"""

from __future__ import annotations

import argparse
import enum
import errno
import json
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

from .comparator import (
    Activation,
    ComparatorParams,
    PoolingMode,
    SharingMode,
    attention_forward,
    check_threshold,
    score_unknown,
    verify,
)
from .config import RunConfig, parse_config, write_manifest
from .data import (
    EmbeddingStore,
    PairSet,
    _check_people,
    _checked_pair,
    _checked_tri,
    concat_features,
    load_embeddings,
    load_pairs,
    save_embeddings,
    save_pairs,
    save_tri,
)
from .evaluation import (
    EvaluationReport,
    HistogramTable,
    Objective,
    Scorer,
    accuracy_report,
    calibrate_per_relation,
    calibrate_threshold,
    histogram,
    score_pairs,
    tri_score,
)
from .model_io import load_model, save_model, serialize_model
from .relations import KinshipRelation
from .synth import SPLITS, generate_world, save_pedigree
from .training import _save_history, ablation_run, gradcheck, save_ablation_csv, train, train_attention

GRADCHECK_BOUND = 1e-6


def _run_config(args: argparse.Namespace) -> RunConfig:
    """--config, overridden by every flag whose dest is a config key ("seed" or "section.key")."""
    overrides = {k: v for k, v in vars(args).items() if k == "seed" or "." in k}
    return parse_config(args.config, overrides)


def _choices(values: type[enum.Enum]) -> list[str]:
    return [v.value for v in values]


def _load_world(data: Path) -> tuple[EmbeddingStore, PairSet, PairSet]:
    """The store, training kin pairs and validation pairs of a ``synth`` directory."""
    store = load_embeddings(data / "embeddings.csv")
    kin, val = (load_pairs(data / f"pairs_{split}.csv", store) for split in ("train", "val"))
    return store, kin, val


def _manifest_at(path: Path) -> dict | None:
    """The manifest in the file at ``path``: a UTF-8 JSON object with a "command" key, else None."""
    if not path.is_file():
        return None
    with path.open("rb") as fh:
        # JSON whitespace is ASCII, so a first other byte that is not "{" rules out a
        # JSON object without reading the rest of, say, a 3 MB model
        head = fh.read(4096).lstrip(b" \t\n\r")
        if head[:1] not in (b"{", b""):
            return None
        raw = head + fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError:  # not UTF-8 or not JSON
        return None
    return doc if isinstance(doc, dict) and "command" in doc else None


def _check_outputs(manifest: Path, command: str, outputs: list[tuple[Path, Callable]]) -> None:
    """Refuse targets the write would fail on or lose data to: a file where a directory goes, a
    directory target, a file name given twice (the manifest's checksum key), a manifest another
    command wrote, or an artifact target that holds a manifest."""
    artifacts = [path for path, _ in outputs]
    named: dict[str, Path] = {}
    for path in [*artifacts, manifest]:
        parent = next(p for p in path.parents if p.exists())
        if not parent.is_dir():
            raise FileExistsError(errno.EEXIST, "File exists", str(parent))
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "Is a directory", str(path))
        if path.name in named:
            raise ValueError(f"outputs {named[path.name]} and {path} share a file name")
        named[path.name] = path
    owner = _manifest_at(manifest)
    if manifest.is_file() and (owner is None or owner["command"] != command):
        raise ValueError(f"{manifest} is not a {command} manifest; refusing to replace it")
    for path in artifacts:
        if (doc := _manifest_at(path)) is not None:
            raise ValueError(f"{path} is a {doc['command']!r} manifest; refusing to replace it")


def _write_outputs(
    manifest: Path, command: str, cfg: RunConfig, outputs: list[tuple[Path, Callable]], values: list
) -> None:
    """Check the outputs again, as a target may have changed during the work, then run each
    ``save(value, path)`` in order, one value per output, and write the manifest."""
    _check_outputs(manifest, command, outputs)
    manifest.parent.mkdir(parents=True, exist_ok=True)
    for (path, save), value in zip(outputs, values, strict=True):
        save(value, path)
    write_manifest(manifest.parent, command, cfg, [path for path, _ in outputs], manifest.name)


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    manifest = args.out / "manifest.json"
    saves = {"embeddings": save_embeddings, "pedigree": save_pedigree}
    saves |= {f"{kind}_{s}": save for kind, save in (("pairs", save_pairs), ("tri", save_tri))
              for s in SPLITS}
    outputs = [(args.out / f"{name}.csv", save) for name, save in saves.items()]
    _check_outputs(manifest, "synth", outputs)
    world = generate_world(cfg.synth_config())
    values = {"embeddings": world.store, "pedigree": world.pedigree}
    values |= {"pairs_train": world.kin_pairs["train"]}
    values |= {f"pairs_{s}": world.eval_pairs[s] for s in ("val", "test")}
    values |= {f"tri_{s}": world.tris[s] for s in SPLITS}
    _write_outputs(manifest, "synth", cfg, outputs, [values[path.stem] for path, _ in outputs])
    print(f"world written to {args.out} ({len(world.store)} persons, dim {world.store.dim})")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    manifest, model_path = args.out / "manifest.json", args.out / "model.kinc"
    outputs = [(model_path, save_model), (args.out / "history.csv", _save_history)]
    _check_outputs(manifest, "train", outputs)
    store, kin, val = _load_world(Path(args.data))
    comp_cfg = cfg.comparator_config(input_dim=2 * store.dim)
    params, history = train(store, kin, val, comp_cfg, cfg.train_config())
    if args.attention:
        params = train_attention(params, store, kin, cfg.train_config())

    _write_outputs(manifest, "train", cfg, outputs, [params, history])
    for h in history:
        print(f"epoch {h.epoch}: lr={h.lr} loss={h.train_loss:.4f} val_macro={h.val_macro_acc:.4f}")
    print(f"model written to {model_path}")
    return 0


def _model_and_threshold(args: argparse.Namespace) -> tuple[ComparatorParams, float | None]:
    """The model and its threshold: --threshold, rejected outside [0, 1], else the stored one."""
    flag = None if args.threshold is None else check_threshold(args.threshold)
    params = load_model(args.model)
    return params, flag if flag is not None else params.threshold


def _query_inputs(args: argparse.Namespace) -> tuple[ComparatorParams, EmbeddingStore, float]:
    """Model, store and decision threshold of a query; a threshold is required."""
    params, threshold = _model_and_threshold(args)
    if threshold is None:
        raise ValueError("model has no stored threshold; pass --threshold")
    return params, load_embeddings(args.embeddings), threshold


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    manifest = args.out / "manifest.json"
    outputs = [(args.out / "report.csv", EvaluationReport.save_csv)]
    if args.calibrate:  # it rewrites the model too, and the run records its bytes
        outputs.append((args.model, save_model))
    _check_outputs(manifest, "eval", outputs)
    params, threshold = _model_and_threshold(args)
    store = load_embeddings(args.embeddings)
    pairs = load_pairs(args.pairs, store)
    scored = score_pairs(params, store, pairs)
    objective = Objective(cfg.eval.objective)
    if args.per_relation:
        # extension mode: one threshold per relation, beyond the published
        # single-threshold protocol; never stored in the model file
        threshold = calibrate_per_relation(scored)
    elif args.calibrate:
        threshold, best = calibrate_threshold(scored, objective=objective)
        params.threshold = threshold
        serialize_model(params)  # its header check runs before any write
    elif threshold is None:
        raise ValueError("model has no stored threshold; pass --calibrate or --threshold")
    report = accuracy_report(scored, threshold, include_auc=args.auc)
    _write_outputs(manifest, "eval", cfg, outputs, [report, params][: len(outputs)])
    if args.calibrate:
        print(f"calibrated threshold {threshold:.6f} ({objective.value} accuracy {best:.4f})")
    for row in report.rows:
        extra = f" auc={row.auc:.4f}" if row.auc is not None else ""
        print(f"{row.relation:5s} accuracy={row.accuracy:.4f} n={row.count}{extra}")
    if report.missing:
        print(f"missing relations (excluded from macro): {','.join(report.missing)}")
    if isinstance(threshold, dict):
        print(f"macro accuracy {report.macro_accuracy:.4f} with per-relation thresholds")
    else:
        print(f"macro accuracy {report.macro_accuracy:.4f} at threshold {threshold:.6f}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    params, store, threshold = _query_inputs(args)
    pair = _checked_pair(store, args.id1, args.id2, args.relation, None)
    f1, f2 = store.embedding(pair.id1), store.embedding(pair.id2)
    score, decision = verify(params, f1, f2, pair.relation, threshold)
    print(f"score={score:.6f} threshold={threshold:.6f} decision={decision.value}")
    return 0


def _cmd_tri_verify(args: argparse.Namespace) -> int:
    params, store, threshold = _query_inputs(args)
    sample = _checked_tri(store, args.father, args.mother, args.child, None)
    z_fc, z_mc, fused = tri_score(params, store, sample)
    decision = "kin" if fused >= threshold else "nonkin"
    print(f"z_father_child={z_fc:.6f} z_mother_child={z_mc:.6f} fused={fused:.6f} decision={decision}")
    return 0


def _value_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two numbers lo,hi, got {text!r}") from None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"lo and hi must be finite, got {text!r}")
    return lo, hi


def _cmd_histogram(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    manifest = args.out.with_name(f"{args.out.name}.manifest.json")
    outputs = [(args.out, HistogramTable.save_csv)]
    _check_outputs(manifest, "histogram", outputs)
    store = load_embeddings(args.embeddings)
    pairs = load_pairs(args.pairs, store)
    if args.relations is not None:
        wanted = {KinshipRelation.from_code(c) for c in args.relations.split(",")}
        pairs = [p for p in pairs if p.relation in wanted]
    scorer = Scorer(args.scorer)
    params = load_model(args.model) if args.model else None
    if scorer is Scorer.COMPARATOR and params is None:
        raise ValueError("comparator histograms need --model")
    scored = score_pairs(params, store, pairs, scorer)
    value_range = args.range or ((0.0, 2.0) if scorer is Scorer.COSINE else (0.0, 1.0))
    table = histogram(scored, cfg.eval.bins, value_range)
    overlap = table.overlap()  # a single-class table fails here, before any write
    _write_outputs(manifest, "histogram", cfg, outputs, [table])
    print(f"histogram written to {args.out} (overlap {overlap:.4f})")
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    manifest = args.out.with_name(f"{args.out.name}.manifest.json")
    outputs = [(args.out, save_ablation_csv)]
    _check_outputs(manifest, "ablate", outputs)
    store, kin, val = _load_world(Path(args.data))
    results = ablation_run(
        store,
        kin,
        val,
        train_config=cfg.train_config(),
        objective=Objective(cfg.eval.objective),
    )
    _write_outputs(manifest, "ablate", cfg, outputs, [results])
    for r in results:
        print(
            f"{r.cell.activation:6s} dropout={r.cell.dropout_p:.1f} "
            f"hidden={r.cell.hidden:4d} accuracy={r.accuracy:.4f}"
        )
    print(f"ablation table written to {args.out}")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    err = gradcheck(seed=args.seed if args.seed is not None else 0)
    print(f"max relative gradient error: {err:.3e} (bound {GRADCHECK_BOUND:.0e})")
    return 0 if err < GRADCHECK_BOUND else 1


def _cmd_predict_relation(args: argparse.Namespace) -> int:
    params = load_model(args.model)
    if not params.has_attention:
        raise ValueError("model has no attention head; train with --attention")
    store = load_embeddings(args.embeddings)
    _check_people(store, "pair", args.id1, args.id2)
    features = concat_features(store.embedding(args.id1), store.embedding(args.id2))
    probs = attention_forward(params, features)
    order = np.argsort(probs)[::-1]
    codes = params.config.relations
    top = ", ".join(f"{codes[i]}={probs[i]:.4f}" for i in order[:3])
    print(f"predicted relation: {codes[order[0]]} (top candidates: {top})")
    if args.pooling:
        z = score_unknown(params, features, PoolingMode(args.pooling))
        print(f"unknown-relation kin score ({args.pooling}): {z:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinverify",
        description="Kinship verification with cascaded local-expert comparators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    model_flags = argparse.ArgumentParser(add_help=False)
    model_flags.add_argument("--model", required=True, type=Path)
    model_flags.add_argument("--embeddings", required=True, type=Path)
    # every config flag's dest is its config key, which _run_config collects
    config_flags = argparse.ArgumentParser(add_help=False)
    config_flags.add_argument("--config", type=Path, help="JSON run config")
    config_flags.add_argument("--seed", type=int, help="base seed (overrides config)")

    p = sub.add_parser("synth", parents=[config_flags], help="generate a synthetic embedding world")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--dim", dest="synth.dim", type=int)
    p.add_argument("--identity-dims", dest="synth.identity_dims", type=int)
    for split in ("train", "val", "test"):
        p.add_argument(f"--{split}-families", dest=f"synth.n_{split}_families", type=int)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser(
        "train", parents=[config_flags], help="train a comparator on a world directory"
    )
    p.add_argument("--data", required=True, type=Path, help="directory from `synth`")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--hidden", dest="model.hidden", type=int)
    p.add_argument("--activation", dest="model.activation", choices=_choices(Activation))
    p.add_argument("--dropout", dest="model.dropout", type=float)
    p.add_argument("--sharing", dest="model.sharing", choices=_choices(SharingMode))
    p.add_argument("--epochs", dest="train.epochs", type=int)
    p.add_argument("--batch-size", dest="train.batch_size", type=int)
    p.add_argument("--attention", action="store_true", help="also train the relation head")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "eval", parents=[model_flags, config_flags],
        help="report per-relation accuracy on a pairs file",
    )
    p.add_argument("--pairs", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--calibrate", action="store_true",
                        help="calibrate and store the threshold")
    source.add_argument("--threshold", type=float)
    source.add_argument("--per-relation", action="store_true",
                        help="extension: calibrate one threshold per relation (not stored)")
    p.add_argument("--objective", dest="eval.objective", choices=_choices(Objective))
    p.add_argument("--auc", action="store_true", help="include per-relation AUC")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "verify", parents=[model_flags], help="score one pair under a stated relation"
    )
    p.add_argument("--id1", required=True)
    p.add_argument("--id2", required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "tri-verify", parents=[model_flags], help="score a father-mother-child triple"
    )
    p.add_argument("--father", required=True)
    p.add_argument("--mother", required=True)
    p.add_argument("--child", required=True)
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=_cmd_tri_verify)

    p = sub.add_parser(
        "histogram", parents=[config_flags], help="kin/nonkin score histogram as CSV"
    )
    p.add_argument("--embeddings", required=True, type=Path)
    p.add_argument("--pairs", required=True, type=Path)
    p.add_argument("--scorer", choices=_choices(Scorer), default=Scorer.COMPARATOR.value)
    p.add_argument("--model", type=Path)
    p.add_argument("--relations", help="comma-separated relation codes")
    p.add_argument("--bins", dest="eval.bins", type=int)
    p.add_argument("--range", type=_value_range, help="lo,hi (defaults: 0,1 comparator; 0,2 cosine)")
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=_cmd_histogram)

    p = sub.add_parser("ablate", parents=[config_flags], help="run the full parameter-study grid")
    p.add_argument("--data", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--epochs", dest="train.epochs", type=int)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("gradcheck", help="verify backprop against finite differences")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser(
        "predict-relation", parents=[model_flags], help="predict the relation of a pair"
    )
    p.add_argument("--id1", required=True)
    p.add_argument("--id2", required=True)
    p.add_argument("--pooling", choices=_choices(PoolingMode))
    p.set_defaults(func=_cmd_predict_relation)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # forward raises FloatingPointError on a non-finite value itself, so numpy's
        # overflow warnings on the way there would only add lines before the error line
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    # ConfigError, DataFormatError and ModelFormatError are ValueErrors
    except (ValueError, KeyError, OSError, FloatingPointError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
