"""Command-line front end: generate, extract, probe, report.

All randomness flows from --seed through stable per-stage hashing, so any
command rerun with the same flags rewrites byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from . import datasets, probe, report, synth
from .embeddings import ingest_embeddings, read_embeddings_file, write_embeddings_file
from .features import FEATURE_KINDS, feature_vector
from .parallel import parallel_map

RESULT_COLUMNS = [
    "concept",
    "representation",
    "normalize",
    "model",
    "batch_size",
    "learning_rate",
    "dropout",
    "weight_decay",
    "task",
    "n_classes",
    "seed",
    "best_epoch",
    "epochs_run",
    "val_metric",
    "test_metric",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="earbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize concept datasets")
    gen.add_argument("--concept", required=True, choices=datasets.CONCEPTS + ["all"])
    gen.add_argument("--out", required=True, help="output root directory")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--subsample", type=float, default=1.0, help="stratified fraction in (0, 1]")
    gen.add_argument("--manifest-only", action="store_true", help="write manifests and splits, skip audio")
    gen.add_argument("--workers", type=int, default=os.cpu_count())

    ext = sub.add_parser("extract", help="pool handcrafted features into an embedding file")
    ext.add_argument("--concept", required=True, choices=datasets.CONCEPTS)
    ext.add_argument("--data", required=True, help="root directory written by generate")
    ext.add_argument("--feature", required=True, choices=FEATURE_KINDS)
    ext.add_argument("--out", required=True, help="embedding file path")
    ext.add_argument("--workers", type=int, default=os.cpu_count())

    prb = sub.add_parser("probe", help="train probes on an embedding file")
    prb.add_argument("--concept", required=True, choices=datasets.CONCEPTS)
    prb.add_argument("--data", required=True, help="root directory written by generate")
    prb.add_argument("--embeddings", required=True)
    mode = prb.add_mutually_exclusive_group(required=True)
    mode.add_argument("--grid", action="store_true", help="full 216-configuration search")
    mode.add_argument("--preset", choices=["lm-default"], help="single fixed configuration")
    prb.add_argument("--seed", type=int, default=0)
    prb.add_argument("--out", required=True, help="result CSV path")
    prb.add_argument("--name", help="representation label (default: embeddings file stem)")
    prb.add_argument("--workers", type=int, default=os.cpu_count())

    rep = sub.add_parser("report", help="summarize probe result CSVs into a table")
    rep.add_argument("--results", required=True, help="directory of probe result CSVs")
    rep.add_argument("--out", required=True, help=".md or .csv output path")
    return parser


def cmd_generate(args, parser):
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe_file = out / ".writable"
        probe_file.touch()
        probe_file.unlink()
    except OSError as exc:
        parser.error(f"output directory not writable: {exc}")
    if not 0.0 < args.subsample <= 1.0:
        parser.error(f"--subsample must be in (0, 1], got {args.subsample}")
    concepts = datasets.CONCEPTS if args.concept == "all" else [args.concept]
    for concept in concepts:
        records = datasets.generate_concept(
            concept,
            out,
            args.seed,
            subsample=args.subsample,
            manifest_only=args.manifest_only,
            workers=args.workers,
        )
        print(f"{concept}: {len(records)} samples")
    return 0


def _extract_one(job):
    wav_path, kind = job
    clip, rate = synth.read_wav(Path(wav_path).read_bytes())
    if rate != synth.SAMPLE_RATE or len(clip) != synth.CLIP_SAMPLES:
        raise ValueError(f"unexpected clip format in {wav_path}: rate={rate} len={len(clip)}")
    return feature_vector(clip, kind).astype(np.float32)


def cmd_extract(args):
    concept_dir = Path(args.data) / args.concept
    records = datasets.read_manifest(concept_dir / "manifest.jsonl")
    jobs = [(str(concept_dir / r["wav_path"]), args.feature) for r in records]
    rows = parallel_map(_extract_one, jobs, args.workers or 1)
    matrix = np.stack(rows)
    write_embeddings_file(args.out, [r["id"] for r in records], matrix)
    print(f"{args.concept}/{args.feature}: {matrix.shape[0]} vectors, dim {matrix.shape[1]} -> {args.out}")
    return 0


def class_labels(records: list[dict], concept: str):
    """(y, classes): integer targets for classification, float BPM for tempo."""
    field = datasets.LABEL_FIELDS[concept]
    if concept == "tempo":
        return np.array([float(r[field]) for r in records]), None
    classes = sorted({r[field] for r in records})
    index = {v: i for i, v in enumerate(classes)}
    return np.array([index[r[field]] for r in records]), classes


def _split_xy(x, y, records, assignment):
    parts = {}
    for name in ("train", "validation", "test"):
        idx = [i for i, r in enumerate(records) if assignment[r["id"]] == name]
        parts[name] = (x[idx], y[idx])
    return parts["train"], parts["validation"], parts["test"]


def spec_summary(spec: probe.ProbeSpec) -> str:
    return (
        f"normalize={spec.normalize} model={spec.model} batch={spec.batch_size} "
        f"lr={spec.learning_rate:g} dropout={spec.dropout:g} wd={spec.weight_decay:g}"
    )


def write_result_csv(path, concept, representation, results, seed):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        for r in results:
            writer.writerow(
                {
                    "concept": concept,
                    "representation": representation,
                    "normalize": r.spec.normalize,
                    "model": r.spec.model,
                    "batch_size": r.spec.batch_size,
                    "learning_rate": f"{r.spec.learning_rate:g}",
                    "dropout": f"{r.spec.dropout:g}",
                    "weight_decay": f"{r.spec.weight_decay:g}",
                    "task": r.spec.task,
                    "n_classes": r.spec.n_classes,
                    "seed": r.seed,
                    "best_epoch": r.best_epoch,
                    "epochs_run": r.epochs_run,
                    "val_metric": f"{r.val_metric:.6f}",
                    "test_metric": "" if r.test_metric is None else f"{r.test_metric:.6f}",
                }
            )


def cmd_probe(args):
    concept_dir = Path(args.data) / args.concept
    records = datasets.read_manifest(concept_dir / "manifest.jsonl")
    ids, matrix = read_embeddings_file(args.embeddings)
    x = ingest_embeddings(ids, matrix, records).astype(np.float64)
    y, classes = class_labels(records, args.concept)
    task = datasets.CONCEPT_TASKS[args.concept]
    n_classes = len(classes) if classes else 0
    assignment = datasets.make_split(records, args.concept, args.seed)
    splits = _split_xy(x, y, records, assignment)
    specs = None if args.grid else [probe.lm_default_spec(task, n_classes)]
    selected, results = probe.grid_search(
        splits, task, n_classes, args.seed, specs=specs, workers=args.workers or 1
    )
    representation = args.name or Path(args.embeddings).stem
    write_result_csv(args.out, args.concept, representation, results, args.seed)
    metric = "r2" if task == "regression" else "accuracy"
    print(f"{args.concept}/{representation}: selected {spec_summary(selected.spec)}")
    print(f"{args.concept}/{representation}: test {metric} {selected.test_metric:.4f}")
    return 0


def cmd_report(args):
    cells = report.load_result_cells(args.results)
    if not cells:
        raise FileNotFoundError(f"no probe result CSVs with a selected row under {args.results}")
    table = report.build_table(cells)
    out = Path(args.out)
    text = report.render_csv(table) if out.suffix.lower() == ".csv" else report.render_markdown(table)
    out.write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args, parser)
        if args.command == "extract":
            return cmd_extract(args)
        if args.command == "probe":
            return cmd_probe(args)
        if args.command == "report":
            return cmd_report(args)
    except BrokenPipeError:
        raise
    except Exception as exc:  # runtime failures exit 1, usage errors exit 2 via argparse
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
