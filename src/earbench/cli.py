"""Command-line front end: generate, extract, probe, report.

All randomness flows from --seed through stable per-stage hashing, so any
command rerun with the same flags rewrites byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import datasets, probe, report, synth
from .embeddings import ingest_embeddings, read_embeddings_file, write_embeddings_file
from .features import FEATURE_KINDS, feature_vector
from .parallel import parallel_map

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="earbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument("--workers", type=int, default=os.cpu_count() or 1)

    gen = sub.add_parser("generate", parents=[pool], help="synthesize concept datasets")
    gen.add_argument("--concept", required=True, choices=datasets.CONCEPTS + ["all"])
    gen.add_argument("--out", required=True, help="output root directory")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--subsample", type=float, default=1.0, help="stratified fraction in (0, 1]")
    gen.add_argument("--manifest-only", action="store_true", help="write manifests only, skip MIDI and audio")

    ext = sub.add_parser("extract", parents=[pool], help="pool handcrafted features into an embedding file")
    ext.add_argument("--concept", required=True, choices=datasets.CONCEPTS)
    ext.add_argument("--data", required=True, help="root directory written by generate")
    ext.add_argument("--feature", required=True, choices=FEATURE_KINDS)
    ext.add_argument("--out", required=True, help="embedding file path")

    prb = sub.add_parser("probe", parents=[pool], help="train probes on an embedding file")
    prb.add_argument("--concept", required=True, choices=datasets.CONCEPTS)
    prb.add_argument("--data", required=True, help="root directory written by generate")
    prb.add_argument("--embeddings", required=True)
    mode = prb.add_mutually_exclusive_group(required=True)
    mode.add_argument("--grid", action="store_true", help="full 216-configuration search")
    mode.add_argument("--preset", choices=["lm-default"], help="single fixed configuration")
    prb.add_argument("--seed", type=int, default=0)
    prb.add_argument("--out", required=True, help="result CSV path")
    prb.add_argument("--name", help="representation label (default: embeddings file stem)")

    rep = sub.add_parser("report", help="summarize probe result CSVs into a table")
    rep.add_argument("--results", required=True, help="directory of probe result CSVs")
    rep.add_argument("--out", required=True, help=".md or .csv output path")
    return parser


def cmd_generate(args, parser):
    if not 0.0 < args.subsample <= 1.0:
        parser.error(f"--subsample must be in (0, 1], got {args.subsample}")
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe_file = out / ".writable"
        probe_file.touch()
        probe_file.unlink()
    except OSError as exc:
        parser.error(f"output directory not writable: {exc}")
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


def cmd_extract(args):
    concept_dir = Path(args.data) / args.concept
    manifest = concept_dir / "manifest.jsonl"
    records = datasets.read_manifest(manifest)
    for r in records:
        if "wav_path" not in r:
            raise ValueError(f"{manifest}: record {r['id']!r} has no 'wav_path'")

    def extract_one(wav_path):
        clip, rate = synth.read_wav(wav_path.read_bytes())
        if rate != synth.SAMPLE_RATE or len(clip) != synth.CLIP_SAMPLES:
            raise ValueError(f"unexpected clip format in {wav_path}: rate={rate} len={len(clip)}")
        return feature_vector(clip, args.feature).astype(np.float32)

    rows = parallel_map(extract_one, [concept_dir / r["wav_path"] for r in records], args.workers)
    matrix = np.stack(rows)
    write_embeddings_file(args.out, [r["id"] for r in records], matrix)
    print(f"{args.concept}/{args.feature}: {matrix.shape[0]} vectors, dim {matrix.shape[1]} -> {args.out}")
    return 0


def spec_summary(spec: probe.ProbeSpec) -> str:
    return (
        f"normalize={spec.normalize} model={spec.model} batch={spec.batch_size} "
        f"lr={spec.learning_rate:g} dropout={spec.dropout:g} wd={spec.weight_decay:g}"
    )


def cmd_probe(args):
    concept_dir = Path(args.data) / args.concept
    records = datasets.read_manifest(concept_dir / "manifest.jsonl")
    y, n_classes = datasets.class_labels(records, args.concept)
    split = datasets.make_split(records, args.concept, args.seed)
    splits = datasets.split_xy(ingest_embeddings(*read_embeddings_file(args.embeddings), records), y, split)
    task = datasets.CONCEPT_TASKS[args.concept]
    specs = probe.grid_specs(task, n_classes) if args.grid else [probe.lm_default_spec(task, n_classes)]
    selected, results = probe.grid_search(specs, splits, args.seed, args.workers)
    representation = args.name or Path(args.embeddings).stem
    report.write_result_csv(args.out, args.concept, representation, results)
    metric = "r2" if task == "regression" else "accuracy"
    print(f"{args.concept}/{representation}: selected {spec_summary(selected.spec)}")
    print(f"{args.concept}/{representation}: test {metric} {selected.test_metric:.4f}")
    return 0


def cmd_report(args):
    cells = report.load_result_cells(args.results)
    if not cells:
        raise FileNotFoundError(f"no probe result CSVs with a selected row under {args.results}")
    table = report.build_table(cells)
    csv_out = Path(args.out).suffix.lower() == ".csv"
    text = report.render_csv(table) if csv_out else report.render_markdown(table)
    datasets.write_atomic(args.out, text.encode("utf-8"))
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
