"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The desk-scale corpora (10% stratified subsamples, full tempo set) are
generated once per session; expect the whole module to take on the order of
20 minutes on two cores. Run with `pytest -s tests/test_acceptance.py` to
watch the per-criterion lines.
"""

import csv
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from earbench import datasets, features, midi as smf, probe, synth, theory
from earbench.cli import main
from earbench.datasets import CONCEPTS, EXPECTED_COUNTS, LABEL_FIELDS
from earbench.embeddings import read_embeddings_file, write_embeddings_file
from earbench.parallel import parallel_map
from earbench.seeds import derive_seed
from probe_gradients import gradient_check
from random_midi import make_random_sequence

SEED = 11
WORKERS = 2


def check(criterion, description, ok):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {description}", flush=True)
    assert ok, f"criterion {criterion} failed: {description}"


def run_cli(args):
    rc = main([str(a) for a in args])
    assert rc == 0, f"command failed: {args}"


@pytest.fixture(scope="session")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def corpus(work_dir):
    """Desk-scale corpora and embedding files for criteria 3-5."""
    data = work_dir / "data"
    jobs = [
        ("chords", 0.1, "chroma"),
        ("notes", 0.1, "chroma"),
        ("intervals", 0.1, "mel"),
        ("tempo", 1.0, "mfcc"),
    ]
    paths = {"data": data, "results": work_dir / "results"}
    paths["results"].mkdir(exist_ok=True)
    for concept, fraction, feature in jobs:
        run_cli(
            ["generate", "--concept", concept, "--out", data, "--seed", SEED,
             "--subsample", fraction, "--workers", WORKERS]
        )
        emb = work_dir / f"{concept}_{feature}.emb"
        run_cli(
            ["extract", "--concept", concept, "--data", data, "--feature", feature,
             "--out", emb, "--workers", WORKERS]
        )
        paths[concept] = emb
    return paths


def probe_metric(corpus, concept, emb_key, name):
    out_csv = corpus["results"] / f"{concept}_{name}.csv"
    run_cli(
        ["probe", "--concept", concept, "--data", corpus["data"], "--embeddings",
         corpus[emb_key], "--preset", "lm-default", "--seed", SEED, "--out", out_csv,
         "--name", name, "--workers", 1]
    )
    with open(out_csv) as fh:
        rows = [r for r in csv.DictReader(fh) if r["test_metric"]]
    assert len(rows) == 1
    return float(rows[0]["test_metric"])


def test_criterion_1_exact_dataset_cardinalities(work_dir):
    out = work_dir / "manifests_only"
    run_cli(["generate", "--concept", "all", "--out", out, "--seed", SEED, "--manifest-only"])
    counts = {}
    for concept in CONCEPTS:
        counts[concept] = len(datasets.read_manifest(out / concept / "manifest.jsonl"))
    check(1, f"cardinalities {counts}", counts == EXPECTED_COUNTS)


def test_criterion_2_label_balance():
    balanced = {}
    for concept in CONCEPTS:
        if concept == "tempo":
            continue
        records = datasets.build_records(concept, SEED)
        class_counts = Counter(r[LABEL_FIELDS[concept]] for r in records)
        balanced[concept] = len(set(class_counts.values())) == 1
    check(2, f"per-class counts identical {balanced}", all(balanced.values()))


def test_criterion_3_chroma_probes(corpus):
    chords_acc = probe_metric(corpus, "chords", "chords", "chroma")
    notes_acc = probe_metric(corpus, "notes", "notes", "chroma")
    check(
        3,
        f"chroma accuracy: chords {chords_acc:.3f} (floor 0.90), notes {notes_acc:.3f} (floor 0.80)",
        chords_acc >= 0.90 and notes_acc >= 0.80,
    )


def test_chroma_argmax_accuracy_on_rendered_notes(corpus):
    """Mean-chroma argmax matches the label for >= 95% of octave 2-6 notes."""
    records = datasets.read_manifest(corpus["data"] / "notes" / "manifest.jsonl")
    ids, matrix = read_embeddings_file(corpus["notes"])
    by_id = dict(zip(ids, matrix))
    hits = total = 0
    for r in records:
        if 2 <= r["octave"] <= 6:
            total += 1
            mean_chroma = by_id[r["id"]][:12]  # aggregate layout starts with the time mean
            hits += int(np.argmax(mean_chroma)) == r["pitch_class"]
    rate = hits / total
    print(f"notes mean-chroma argmax: {hits}/{total} = {rate:.3f}")
    assert rate >= 0.95


def test_criterion_4_mel_intervals(corpus):
    acc = probe_metric(corpus, "intervals", "intervals", "mel")
    check(4, f"mel-spectrogram intervals accuracy {acc:.3f} (floor 0.85)", acc >= 0.85)


def test_criterion_5_tempo_regression(corpus):
    r2 = probe_metric(corpus, "tempo", "tempo", "mfcc")
    check(5, f"MFCC tempo extrapolation R^2 {r2:.3f} (floor 0.50)", r2 >= 0.50)


def test_criterion_6_smf_round_trip_10000():
    rng = np.random.default_rng(derive_seed(SEED, "acceptance-smf"))
    ok = all(
        smf.decode_smf(smf.encode_smf(seq)) == seq
        for seq in (make_random_sequence(rng, max_events=40) for _ in range(10_000))
    )
    check(6, "SMF round-trip on 10,000 seeded random sequences (exact)", ok)


def test_criterion_6_fft_parseval_1000():
    rng = np.random.default_rng(derive_seed(SEED, "acceptance-fft"))
    worst = 0.0
    for _ in range(1000):
        x = rng.standard_normal(1024)
        power = np.abs(features.rfft(x)) ** 2
        time_energy = float(np.sum(x * x))
        # bins 0 and n/2 once, every other bin twice for its mirror image
        freq_energy = float(2.0 * np.sum(power) - power[0] - power[-1]) / len(x)
        worst = max(worst, abs(time_energy - freq_energy) / time_energy)
    check(6, f"rfft Parseval on 1,000 random signals, worst rel err {worst:.2e}", worst < 1e-9)


def test_criterion_6_chroma_argmax_all_pitch_classes():
    t = np.arange(synth.CLIP_SAMPLES) / synth.SAMPLE_RATE
    wrong = []
    for pc in range(12):
        for octave in (2, 3, 4, 5, 6):
            f = synth.midi_to_hz(theory.note_from(pc, octave))
            tone = 0.5 * np.sin(2 * np.pi * f * t)
            if int(np.argmax(features.frame_features(tone, "chroma").mean(axis=0))) != pc:
                wrong.append((pc, octave))
    check(6, f"chroma argmax exact for 60 pure tones (octaves 2-6); wrong={wrong}", not wrong)


def test_criterion_6_gradient_checks():
    rng = np.random.default_rng(derive_seed(SEED, "acceptance-grad"))
    worst = 0.0
    cases = []
    for model in ("linear", "mlp"):
        for task, n_classes in (("classification", 3), ("regression", 0)):
            d_out = n_classes if task == "classification" else 1
            spec = probe.ProbeSpec(False, model, 64, 1e-3, 0.0, 0.0, task, n_classes)
            if model == "linear":
                params = {"W": rng.standard_normal((4, d_out)) * 0.5, "b": rng.standard_normal(d_out)}
            else:
                params = {
                    "W1": rng.standard_normal((4, 6)) * 0.5,
                    "b1": rng.standard_normal(6) * 0.1,
                    "W2": rng.standard_normal((6, d_out)) * 0.5,
                    "b2": rng.standard_normal(d_out) * 0.1,
                }
            x = rng.standard_normal((5, 4))
            y = rng.integers(0, 3, size=5) if task == "classification" else rng.standard_normal(5)
            err, _ = gradient_check(spec, params, x, y)
            worst = max(worst, err)
            cases.append(f"{model}/{task}:{err:.1e}")
    check(6, f"gradient checks ({', '.join(cases)})", worst <= 1e-4)


def _tiny_pipeline(root):
    data = root / "data"
    results = root / "results"
    results.mkdir(parents=True)
    emb = root / "time_signatures_aggregate.emb"
    run_cli(["generate", "--concept", "time_signatures", "--out", data, "--seed", SEED,
             "--subsample", 0.1, "--workers", WORKERS])
    run_cli(["extract", "--concept", "time_signatures", "--data", data, "--feature", "aggregate",
             "--out", emb, "--workers", WORKERS])
    run_cli(["probe", "--concept", "time_signatures", "--data", data, "--embeddings", emb,
             "--preset", "lm-default", "--seed", SEED, "--out", results / "ts_aggregate.csv",
             "--name", "aggregate", "--workers", 1])
    run_cli(["report", "--results", results, "--out", root / "table.md"])


def test_criterion_6_pipeline_determinism(work_dir):
    run_a = work_dir / "determinism_a"
    run_b = work_dir / "determinism_b"
    _tiny_pipeline(run_a)
    _tiny_pipeline(run_b)
    files_a = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
    same_listing = files_a == files_b
    mismatched = [
        str(rel)
        for rel in files_a
        if (run_a / rel).read_bytes() != (run_b / rel).read_bytes()
    ]
    check(
        6,
        f"same-seed rerun byte-identical over {len(files_a)} files; mismatched={mismatched[:5]}",
        same_listing and not mismatched,
    )


def test_criterion_6_r2_identities():
    rng = np.random.default_rng(derive_seed(SEED, "acceptance-r2"))
    y = rng.standard_normal(500)
    perfect = probe.r2_score(y, y.copy())
    constant = probe.r2_score(y, np.full_like(y, y.mean()))
    check(
        6,
        f"R^2 identities: perfect {perfect}, mean predictor {constant:.2e}",
        perfect == 1.0 and abs(constant) < 1e-12,
    )


def test_criterion_6_split_proportions():
    problems = []
    for concept in CONCEPTS:
        records = datasets.build_records(concept, SEED)
        split = datasets.make_split(records, concept, SEED)
        counts = Counter(split.tolist())
        n = len(records)
        if concept == "tempo":
            train_bpms = {r["bpm"] for r, s in zip(records, split) if s == "train"}
            eval_bpms = {r["bpm"] for r, s in zip(records, split) if s != "train"}
            if train_bpms != set(range(74, 187)) or eval_bpms & train_bpms:
                problems.append("tempo band leakage")
        else:
            for name, share in (("train", 0.70), ("validation", 0.15), ("test", 0.15)):
                if abs(counts[name] - share * n) > 1.0:
                    problems.append(f"{concept}/{name}={counts[name]}")
    check(6, f"split proportions 70/15/15 (+-1) and tempo bands exact; problems={problems}", not problems)


def test_criterion_7_external_embedding_path(work_dir):
    out = work_dir / "external"
    run_cli(["generate", "--concept", "chords", "--out", out, "--seed", SEED, "--manifest-only"])
    records = datasets.read_manifest(out / "chords" / "manifest.jsonl")
    rng = np.random.default_rng(derive_seed(SEED, "acceptance-external"))
    matrix = rng.standard_normal((len(records), 4800)).astype(np.float32)
    emb = out / "external_4800.emb"
    write_embeddings_file(emb, [r["id"] for r in records], matrix)

    results = out / "results"
    results.mkdir()
    run_cli(["probe", "--concept", "chords", "--data", out, "--embeddings", emb,
             "--preset", "lm-default", "--seed", SEED, "--out", results / "external.csv",
             "--name", "external-lm", "--workers", 1])
    with open(results / "external.csv") as fh:
        rows = [r for r in csv.DictReader(fh) if r["test_metric"]]
    accuracy = float(rows[0]["test_metric"])
    run_cli(["report", "--results", results, "--out", out / "table.md"])
    table = (out / "table.md").read_text()
    check(
        7,
        f"random 4800-dim embeddings probe at chance: accuracy {accuracy:.3f} (0.25 +- 0.05)",
        abs(accuracy - 0.25) <= 0.05 and "external-lm" in table,
    )


def test_grid_selection_beats_worst_config(corpus):
    """Desk-scale chords/chroma grid: selection is non-vacuous."""
    records = datasets.read_manifest(corpus["data"] / "chords" / "manifest.jsonl")
    small = datasets.build_records("chords", SEED, 0.02)
    small_ids = {r["id"] for r in small}
    # the 2% stratified pick is a prefix of the 10% pick, so rows already exist
    assert small_ids <= {r["id"] for r in records}
    ids, matrix = read_embeddings_file(corpus["chords"])
    keep = [i for i, sid in enumerate(ids) if sid in small_ids]
    x = matrix[keep]
    kept_records = [records[i] for i in keep]
    y = np.array([theory.CHORD_QUALITIES.index(r["quality"]) for r in kept_records])
    splits = datasets.split_xy(x, y, datasets.make_split(kept_records, "chords", SEED))

    selected, table = probe.grid_search(
        probe.grid_specs("classification", 4), splits, SEED, workers=WORKERS, max_epochs=40
    )
    assert len(table) == 216
    assert selected.val_metric == max(r.val_metric for r in table)
    worst_i = min(range(len(table)), key=lambda i: table[i].val_metric)
    worst_probe, _ = probe.train(
        table[worst_i].spec, splits[0], splits[1],
        derive_seed(SEED, "probe-config", worst_i), max_epochs=40,
    )
    worst_acc = probe.evaluate(worst_probe, *splits[2])
    print(f"grid: selected test {selected.test_metric:.3f} vs worst config test {worst_acc:.3f}")
    assert selected.test_metric > worst_acc


def test_notes_dataset_fully_voiced():
    """Every one of the 9,936 note configurations renders nonsilent audio."""
    records = datasets.build_records("notes", SEED)
    energies = parallel_map(_clip_energy, records, WORKERS)
    silent = [r["id"] for r, e in zip(records, energies) if e <= 1e-8]
    print(f"notes corpus: {len(records) - len(silent)}/{len(records)} nonsilent")
    assert not silent, f"silent configurations: {silent[:10]}"


def _clip_energy(record):
    clip = datasets.render_sample(record)
    return float(np.sum(clip * clip))
