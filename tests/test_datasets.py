import builtins
import hashlib
import io
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from earbench import datasets, midi as smf, synth, theory
from earbench.datasets import (
    CONCEPTS,
    EXPECTED_COUNTS,
    LABEL_FIELDS,
    build_midi,
    build_records,
    click_pattern,
    generate_concept,
    make_split,
    read_manifest,
    render_sample,
    split_xy,
    write_manifest,
)
from earbench.seeds import derive_seed

SEED = 7


@pytest.fixture(scope="module")
def all_records():
    return {c: build_records(c, SEED) for c in CONCEPTS}


def test_counts_match_published_totals(all_records):
    for concept, records in all_records.items():
        assert len(records) == EXPECTED_COUNTS[concept], concept
    assert sum(EXPECTED_COUNTS.values()) == 104_585


def test_classification_label_balance(all_records):
    expected_per_class = {
        "time_signatures": 150,
        "notes": 828,
        "intervals": 3312,
        "scales": 2208,
        "chords": 3312,
        "progressions": 1104,
    }
    for concept, per_class in expected_per_class.items():
        counts = Counter(r[LABEL_FIELDS[concept]] for r in all_records[concept])
        assert set(counts.values()) == {per_class}, concept


def test_tempo_bpm_coverage(all_records):
    counts = Counter(r["bpm"] for r in all_records["tempo"])
    assert set(counts) == set(range(50, 211))
    assert len(counts) == 161
    assert set(counts.values()) == {25}  # 5 clicks x 5 offsets


def test_ids_unique_across_corpus(all_records):
    ids = [r["id"] for records in all_records.values() for r in records]
    assert len(ids) == len(set(ids))


def test_records_deterministic(all_records):
    for concept in ("tempo", "chords"):
        again = build_records(concept, SEED)
        assert again == all_records[concept]
    assert build_records("tempo", SEED + 1) != all_records["tempo"]


def test_offsets_stay_inside_one_bar(all_records):
    for r in all_records["tempo"]:
        assert 0.0 <= r["offset_s"] < 4 * 60.0 / r["bpm"]
    for r in all_records["time_signatures"]:
        bar_s = r["numerator"] * (4.0 / r["denominator"]) * 0.5
        assert 0.0 <= r["offset_s"] < bar_s


@pytest.mark.parametrize("seed", [0, 11])
def test_every_tempo_clip_has_two_clicks(seed):
    # one click, or none, carries no tempo
    for r in build_records("tempo", seed):
        assert len(click_pattern(r)) >= 2, r["id"]


def test_manifest_bytes_pinned(tmp_path):
    digest = hashlib.sha256()
    for concept in CONCEPTS:
        path = tmp_path / f"{concept}.jsonl"
        write_manifest(build_records(concept, 11), path)
        digest.update(path.read_bytes())
    assert digest.hexdigest() == "451439aebaa2b88e2ed0b8f661489e6abc2c342f187193d343a639a82a8a3904"


def test_concept_isolation_fields(all_records):
    for r in all_records["tempo"]:
        assert "timbre_id" not in r and r["reverb_level"] == "dry"
    for r in all_records["time_signatures"]:
        assert "timbre_id" not in r
    reverbs = {r["reverb_level"] for r in all_records["time_signatures"]}
    assert reverbs == {"dry", "medium", "spacious"}
    for concept in ("notes", "intervals", "scales", "chords", "progressions"):
        for r in all_records[concept][:200]:
            assert "click_id" not in r
            assert r["reverb_level"] == "dry"  # reverb perturbs only time signatures


def test_time_signature_classes(all_records):
    sigs = {r["time_signature"] for r in all_records["time_signatures"]}
    assert sigs == {"2/2", "3/4", "4/4", "3/8", "4/8", "6/8", "9/8", "12/8"}


def test_notes_register_block(all_records):
    notes = {r["midi_note"] for r in all_records["notes"]}
    assert min(notes) == 0 and max(notes) == 107
    octaves = {r["octave"] for r in all_records["notes"]}
    assert octaves == set(range(-1, 8))


def test_click_pattern_120bpm_four_four():
    record = {"concept": "tempo", "bpm": 120, "offset_s": 0.0}
    pattern = click_pattern(record)
    times = [t for t, _ in pattern]
    assert times == pytest.approx([0.5 * k for k in range(8)])
    downbeats = [t for t, down in pattern if down]
    assert downbeats == pytest.approx([0.0, 2.0])


def test_click_pattern_compound_meter():
    record = {"concept": "time_signatures", "numerator": 6, "denominator": 8, "offset_s": 0.25}
    pattern = click_pattern(record)
    assert pattern[0] == (0.25, True)
    assert pattern[1][0] == pytest.approx(0.5)
    downbeats = [t for t, down in pattern if down]
    assert np.allclose(np.diff(downbeats), 1.5)  # six eighths per bar at 120 BPM


@pytest.mark.parametrize("concept", CONCEPTS)
def test_sample_midi_round_trips(concept, all_records):
    rng = np.random.default_rng(0)
    records = all_records[concept]
    for i in rng.integers(0, len(records), size=5):
        seq = build_midi(records[int(i)])
        assert smf.decode_smf(smf.encode_smf(seq)) == seq


def test_tonal_midi_structure(all_records):
    record = next(r for r in all_records["chords"] if r["timbre_id"] == 3)
    seq = build_midi(record)
    kinds = [type(e.kind).__name__ for e in seq.events]
    assert kinds[:3] == ["TempoMeta", "TimeSignatureMeta", "ProgramChange"]
    note_ons = [e.kind for e in seq.events if isinstance(e.kind, smf.NoteOn)]
    assert len(note_ons) == 24  # 8 strikes x 3 chord tones
    assert all(n.velocity == smf.NOTE_VELOCITY for n in note_ons)
    assert all(n.channel == smf.MELODIC_CHANNEL for n in note_ons)


def test_rhythmic_midi_uses_percussion_channel(all_records):
    record = all_records["time_signatures"][0]
    seq = build_midi(record)
    note_ons = [e.kind for e in seq.events if isinstance(e.kind, smf.NoteOn)]
    assert note_ons and all(n.channel == smf.PERCUSSION_CHANNEL for n in note_ons)


@pytest.mark.parametrize("concept", CONCEPTS)
def test_rendered_clip_contract(concept, all_records):
    record = all_records[concept][len(all_records[concept]) // 2]
    clip = render_sample(record)
    assert clip.shape == (synth.CLIP_SAMPLES,)
    assert np.all(np.isfinite(clip))
    assert np.max(np.abs(clip)) <= 1.0
    assert float(np.sum(clip * clip)) > 0.0 or record["concept"] == "tempo"


def test_progression_audio_uses_resolved_chords(all_records):
    record = next(
        r for r in all_records["progressions"] if r["progression_index"] == 0 and r["key_root"] == 0
    )
    seq = build_midi(record)
    note_ons = [e.kind.note for e in seq.events if isinstance(e.kind, smf.NoteOn)]
    expected = [n for c in theory.resolve_progression(0, theory.PROGRESSIONS[0]) for n in c] * 2
    assert note_ons == expected


def test_split_proportions_classification(all_records):
    records = all_records["time_signatures"]
    split = make_split(records, "time_signatures", SEED)
    counts = Counter(split.tolist())
    assert counts == {"train": 840, "validation": 180, "test": 180}
    assert len(split) == len(records)


def test_split_tempo_extrapolation_bands(all_records):
    records = all_records["tempo"]
    split = make_split(records, "tempo", SEED)
    train_bpms = {r["bpm"] for r, s in zip(records, split) if s == "train"}
    eval_bpms = {r["bpm"] for r, s in zip(records, split) if s != "train"}
    assert train_bpms == set(range(74, 187))  # middle 113 of 161 values
    assert eval_bpms == set(range(50, 74)) | set(range(187, 211))
    counts = Counter(split.tolist())
    assert counts["validation"] == counts["test"] == 600
    assert counts["train"] == 2825


def test_split_deterministic(all_records):
    records = all_records["scales"]
    assert np.array_equal(make_split(records, "scales", 3), make_split(records, "scales", 3))
    assert not np.array_equal(make_split(records, "scales", 3), make_split(records, "scales", 4))


def test_split_tempo_needs_seven_bpm_values():
    records = [{"id": f"t{bpm}_{k}", "bpm": bpm} for bpm in range(100, 105) for k in range(2)]
    with pytest.raises(ValueError, match="at least 7 distinct BPM values, got 5"):
        make_split(records, "tempo", SEED)


def test_split_tempo_seven_bpm_values_hold_out_one_band_each_side():
    records = [{"id": f"t{bpm}_{k}", "bpm": bpm} for bpm in range(100, 107) for k in range(3)]
    split = make_split(records, "tempo", SEED)
    assert {r["bpm"] for r, s in zip(records, split) if s != "train"} == {100, 106}
    assert Counter(split.tolist()) == {"train": 15, "validation": 3, "test": 3}


# sha256 prefixes of each full concept's split names at seed 11, joined by
# newlines in manifest order: the assignment every earlier result was probed on
SPLIT_PINS = {
    "tempo": "53aeb65dd1ef8463",
    "time_signatures": "55b38ffa402b47fe",
    "notes": "e0414ebfd71c8ffd",
    "intervals": "66acf0b2ff4794c0",
    "scales": "b68141afbe672501",
    "chords": "e4949ed2dc0b3594",
    "progressions": "356c1b574f281727",
}


@pytest.mark.parametrize("concept", CONCEPTS)
def test_split_pinned_at_seed_11(concept):
    split = make_split(build_records(concept, 11), concept, 11)
    assert hashlib.sha256("\n".join(split).encode()).hexdigest().startswith(SPLIT_PINS[concept])


def test_split_xy_keeps_record_order_per_split():
    split = np.array(["test", "train", "validation", "train", "test", "train"])
    x = np.arange(12).reshape(6, 2)
    y = np.arange(6) * 10
    (x_tr, y_tr), (x_va, y_va), (x_te, y_te) = split_xy(x, y, split)
    assert y_tr.tolist() == [10, 30, 50] and y_va.tolist() == [20] and y_te.tolist() == [0, 40]
    assert np.array_equal(x_tr, x[[1, 3, 5]]) and np.array_equal(x_te, x[[0, 4]])


def test_subsample_stratified_ceil(all_records):
    for concept in ("chords", "notes"):
        records = all_records[concept]
        sub = build_records(concept, SEED, 0.1)
        full_counts = Counter(r[LABEL_FIELDS[concept]] for r in records)
        sub_counts = Counter(r[LABEL_FIELDS[concept]] for r in sub)
        for value, n in full_counts.items():
            assert sub_counts[value] == math.ceil(0.1 * n)


def test_subsample_deterministic_and_sorted(all_records):
    a = build_records("scales", SEED, 0.05)
    b = build_records("scales", SEED, 0.05)
    assert a == b
    assert [r["id"] for r in a] == sorted(r["id"] for r in a)
    assert all(r in all_records["scales"] for r in a)
    with pytest.raises(ValueError):
        build_records("scales", SEED, 0.0)


def _reference_subsample(records, concept, fraction, seed):
    """The record-level stratified subsample that generate ran over the
    whole concept before it picked the kept ids first."""
    if fraction == 1.0:
        return list(records)
    field = LABEL_FIELDS[concept]
    by_class = {}
    for r in records:
        by_class.setdefault(r[field], []).append(r)
    kept = []
    for value in sorted(by_class):
        group = sorted(by_class[value], key=lambda r: r["id"])
        take = math.ceil(fraction * len(group))
        rng = np.random.default_rng(derive_seed(seed, "subsample", concept, value))
        kept.extend(group[i] for i in rng.permutation(len(group))[:take])
    kept.sort(key=lambda r: r["id"])
    return kept


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("concept", CONCEPTS)
def test_subsample_first_manifest_matches_whole_concept_subsample(tmp_path, concept, seed):
    """Picking the kept ids before building any record writes the manifest
    that building every record and then subsampling wrote."""
    records = build_records(concept, seed)
    for fraction in (0.0009, 0.0015, 0.04, 0.1, 1.0):
        generate_concept(concept, tmp_path, seed, subsample=fraction, manifest_only=True)
        expected = tmp_path / "expected.jsonl"
        write_manifest(_reference_subsample(records, concept, fraction, seed), expected)
        assert (tmp_path / concept / "manifest.jsonl").read_bytes() == expected.read_bytes(), fraction


def test_generate_concept_writes_layout(tmp_path):
    records = generate_concept("scales", tmp_path, SEED, subsample=0.01, workers=1)
    concept_dir = tmp_path / "scales"
    manifest = read_manifest(concept_dir / "manifest.jsonl")
    assert manifest == records
    assert not (concept_dir / "splits").exists()
    for r in records[:3]:
        wav_bytes = (concept_dir / r["wav_path"]).read_bytes()
        clip, rate = synth.read_wav(wav_bytes)
        assert rate == synth.SAMPLE_RATE and len(clip) == synth.CLIP_SAMPLES
        seq = smf.decode_smf((concept_dir / r["midi_path"]).read_bytes())
        assert seq == build_midi(r)


@pytest.mark.parametrize("concept", ["chords", "tempo"])
def test_generate_builds_each_records_midi_once(tmp_path, monkeypatch, concept):
    built = []
    real_build = datasets.build_midi

    def build_midi(record):
        built.append(record["id"])
        return real_build(record)

    monkeypatch.setattr(datasets, "build_midi", build_midi)
    records = generate_concept(concept, tmp_path, SEED, subsample=0.002, workers=1)
    assert built == [r["id"] for r in records]


@pytest.mark.parametrize("failing", ["render", "write"])
def test_generate_leaves_no_partial_file(tmp_path, monkeypatch, failing):
    """A render that raises, or a WAV write cut off halfway, stops generate
    without a temporary file or a short WAV left on disk."""
    calls = []
    if failing == "render":
        real_render = datasets.render_sample

        def render_sample(record, *args):
            calls.append(record["id"])
            if len(calls) == 3:
                raise RuntimeError("render failed")
            return real_render(record, *args)

        monkeypatch.setattr(datasets, "render_sample", render_sample)
    else:
        real_open = io.open

        class CutOff:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(memoryview(data)[: len(data) // 2])
                raise OSError(28, "No space left on device")

        def cutting_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if "w" in mode and ".wav" in Path(file).name:
                calls.append(Path(file).name)
                if len(calls) == 3:
                    return CutOff(fh)
            return fh

        # every way of opening a file for writing: Path.write_bytes, open() and io.open()
        monkeypatch.setattr(io, "open", cutting_open)
        monkeypatch.setattr(builtins, "open", cutting_open)
    with pytest.raises((RuntimeError, OSError)):
        generate_concept("chords", tmp_path, SEED, subsample=0.002, workers=1)
    concept_dir = tmp_path / "chords"
    assert [p.name for p in concept_dir.rglob("*") if ".tmp" in p.name] == []
    wavs = sorted((concept_dir / "audio").iterdir())
    assert len(wavs) == 2
    assert {w.stat().st_size for w in wavs} == {44 + 2 * synth.CLIP_SAMPLES}
    assert read_manifest(concept_dir / "manifest.jsonl") == build_records("chords", SEED, 0.002)


def test_generate_manifest_only_writes_no_audio(tmp_path):
    generate_concept("notes", tmp_path, SEED, manifest_only=True)
    assert (tmp_path / "notes" / "manifest.jsonl").exists()
    assert not (tmp_path / "notes" / "audio").exists()


def test_read_manifest_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_manifest(tmp_path / "nope" / "manifest.jsonl")
