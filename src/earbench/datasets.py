"""The seven concept datasets: record construction, rendering, splits.

Each generator enumerates its full combinatorial grid in a fixed order, so a
manifest is a pure function of the global seed. Rendering one sample depends
only on its own record, which keeps parallel materialization deterministic.

On-disk layout per concept:
    <out>/<concept>/manifest.jsonl
    <out>/<concept>/midi/<id>.mid
    <out>/<concept>/audio/<id>.wav
    <out>/<concept>/splits/<seed>.json
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import midi as smf
from . import synth, theory
from .parallel import parallel_map
from .seeds import derive_seed

CONCEPTS = ["tempo", "time_signatures", "notes", "intervals", "scales", "chords", "progressions"]

EXPECTED_COUNTS = {
    "tempo": 4025,
    "time_signatures": 1200,
    "notes": 9936,
    "intervals": 39744,
    "scales": 15456,
    "chords": 13248,
    "progressions": 20976,
}

# probing target, also the stratification key for subsampling
LABEL_FIELDS = {
    "tempo": "bpm",
    "time_signatures": "time_signature",
    "notes": "pitch_class",
    "intervals": "half_steps",
    "scales": "mode",
    "chords": "quality",
    "progressions": "progression_index",
}

CONCEPT_TASKS = {c: ("regression" if c == "tempo" else "classification") for c in CONCEPTS}

RHYTHMIC_CONCEPTS = {"tempo", "time_signatures"}

QUARTER_TICKS = smf.PPQ
GATE_TICKS = 456  # quarter-note gate; the 24-tick gap articulates repeated notes
CLICK_GATE_TICKS = 30

CLICK_DOWNBEAT_VELOCITY = 110
CLICK_UPBEAT_VELOCITY = 80

# GM percussion notes used in the symbolic record of each click setting
CLICK_MIDI_NOTES = {
    0: (76, 77),  # woodblock light: high/low woodblock
    1: (77, 76),  # woodblock dark
    2: (41, 43),  # taiko: floor toms
    3: (45, 50),  # synth drum: toms
    4: (35, 42),  # drum kit: kick / closed hat
}

NOTES_OCTAVES = list(range(-1, 8))  # MIDI 0..107, the lowest contiguous 9-octave block


def sample_seed(seed: int, concept: str, sample_id: str) -> int:
    return derive_seed(seed, "sample", concept, sample_id)


def _finish(record: dict) -> dict:
    record["midi_path"] = f"midi/{record['id']}.mid"
    record["wav_path"] = f"audio/{record['id']}.wav"
    return record


def build_records(concept: str, seed: int) -> list[dict]:
    """All manifest records for one concept, sorted by id."""
    builder = {
        "tempo": _tempo_records,
        "time_signatures": _time_signature_records,
        "notes": _note_records,
        "intervals": _interval_records,
        "scales": _scale_records,
        "chords": _chord_records,
        "progressions": _progression_records,
    }[concept]
    records = builder(seed)
    records.sort(key=lambda r: r["id"])
    return records


def _tempo_records(seed):
    records = []
    for click in range(len(synth.CLICK_SETTINGS)):
        for bpm in theory.TEMPO_RANGE_BPM:
            for offset_index in range(5):
                sid = f"tempo_b{bpm:03d}_c{click}_o{offset_index}"
                rng_seed = sample_seed(seed, "tempo", sid)
                bar_s = 4 * 60.0 / bpm
                offset_s = float(np.random.default_rng(rng_seed).uniform(0.0, bar_s))
                records.append(
                    _finish(
                        {
                            "id": sid,
                            "concept": "tempo",
                            "bpm": bpm,
                            "click_id": click,
                            "offset_index": offset_index,
                            "offset_s": offset_s,
                            "reverb_level": "dry",
                            "rng_seed": rng_seed,
                        }
                    )
                )
    return records


def _time_signature_records(seed):
    records = []
    for num, den in theory.TIME_SIGNATURES:
        for reverb_index, reverb in enumerate(synth.REVERB_LEVELS):
            for click in range(len(synth.CLICK_SETTINGS)):
                for offset_index in range(10):
                    sid = f"timesig_{num:02d}-{den}_r{reverb_index}_c{click}_o{offset_index}"
                    rng_seed = sample_seed(seed, "time_signatures", sid)
                    beat_s = (4.0 / den) * 0.5  # 120 BPM
                    bar_s = num * beat_s
                    offset_s = float(np.random.default_rng(rng_seed).uniform(0.0, bar_s))
                    records.append(
                        _finish(
                            {
                                "id": sid,
                                "concept": "time_signatures",
                                "time_signature": f"{num}/{den}",
                                "numerator": num,
                                "denominator": den,
                                "click_id": click,
                                "reverb_level": reverb,
                                "offset_index": offset_index,
                                "offset_s": offset_s,
                                "rng_seed": rng_seed,
                            }
                        )
                    )
    return records


def _note_records(seed):
    records = []
    for pc in range(12):
        for octave in NOTES_OCTAVES:
            for inst in range(synth.NUM_TIMBRES):
                sid = f"note_p{pc:02d}_o{octave + 1}_i{inst:02d}"
                records.append(
                    _finish(
                        {
                            "id": sid,
                            "concept": "notes",
                            "pitch_class": pc,
                            "octave": octave,
                            "midi_note": theory.note_from(pc, octave),
                            "timbre_id": inst,
                            "reverb_level": "dry",
                            "rng_seed": sample_seed(seed, "notes", sid),
                        }
                    )
                )
    return records


def _interval_records(seed):
    records = []
    for pc in range(12):
        for half_steps in range(1, 13):
            for style in theory.PLAY_STYLES_INTERVAL:
                for inst in range(synth.NUM_TIMBRES):
                    sid = f"interval_p{pc:02d}_h{half_steps:02d}_{style}_i{inst:02d}"
                    records.append(
                        _finish(
                            {
                                "id": sid,
                                "concept": "intervals",
                                "root_pitch_class": pc,
                                "root_note": 60 + pc,
                                "half_steps": half_steps,
                                "play_style": style,
                                "timbre_id": inst,
                                "reverb_level": "dry",
                                "rng_seed": sample_seed(seed, "intervals", sid),
                            }
                        )
                    )
    return records


def _scale_records(seed):
    records = []
    for mode in theory.MODE_NAMES:
        for pc in range(12):
            for style in theory.PLAY_STYLES_SCALE:
                for inst in range(synth.NUM_TIMBRES):
                    sid = f"scale_{mode}_p{pc:02d}_{style}_i{inst:02d}"
                    records.append(
                        _finish(
                            {
                                "id": sid,
                                "concept": "scales",
                                "mode": mode,
                                "root_pitch_class": pc,
                                "root_note": 60 + pc,
                                "play_style": style,
                                "timbre_id": inst,
                                "reverb_level": "dry",
                                "rng_seed": sample_seed(seed, "scales", sid),
                            }
                        )
                    )
    return records


def _chord_records(seed):
    records = []
    for pc in range(12):
        for quality in theory.CHORD_QUALITIES:
            for inversion in theory.INVERSIONS:
                for inst in range(synth.NUM_TIMBRES):
                    sid = f"chord_p{pc:02d}_{quality}_{inversion}_i{inst:02d}"
                    records.append(
                        _finish(
                            {
                                "id": sid,
                                "concept": "chords",
                                "root_pitch_class": pc,
                                "root_note": 60 + pc,
                                "quality": quality,
                                "inversion": inversion,
                                "timbre_id": inst,
                                "reverb_level": "dry",
                                "rng_seed": sample_seed(seed, "chords", sid),
                            }
                        )
                    )
    return records


def _progression_records(seed):
    records = []
    for spec in theory.PROGRESSIONS:
        for pc in range(12):
            for inst in range(synth.NUM_TIMBRES):
                sid = f"prog_{spec.index:02d}_p{pc:02d}_i{inst:02d}"
                records.append(
                    _finish(
                        {
                            "id": sid,
                            "concept": "progressions",
                            "progression_index": spec.index,
                            "progression": spec.text,
                            "key_mode": spec.key_mode,
                            "key_root": pc,
                            "timbre_id": inst,
                            "reverb_level": "dry",
                            "rng_seed": sample_seed(seed, "progressions", sid),
                        }
                    )
                )
    return records


# ---------------------------------------------------------------------------
# symbolic and audio realization


def click_pattern(record: dict) -> list[tuple[float, bool]]:
    """(time_s, is_downbeat) beat grid for a rhythmic record."""
    if record["concept"] == "tempo":
        beat_s = 60.0 / record["bpm"]
        beats_per_bar = 4
    else:
        beat_s = (4.0 / record["denominator"]) * 0.5
        beats_per_bar = record["numerator"]
    pattern = []
    k = 0
    while True:
        t = record["offset_s"] + k * beat_s
        if t >= synth.CLIP_SECONDS:
            break
        pattern.append((t, k % beats_per_bar == 0))
        k += 1
    return pattern


def _tonal_note_groups(record: dict) -> list[tuple[int, ...]]:
    """Eight quarter-note slots of simultaneous notes for a tonal record."""
    concept = record["concept"]
    if concept == "notes":
        return [(record["midi_note"],)] * 8
    if concept == "intervals":
        figure = theory.interval_notes(record["root_note"], record["half_steps"], record["play_style"])
        reps = 8 // len(figure)
        return list(figure) * reps
    if concept == "scales":
        tones = theory.scale_notes(record["root_note"], record["mode"], record["play_style"])
        return [(n,) for n in tones]
    if concept == "chords":
        triad = theory.chord_notes(record["root_note"], record["quality"], record["inversion"])
        return [tuple(triad)] * 8
    if concept == "progressions":
        spec = theory.PROGRESSIONS[record["progression_index"]]
        chords = theory.resolve_progression(record["key_root"], spec)
        return [tuple(c) for c in chords] * 2
    raise ValueError(f"not a tonal concept: {concept}")


def build_midi(record: dict) -> smf.MidiSequence:
    """Symbolic form of one sample, rhythmic or tonal."""
    concept = record["concept"]
    if concept in RHYTHMIC_CONCEPTS:
        return _click_midi(record)
    events = [
        smf.MidiEvent(0, smf.TempoMeta(smf.tempo_to_microseconds(120))),
        smf.MidiEvent(0, smf.TimeSignatureMeta(4, 2)),
        smf.MidiEvent(0, smf.ProgramChange(smf.MELODIC_CHANNEL, record["timbre_id"])),
    ]
    at_gap = 0
    for group in _tonal_note_groups(record):
        events.append(smf.MidiEvent(at_gap, smf.NoteOn(smf.MELODIC_CHANNEL, group[0], smf.NOTE_VELOCITY)))
        for note in group[1:]:
            events.append(smf.MidiEvent(0, smf.NoteOn(smf.MELODIC_CHANNEL, note, smf.NOTE_VELOCITY)))
        events.append(smf.MidiEvent(GATE_TICKS, smf.NoteOff(smf.MELODIC_CHANNEL, group[0], 0)))
        for note in group[1:]:
            events.append(smf.MidiEvent(0, smf.NoteOff(smf.MELODIC_CHANNEL, note, 0)))
        at_gap = QUARTER_TICKS - GATE_TICKS
    events.append(smf.MidiEvent(at_gap, smf.EndOfTrack()))
    return smf.MidiSequence(smf.PPQ, events)


def _click_midi(record: dict) -> smf.MidiSequence:
    concept = record["concept"]
    bpm = record["bpm"] if concept == "tempo" else 120
    num, den = (4, 4) if concept == "tempo" else (record["numerator"], record["denominator"])
    down_note, up_note = CLICK_MIDI_NOTES[record["click_id"]]
    ticks_per_second = smf.PPQ * bpm / 60.0
    events = [
        smf.MidiEvent(0, smf.TempoMeta(smf.tempo_to_microseconds(bpm))),
        smf.MidiEvent(0, smf.TimeSignatureMeta(num, int(math.log2(den)))),
    ]
    cursor = 0
    for time_s, is_downbeat in click_pattern(record):
        tick = round(time_s * ticks_per_second)
        note = down_note if is_downbeat else up_note
        velocity = CLICK_DOWNBEAT_VELOCITY if is_downbeat else CLICK_UPBEAT_VELOCITY
        events.append(smf.MidiEvent(tick - cursor, smf.NoteOn(smf.PERCUSSION_CHANNEL, note, velocity)))
        events.append(smf.MidiEvent(CLICK_GATE_TICKS, smf.NoteOff(smf.PERCUSSION_CHANNEL, note, 0)))
        cursor = tick + CLICK_GATE_TICKS
    events.append(smf.MidiEvent(0, smf.EndOfTrack()))
    return smf.MidiSequence(smf.PPQ, events)


def render_sample(record: dict) -> np.ndarray:
    """The 4-second audio clip for one record."""
    if record["concept"] in RHYTHMIC_CONCEPTS:
        click = synth.CLICK_SETTINGS[record["click_id"]]
        clip = synth.render_clicks(click_pattern(record), click)
    else:
        clip = synth.render(build_midi(record), synth.timbre_presets()[record["timbre_id"]])
    if record.get("reverb_level", "dry") != "dry":
        clip = synth.apply_reverb(clip, record["reverb_level"])
    return clip


# ---------------------------------------------------------------------------
# splits and subsampling


def make_split(records: list[dict], concept: str, seed: int) -> dict[str, str]:
    """id -> train/validation/test.

    Classification concepts get a seeded shuffle and a 70/15/15 cut. Tempo
    trains on the middle 70% of BPM values; samples from the bottom and top
    15% BPM bands are shuffled together and split in half, validation taking
    the extra sample when the extreme band is odd.
    """
    rng = np.random.default_rng(derive_seed(seed, "split", concept))
    ids = [r["id"] for r in records]
    if concept == "tempo":
        bpms = sorted({r["bpm"] for r in records})
        band = int(0.15 * len(bpms))
        extreme_bpms = set(bpms[:band]) | set(bpms[-band:])
        extreme_ids = [r["id"] for r in records if r["bpm"] in extreme_bpms]
        extreme_set = set(extreme_ids)
        perm = rng.permutation(len(extreme_ids))
        half = (len(extreme_ids) + 1) // 2
        assignment = {i: "train" for i in ids if i not in extreme_set}
        for rank, idx in enumerate(perm):
            assignment[extreme_ids[idx]] = "validation" if rank < half else "test"
        return assignment
    perm = rng.permutation(len(ids))
    n_eval = round(0.15 * len(ids))
    n_train = len(ids) - 2 * n_eval
    assignment = {}
    for rank, idx in enumerate(perm):
        if rank < n_train:
            assignment[ids[idx]] = "train"
        elif rank < n_train + n_eval:
            assignment[ids[idx]] = "validation"
        else:
            assignment[ids[idx]] = "test"
    return assignment


def subsample_records(records: list[dict], concept: str, fraction: float, seed: int) -> list[dict]:
    """Deterministic stratified subsample: ceil(fraction * count) per class."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"subsample fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return list(records)
    field = LABEL_FIELDS[concept]
    by_class: dict = {}
    for r in records:
        by_class.setdefault(r[field], []).append(r)
    kept = []
    for value in sorted(by_class):
        group = sorted(by_class[value], key=lambda r: r["id"])
        take = math.ceil(fraction * len(group))
        rng = np.random.default_rng(derive_seed(seed, "subsample", concept, value))
        picks = rng.permutation(len(group))[:take]
        kept.extend(group[i] for i in picks)
    kept.sort(key=lambda r: r["id"])
    return kept


# ---------------------------------------------------------------------------
# materialization


def _write_one(args):
    concept_dir, record = args
    concept_dir = Path(concept_dir)
    seq = build_midi(record)
    (concept_dir / record["midi_path"]).write_bytes(smf.encode_smf(seq))
    clip = render_sample(record)
    (concept_dir / record["wav_path"]).write_bytes(synth.write_wav(clip))
    return record["id"]


def write_manifest(records: list[dict], path: Path):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def read_manifest(path) -> list[dict]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"manifest not found: {path}")
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def generate_concept(
    concept: str,
    out_root,
    seed: int,
    subsample: float = 1.0,
    manifest_only: bool = False,
    workers: int = 1,
) -> list[dict]:
    """Build records, write the manifest/split files, and render unless manifest_only."""
    records = build_records(concept, seed)
    records = subsample_records(records, concept, subsample, seed)
    concept_dir = Path(out_root) / concept
    concept_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(records, concept_dir / "manifest.jsonl")
    (concept_dir / "splits").mkdir(exist_ok=True)
    split = make_split(records, concept, seed)
    with open(concept_dir / "splits" / f"{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(split, fh, indent=0, sort_keys=True)
    if manifest_only:
        return records
    (concept_dir / "midi").mkdir(exist_ok=True)
    (concept_dir / "audio").mkdir(exist_ok=True)
    parallel_map(_write_one, [(str(concept_dir), r) for r in records], workers)
    return records
