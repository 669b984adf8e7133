"""The seven concept datasets: record construction, rendering, splits.

One table entry per concept crosses its axes in a fixed order, so a
manifest is a pure function of the global seed. Rendering one sample depends
only on its own record, which keeps parallel materialization deterministic.

On-disk layout per concept:
    <out>/<concept>/manifest.jsonl
    <out>/<concept>/midi/<id>.mid
    <out>/<concept>/audio/<id>.wav

Each file is written under a temporary name and renamed into place, so an
interrupted run leaves no half-written file for a later stage to accept.

No split file is written: `make_split(manifest, concept, seed)` is the one
source of the train/validation/test assignment, and probe derives it from the
manifest and its own --seed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
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


def _offset_s(rng_seed: int, high: float) -> float:
    return float(np.random.default_rng(rng_seed).uniform(0.0, high))


# Per concept: the axes crossed in enumeration order; per axis, the piece of
# the sample id that a value spells (an id joins one piece per axis, so each
# piece is formatted once per value, not once per point); the label of a point
# (its LABEL_FIELDS value); and the concept's own fields for (rng_seed, *point)
# in manifest key order.
_RECORD_TABLE = {
    "tempo": (
        (theory.TEMPO_RANGE_BPM, range(len(synth.CLICK_SETTINGS)), range(5)),
        (lambda bpm: f"tempo_b{bpm:03d}", lambda click: f"_c{click}", lambda o: f"_o{o}"),
        lambda bpm, click, o: bpm,
        lambda rng_seed, bpm, click, o: {
            "bpm": bpm, "click_id": click, "offset_index": o,
            # within one bar, and early enough that a second click still lands
            "offset_s": _offset_s(rng_seed, min(4 * 60.0 / bpm, synth.CLIP_SECONDS - 60.0 / bpm)),
            "reverb_level": "dry",
        },
    ),
    "time_signatures": (
        (theory.TIME_SIGNATURES, tuple(enumerate(synth.REVERB_LEVELS)),
         range(len(synth.CLICK_SETTINGS)), range(10)),
        (lambda sig: f"timesig_{sig[0]:02d}-{sig[1]}", lambda rev: f"_r{rev[0]}",
         lambda click: f"_c{click}", lambda o: f"_o{o}"),
        lambda sig, rev, click, o: f"{sig[0]}/{sig[1]}",
        lambda rng_seed, sig, rev, click, o: {
            "time_signature": f"{sig[0]}/{sig[1]}", "numerator": sig[0], "denominator": sig[1],
            "click_id": click, "reverb_level": rev[1], "offset_index": o,
            "offset_s": _offset_s(rng_seed, sig[0] * (4.0 / sig[1]) * 0.5),  # one bar at 120 BPM
        },
    ),
    "notes": (
        (range(12), NOTES_OCTAVES, range(synth.NUM_TIMBRES)),
        (lambda pc: f"note_p{pc:02d}", lambda octave: f"_o{octave + 1}", lambda inst: f"_i{inst:02d}"),
        lambda pc, octave, inst: pc,
        lambda rng_seed, pc, octave, inst: {
            "pitch_class": pc, "octave": octave, "midi_note": theory.note_from(pc, octave),
            "timbre_id": inst, "reverb_level": "dry",
        },
    ),
    "intervals": (
        (range(12), range(1, 13), theory.PLAY_STYLES_INTERVAL, range(synth.NUM_TIMBRES)),
        (lambda pc: f"interval_p{pc:02d}", lambda half_steps: f"_h{half_steps:02d}",
         lambda style: f"_{style}", lambda inst: f"_i{inst:02d}"),
        lambda pc, half_steps, style, inst: half_steps,
        lambda rng_seed, pc, half_steps, style, inst: {
            "root_pitch_class": pc, "root_note": 60 + pc, "half_steps": half_steps,
            "play_style": style, "timbre_id": inst, "reverb_level": "dry",
        },
    ),
    "scales": (
        (theory.MODE_NAMES, range(12), theory.PLAY_STYLES_SCALE, range(synth.NUM_TIMBRES)),
        (lambda mode: f"scale_{mode}", lambda pc: f"_p{pc:02d}", lambda style: f"_{style}",
         lambda inst: f"_i{inst:02d}"),
        lambda mode, pc, style, inst: mode,
        lambda rng_seed, mode, pc, style, inst: {
            "mode": mode, "root_pitch_class": pc, "root_note": 60 + pc,
            "play_style": style, "timbre_id": inst, "reverb_level": "dry",
        },
    ),
    "chords": (
        (range(12), theory.CHORD_QUALITIES, theory.INVERSIONS, range(synth.NUM_TIMBRES)),
        (lambda pc: f"chord_p{pc:02d}", lambda quality: f"_{quality}", lambda inversion: f"_{inversion}",
         lambda inst: f"_i{inst:02d}"),
        lambda pc, quality, inversion, inst: quality,
        lambda rng_seed, pc, quality, inversion, inst: {
            "root_pitch_class": pc, "root_note": 60 + pc, "quality": quality,
            "inversion": inversion, "timbre_id": inst, "reverb_level": "dry",
        },
    ),
    "progressions": (
        (theory.PROGRESSIONS, range(12), range(synth.NUM_TIMBRES)),
        (lambda spec: f"prog_{spec.index:02d}", lambda pc: f"_p{pc:02d}", lambda inst: f"_i{inst:02d}"),
        lambda spec, pc, inst: spec.index,
        lambda rng_seed, spec, pc, inst: {
            "progression_index": spec.index, "progression": spec.text, "key_mode": spec.key_mode,
            "key_root": pc, "timbre_id": inst, "reverb_level": "dry",
        },
    ),
}


def build_records(concept: str, seed: int, fraction: float = 1.0) -> list[dict]:
    """Manifest records for one concept, sorted by id: all of them, or the
    stratified subsample that `subsample_ids` keeps at `fraction`.

    Only the kept points get a derived seed and their fields, so the cost
    grows with the records kept, not with the concept's size.
    """
    axes, id_pieces, label, fields = _RECORD_TABLE[concept]
    pieces = [[piece(value) for value in axis] for piece, axis in zip(id_pieces, axes)]
    points = dict(zip(map("".join, itertools.product(*pieces)), itertools.product(*axes)))
    kept = subsample_ids([(sid, label(*point)) for sid, point in points.items()], concept, fraction, seed)
    records = []
    for sid in kept:
        rng_seed = derive_seed(seed, "sample", concept, sid)
        records.append(
            {
                "id": sid,
                "concept": concept,
                **fields(rng_seed, *points[sid]),
                "rng_seed": rng_seed,
                "midi_path": f"midi/{sid}.mid",
                "wav_path": f"audio/{sid}.wav",
            }
        )
    return records


# ---------------------------------------------------------------------------
# symbolic and audio realization
#
# Every record is written by one rule: its meter (`_meter`), then the note-on
# and note-off of each (tick, notes, velocity) hit, then the end of the track.
# A tonal record repeats its figure over eight 480-tick slots, each held for
# GATE_TICKS; its track ends with the eighth slot. A rhythmic record strikes a
# click at each exact time of its click pattern (the audio plays that time;
# the MIDI file rounds it to the nearest tick and holds it CLICK_GATE_TICKS);
# its track ends with the last note-off.


def _meter(record: dict) -> tuple[int, int, int]:
    """(bpm, beats per bar, beat unit): tempo clips are 4/4 at their own BPM,
    time-signature clips are their meter at 120 BPM, tonal clips 4/4 at 120."""
    if record["concept"] == "tempo":
        return record["bpm"], 4, 4
    if record["concept"] == "time_signatures":
        return 120, record["numerator"], record["denominator"]
    return 120, 4, 4


def click_pattern(record: dict) -> list[tuple[float, bool]]:
    """(time_s, is_downbeat) beat grid for a rhythmic record: a click on
    every beat of its meter from its offset, a downbeat on each bar's first."""
    bpm, beats_per_bar, beat_unit = _meter(record)
    beat_s = 60.0 / bpm * (4.0 / beat_unit)
    pattern = []
    k = 0
    while True:
        t = record["offset_s"] + k * beat_s
        if t >= synth.CLIP_SECONDS:
            break
        pattern.append((t, k % beats_per_bar == 0))
        k += 1
    return pattern


# Per tonal concept: the figure its eight slots repeat, as groups of notes
# struck together
_TONAL_FIGURES = {
    "notes": lambda r: [(r["midi_note"],)],
    "intervals": lambda r: theory.interval_notes(r["root_note"], r["half_steps"], r["play_style"]),
    "scales": lambda r: [(n,) for n in theory.scale_notes(r["root_note"], r["mode"], r["play_style"])],
    "chords": lambda r: [theory.chord_notes(r["root_note"], r["quality"], r["inversion"])],
    "progressions": lambda r: theory.resolve_progression(r["key_root"], theory.PROGRESSIONS[r["progression_index"]]),
}


def build_midi(record: dict) -> smf.MidiSequence:
    """Symbolic form of one sample, rhythmic or tonal."""
    bpm, beats_per_bar, beat_unit = _meter(record)
    timed = [  # (absolute tick, event)
        (0, smf.TempoMeta(smf.tempo_to_microseconds(bpm))),
        (0, smf.TimeSignatureMeta(beats_per_bar, int(math.log2(beat_unit)))),
    ]
    if record["concept"] in RHYTHMIC_CONCEPTS:
        channel, gate = smf.PERCUSSION_CHANNEL, CLICK_GATE_TICKS
        down_note, up_note = CLICK_MIDI_NOTES[record["click_id"]]
        ticks_per_second = smf.PPQ * bpm / 60.0
        hits = [
            (round(time_s * ticks_per_second), (down_note if down else up_note,),
             CLICK_DOWNBEAT_VELOCITY if down else CLICK_UPBEAT_VELOCITY)
            for time_s, down in click_pattern(record)
        ]
        end = hits[-1][0] + gate
    else:
        channel, gate = smf.MELODIC_CHANNEL, GATE_TICKS
        timed.append((0, smf.ProgramChange(channel, record["timbre_id"])))
        figure = _TONAL_FIGURES[record["concept"]](record)
        hits = [(slot * QUARTER_TICKS, figure[slot % len(figure)], smf.NOTE_VELOCITY) for slot in range(8)]
        end = hits[-1][0] + QUARTER_TICKS
    for tick, notes, velocity in hits:
        timed += [(tick, smf.NoteOn(channel, note, velocity)) for note in notes]
        timed += [(tick + gate, smf.NoteOff(channel, note, 0)) for note in notes]
    timed.append((end, smf.EndOfTrack()))
    previous = [0] + [tick for tick, _ in timed]
    return smf.MidiSequence(smf.PPQ, [smf.MidiEvent(tick - last, kind) for last, (tick, kind) in zip(previous, timed)])


def render_sample(record: dict, midi: smf.MidiSequence | None = None) -> np.ndarray:
    """The 4-second audio clip for one record.

    A tonal record renders `midi`, which must be `build_midi(record)` and is
    built here when not given; a rhythmic record renders its click pattern.
    """
    if record["concept"] in RHYTHMIC_CONCEPTS:
        click = synth.CLICK_SETTINGS[record["click_id"]]
        clip = synth.render_clicks(click_pattern(record), click)
    else:
        midi = build_midi(record) if midi is None else midi
        clip = synth.render(midi, synth.timbre_presets()[record["timbre_id"]])
    return synth.apply_reverb(clip, record["reverb_level"])


# ---------------------------------------------------------------------------
# splits and subsampling


def make_split(records: list[dict], concept: str, seed: int) -> np.ndarray:
    """Each record's split, "train", "validation" or "test", in manifest order.

    Classification concepts get a seeded shuffle and a 70/15/15 cut. Tempo
    trains on the middle 70% of BPM values; samples from the bottom and top
    15% BPM bands are shuffled together and split in half, validation taking
    the extra sample when the extreme band is odd.
    """
    rng = np.random.default_rng(derive_seed(seed, "split", concept))
    split = np.full(len(records), "train", dtype="<U10")  # wide enough for "validation"
    if concept == "tempo":
        bpms = sorted({r["bpm"] for r in records})
        band = int(0.15 * len(bpms))
        if band == 0:
            raise ValueError(f"tempo split needs at least 7 distinct BPM values, got {len(bpms)}")
        extreme_bpms = set(bpms[:band]) | set(bpms[len(bpms) - band :])
        held = np.flatnonzero([r["bpm"] in extreme_bpms for r in records])
        n_train, n_val = 0, (len(held) + 1) // 2
    else:
        held = np.arange(len(records))
        n_val = round(0.15 * len(records))
        n_train = len(records) - 2 * n_val
    order = held[rng.permutation(len(held))]
    split[order[n_train : n_train + n_val]] = "validation"
    split[order[n_train + n_val :]] = "test"
    return split


def class_labels(records: list[dict], concept: str):
    """(y, n_classes): float BPM targets and 0 for tempo; otherwise indices
    into the sorted class values, and their count."""
    field = LABEL_FIELDS[concept]
    for r in records:
        if field not in r:
            raise ValueError(f"record {r['id']!r} has no {concept} label field {field!r}")
    if concept == "tempo":
        return np.array([float(r[field]) for r in records]), 0
    classes = sorted({r[field] for r in records})
    index = {v: i for i, v in enumerate(classes)}
    return np.array([index[r[field]] for r in records]), len(classes)


def split_xy(x, y, split: np.ndarray):
    """((x, y) train, (x, y) validation, (x, y) test) from rows in manifest order.
    `split` names each row's split, as `make_split` returns it; rows keep their order."""
    return tuple((x[split == name], y[split == name]) for name in ("train", "validation", "test"))


def subsample_ids(labelled: list[tuple[str, object]], concept: str, fraction: float, seed: int) -> list[str]:
    """Deterministic stratified subsample of (id, label) pairs: the sorted ids
    of ceil(fraction * count) seeded picks per class."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"subsample fraction must be in (0, 1], got {fraction}")
    by_class: dict = {}
    for sid, value in labelled:
        by_class.setdefault(value, []).append(sid)
    kept = []
    for value in sorted(by_class):
        group = sorted(by_class[value])
        take = math.ceil(fraction * len(group))
        rng = np.random.default_rng(derive_seed(seed, "subsample", concept, value))
        picks = rng.permutation(len(group))[:take]
        kept.extend(group[i] for i in picks)
    kept.sort()
    return kept


# ---------------------------------------------------------------------------
# materialization


def write_atomic(path, *chunks):
    """Write the bytes-like `chunks`, in order, to a temporary name beside
    `path`, then rename it into place: an interrupted write leaves no
    partial file under `path`. Each chunk goes to the file as it is, so a
    large array can be passed without a bytes copy."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        # name the caller's path: the temporary one means nothing to the user
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_manifest(records: list[dict], path: Path):
    write_atomic(path, "".join(json.dumps(r) + "\n" for r in records).encode("utf-8"))


def _first_line(path, sample_id) -> int:
    """The 1-based number of the first manifest line whose record has `sample_id`."""
    with open(path, encoding="utf-8") as fh:
        return next(n for n, line in enumerate(fh, start=1) if line.strip() and json.loads(line)["id"] == sample_id)


def read_manifest(path) -> list[dict]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"manifest not found: {path}")
    records = []
    seen = set()  # not an id -> line dict: its 13k line-number ints raised probe's peak RSS by 1 MiB
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{number}: not a JSON record: {exc.msg}") from exc
            if not isinstance(record, dict) or not isinstance(record.get("id"), str):
                raise ValueError(f"{path}:{number}: not a record object with a string id")
            if record["id"] in seen:
                raise ValueError(f"{path}:{number}: id {record['id']!r} repeats line {_first_line(path, record['id'])}")
            seen.add(record["id"])
            records.append(record)
    if not records:
        raise ValueError(f"{path}: no records")
    return records


def generate_concept(
    concept: str,
    out_root,
    seed: int,
    subsample: float = 1.0,
    manifest_only: bool = False,
    workers: int = 1,
) -> list[dict]:
    """Build records, write the manifest, and render unless manifest_only."""
    records = build_records(concept, seed, subsample)
    concept_dir = Path(out_root) / concept
    concept_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(records, concept_dir / "manifest.jsonl")
    if manifest_only:
        return records
    (concept_dir / "midi").mkdir(exist_ok=True)
    (concept_dir / "audio").mkdir(exist_ok=True)
    if concept not in RHYTHMIC_CONCEPTS:
        synth.timbre_presets()  # built once here, then inherited by every forked worker

    def write_one(record):
        midi = build_midi(record)
        write_atomic(concept_dir / record["midi_path"], smf.encode_smf(midi))
        write_atomic(concept_dir / record["wav_path"], synth.write_wav(render_sample(record, midi)))

    parallel_map(write_one, records, workers)
    return records
