"""Output checks for the benchmark's workloads.

Each check either recomputes a value apart from earbench (file formats are
parsed here, the mel front end is rebuilt from numpy.fft) or tests a
property the method must have (protocol rules, paper cardinalities). None
imports earbench. Every check raises CheckFailed with the offending file or
id on the first violation.
"""

from __future__ import annotations

import csv
import math
import struct
import wave
from pathlib import Path

import numpy as np


class CheckFailed(AssertionError):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# manifests: the paper's cardinalities, per class

# concept -> (label field, number of classes, samples per class); the class
# sizes multiply out to the published corpus sizes
CLASS_SIZES = {
    "chords": ("quality", 4, 3312),  # 13,248
    "progressions": ("progression_index", 19, 1104),  # 20,976
    "time_signatures": ("time_signature", 8, 150),  # 1,200
    "tempo": ("bpm", 161, 25),  # 4,025
}


def expected_rows(concept: str, fraction: float) -> int:
    _, n_classes, size = CLASS_SIZES[concept]
    return n_classes * math.ceil(fraction * size)


def check_manifest(records: list[dict], concept: str, fraction: float):
    field, n_classes, size = CLASS_SIZES[concept]
    want = expected_rows(concept, fraction)
    require(len(records) == want, f"{concept}: manifest has {len(records)} rows, expected {want}")
    per_class: dict = {}
    for r in records:
        per_class[r[field]] = per_class.get(r[field], 0) + 1
    take = math.ceil(fraction * size)
    require(
        len(per_class) == n_classes and set(per_class.values()) == {take},
        f"{concept}: class counts {sorted(per_class.values())} are not {n_classes} x {take}",
    )
    ids = [r["id"] for r in records]
    require(len(set(ids)) == len(ids), f"{concept}: duplicate manifest ids")


# ---------------------------------------------------------------------------
# audio

SAMPLE_RATE = 22050
CLIP_SAMPLES = 88200
WAV_BYTES = 44 + 2 * CLIP_SAMPLES


def read_clip(path) -> np.ndarray:
    """Samples in [-1, 1] through the stdlib wave module, format checked."""
    path = Path(path)
    size = path.stat().st_size
    require(size == WAV_BYTES, f"{path.name}: {size} bytes, expected {WAV_BYTES}")
    try:
        with wave.open(str(path), "rb") as w:
            params = w.getparams()
            frames = w.readframes(params.nframes)
    except (wave.Error, EOFError, struct.error) as exc:
        raise CheckFailed(f"{path.name}: unreadable WAV: {exc}") from exc
    require(
        (params.nchannels, params.sampwidth, params.framerate, params.nframes) == (1, 2, SAMPLE_RATE, CLIP_SAMPLES),
        f"{path.name}: {params.nchannels} ch, {8 * params.sampwidth} bit, {params.framerate} Hz, "
        f"{params.nframes} frames; expected mono PCM16 at {SAMPLE_RATE} Hz, {CLIP_SAMPLES} frames",
    )
    return np.frombuffer(frames, dtype="<i2").astype(np.float64) / 32767.0


def check_wav(path, audible: bool = True):
    clip = read_clip(path)
    if audible:
        require(np.max(np.abs(clip)) > 1e-3, f"{Path(path).name}: silent clip")


# ---------------------------------------------------------------------------
# chords: MIDI pitch classes against a triad table

TRIADS = {
    "major": (0, 4, 7),
    "minor": (0, 3, 7),
    "diminished": (0, 3, 6),
    "augmented": (0, 4, 8),
}


def triad_pitch_classes(record: dict) -> set[int]:
    return {(record["root_pitch_class"] + step) % 12 for step in TRIADS[record["quality"]]}


def _vlq(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    while True:
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos


def midi_note_ons(data: bytes) -> list[int]:
    """Note numbers of every note-on with velocity > 0 in an SMF."""
    require(data[:4] == b"MThd", "not a Standard MIDI File")
    (header_len,) = struct.unpack(">I", data[4:8])
    pos = 8 + header_len
    notes = []
    while pos + 8 <= len(data):
        chunk, length = data[pos : pos + 4], struct.unpack(">I", data[pos + 4 : pos + 8])[0]
        pos += 8
        end = pos + length
        require(end <= len(data), f"truncated {chunk!r} chunk")
        status = None
        while chunk == b"MTrk" and pos < end:
            _, pos = _vlq(data, pos)
            if data[pos] & 0x80:
                status = data[pos]
                pos += 1
            if status == 0xFF:
                pos += 1
                length, pos = _vlq(data, pos)
                pos += length
            elif status in (0xF0, 0xF7):
                length, pos = _vlq(data, pos)
                pos += length
            elif status >> 4 in (0xC, 0xD):
                pos += 1
            else:
                if status >> 4 == 0x9 and data[pos + 1] > 0:
                    notes.append(data[pos])
                pos += 2
        pos = end
    return notes


def check_chord_midi(path, record: dict):
    notes = midi_note_ons(Path(path).read_bytes())
    got = {n % 12 for n in notes}
    want = triad_pitch_classes(record)
    require(notes and got == want, f"{record['id']}: MIDI pitch classes {sorted(got)}, triad is {sorted(want)}")


# ---------------------------------------------------------------------------
# embeddings

FEATURE_WIDTHS = {"mel": 128, "mfcc": 20, "chroma": 12, "aggregate": 160}  # per pooled block
CHROMA_COLUMNS = {"chroma": slice(0, 12), "aggregate": slice(128, 140)}  # inside each block


def read_synemb(path) -> tuple[list[str], np.ndarray]:
    """SYNEMB1 parsed from its documented layout."""
    data = Path(path).read_bytes()
    require(data[:7] == b"SYNEMB1", f"{path}: bad magic")
    dim, count = struct.unpack_from("<II", data, 7)
    pos = 15
    ids = []
    for _ in range(count):
        require(pos + 4 <= len(data), f"{path}: truncated id table")
        (n,) = struct.unpack_from("<I", data, pos)
        ids.append(data[pos + 4 : pos + 4 + n].decode("utf-8"))
        pos += 4 + n
    require(len(data) - pos == 4 * dim * count, f"{path}: payload is {len(data) - pos} bytes, expected {4 * dim * count}")
    return ids, np.frombuffer(data, dtype="<f4", offset=pos).reshape(count, dim)


def check_embedding(ids: list[str], matrix: np.ndarray, manifest_ids: list[str], kind: str) -> dict[str, np.ndarray]:
    """One finite row per manifest id, documented width, valid pooled blocks.

    Returns id -> row.
    """
    width = FEATURE_WIDTHS[kind]
    require(matrix.shape == (len(manifest_ids), 6 * width), f"{kind}: matrix {matrix.shape}, expected ({len(manifest_ids)}, {6 * width})")
    require(sorted(ids) == sorted(manifest_ids), f"{kind}: embedding ids do not match the manifest 1:1")
    bad = ~np.isfinite(matrix).all(axis=1)
    require(not bad.any(), f"{kind}: non-finite row for {[ids[i] for i in np.flatnonzero(bad)[:5]]}")
    blocks = matrix.reshape(len(ids), 6, width)
    negative = (blocks[:, 1::2] < 0).any(axis=(1, 2))
    require(not negative.any(), f"{kind}: negative std for {[ids[i] for i in np.flatnonzero(negative)[:5]]}")
    if kind in CHROMA_COLUMNS:
        mean_chroma = blocks[:, 0, CHROMA_COLUMNS[kind]]
        outside = ((mean_chroma < 0) | (mean_chroma > 1)).any(axis=1)
        require(not outside.any(), f"{kind}: mean chroma outside [0, 1] for {[ids[i] for i in np.flatnonzero(outside)[:5]]}")
    return dict(zip(ids, matrix))


def check_chroma_triads(rows: dict[str, np.ndarray], records: list[dict]):
    """The three strongest mean-chroma bins of each chord are its triad."""
    for r in records:
        top3 = set(np.argsort(rows[r["id"]][:12])[-3:].tolist())
        want = triad_pitch_classes(r)
        require(top3 == want, f"{r['id']}: top-3 chroma bins {sorted(top3)}, triad is {sorted(want)}")


# mel front end rebuilt from its definition: 2048-sample periodic Hann
# frames at hop 512, numpy.fft.rfft power, 128 area-normalized triangles on
# the Slaney mel scale (linear to 1 kHz, then 27 steps per factor 6.4)
WINDOW, HOP, N_MELS = 2048, 512, 128
MEL_TOLERANCE = 1e-6  # relative, on the 128-bin mean block stored as float32


def _hz_to_mel(f):
    return np.where(f < 1000.0, 3.0 * f / 200.0, 15.0 + 27.0 * np.log(np.maximum(f, 1000.0) / 1000.0) / np.log(6.4))


def _mel_to_hz(m):
    return np.where(m < 15.0, 200.0 * m / 3.0, 1000.0 * np.exp((np.maximum(m, 15.0) - 15.0) * np.log(6.4) / 27.0))


def mel_filters() -> np.ndarray:
    freqs = np.arange(WINDOW // 2 + 1) * SAMPLE_RATE / WINDOW
    edges = _mel_to_hz(np.linspace(0.0, float(_hz_to_mel(SAMPLE_RATE / 2)), N_MELS + 2))
    lo, center, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (freqs - lo) / (center - lo)
    falling = (hi - freqs) / (hi - center)
    return np.maximum(0.0, np.minimum(rising, falling)) * 2.0 / (hi - lo)


def mean_log_mel(clip: np.ndarray) -> np.ndarray:
    n_frames = 1 + (len(clip) - WINDOW) // HOP
    frames = clip[np.arange(n_frames)[:, None] * HOP + np.arange(WINDOW)]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW) / WINDOW)
    power = np.abs(np.fft.rfft(frames * window, axis=1)) ** 2
    return np.log1p(power @ mel_filters().T).mean(axis=0)


def check_mel_mean(clip: np.ndarray, row: np.ndarray, sample_id: str):
    want = mean_log_mel(clip)
    err = float(np.max(np.abs(row[:N_MELS] - want)) / np.max(np.abs(want)))
    require(err <= MEL_TOLERANCE, f"{sample_id}: mean log-mel differs from the recomputation by {err:.2e} relative")


# ---------------------------------------------------------------------------
# probe result CSVs and the report

MAX_EPOCHS, PATIENCE = 200, 10
LM_DEFAULT = {"normalize": "True", "model": "mlp", "batch_size": "64", "learning_rate": "0.001", "dropout": "0.5", "weight_decay": "0"}


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_early_stopping(rows: list[dict]):
    """best_epoch < epochs_run <= 200; a run that stopped early ran patience epochs past its best."""
    for i, row in enumerate(rows):
        best, ran = int(row["best_epoch"]), int(row["epochs_run"])
        require(0 <= best < ran <= MAX_EPOCHS, f"row {i}: best_epoch {best}, epochs_run {ran}")
        require(ran == MAX_EPOCHS or ran == best + PATIENCE + 1, f"row {i}: stopped at {ran} epochs, best was epoch {best}")


def selected_row(rows: list[dict]) -> int:
    selected = [i for i, r in enumerate(rows) if r["test_metric"] != ""]
    require(len(selected) == 1, f"{len(selected)} rows carry a test metric, expected exactly 1")
    return selected[0]


def grid_winner(rows: list[dict]) -> int:
    """Highest validation metric; ties to the smaller model, the lower learning
    rate, then normalization on, batch, dropout and weight decay ascending."""

    def key(i):
        r = rows[i]
        return (
            -float(r["val_metric"]),
            r["model"] != "linear",
            float(r["learning_rate"]),
            r["normalize"] != "True",
            int(r["batch_size"]),
            float(r["dropout"]),
            float(r["weight_decay"]),
        )

    return min(range(len(rows)), key=key)


def check_grid_csv(rows: list[dict]):
    require(len(rows) == 216, f"grid CSV has {len(rows)} rows, expected 216")
    configs = {tuple(r[k] for k in LM_DEFAULT) for r in rows}
    require(len(configs) == 216, f"grid CSV has {len(configs)} distinct configurations, expected 216")
    chosen, winner = selected_row(rows), grid_winner(rows)
    require(chosen == winner, f"row {chosen} carries the test metric, but row {winner} wins on validation")
    check_early_stopping(rows)


def check_preset_csv(rows: list[dict], concept: str) -> float:
    """The lm-default result: one row, the preset's configuration. Returns its test metric."""
    require(len(rows) == 1, f"{concept}: {len(rows)} rows, expected 1")
    row = rows[selected_row(rows)]
    got = {k: row[k] for k in LM_DEFAULT}
    require(got == LM_DEFAULT, f"{concept}: configuration {got} is not lm-default")
    check_early_stopping(rows)
    return float(row["test_metric"])


def check_r2_positive(r2: float, concept: str):
    """A regression probe beats the constant predictor: test R^2 > 0."""
    require(r2 > 0.0, f"{concept}: test R^2 {r2:.4f} does not beat chance (0)")


def check_near_chance(accuracy: float, n_test: int, chance: float = 0.25, z: float = 5.0):
    """Accuracy on vectors that carry no signal stays within z binomial
    standard deviations of chance for a test split of n_test samples."""
    bound = z * math.sqrt(chance * (1.0 - chance) / n_test)
    require(abs(accuracy - chance) <= bound, f"accuracy {accuracy:.4f} is {abs(accuracy - chance):.4f} from chance, bound {bound:.4f} for n={n_test}")


ROW_TITLES = {"mel": "Mel Spectrogram", "mfcc": "MFCC", "chroma": "Chroma", "aggregate": "Aggregate Handcrafted"}
COLUMN_TITLES = {
    "notes": "Notes",
    "intervals": "Intervals",
    "scales": "Scales",
    "chords": "Chords",
    "progressions": "Chord Progressions",
    "tempo": "Tempos",
    "time_signatures": "Time Signatures",
}


def parse_markdown_table(text: str) -> dict[str, dict[str, str]]:
    """row title -> {column title -> cell text} of the first pipe table."""
    lines = [line for line in text.splitlines() if line.startswith("|")]
    require(len(lines) >= 2, "report has no table")
    header = [c.strip() for c in lines[0].strip("|").split("|")]
    table = {}
    for line in lines[2:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        table[cells[0]] = dict(zip(header[1:], cells[1:]))
    return table


def check_report(text: str, csv_paths):
    """Every cell and average equals the value recomputed from the CSVs."""
    cells: dict[str, dict[str, float]] = {}
    for path in csv_paths:
        for row in read_csv(path):
            if row["test_metric"]:
                cells.setdefault(row["representation"], {})[row["concept"]] = float(row["test_metric"])
    table = parse_markdown_table(text)
    present = {c for values in cells.values() for c in values}
    require(
        set(table) == {ROW_TITLES.get(rep, rep) for rep in cells},
        f"report rows {sorted(table)} do not match the CSVs' representations",
    )
    for rep, values in cells.items():
        row = table[ROW_TITLES.get(rep, rep)]
        for concept in present:
            want = f"{values[concept]:.3f}" if concept in values else "—"
            got = row.get(COLUMN_TITLES[concept])
            require(got == want, f"report cell {rep}/{concept} reads {got!r}, CSVs give {want!r}")
        want_avg = f"{sum(values.values()) / len(values):.3f}"
        got_avg = row.get("Average", "").rstrip("*")
        require(got_avg == want_avg, f"report average for {rep} reads {got_avg!r}, CSVs give {want_avg!r}")
