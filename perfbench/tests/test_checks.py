"""Each output check passes on a well-formed output and fails on one corrupted copy."""

import itertools
import math
import struct
import wave

import numpy as np
import pytest

import checks
from checks import CheckFailed
from run import write_synemb


def write_wav(path, samples):
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(checks.SAMPLE_RATE)
        w.writeframes(np.rint(np.asarray(samples) * 32767).astype("<i2").tobytes())


def tone(freq=440.0, amplitude=0.3):
    return amplitude * np.sin(2 * np.pi * freq * np.arange(checks.CLIP_SAMPLES) / checks.SAMPLE_RATE)


# --- manifests ---------------------------------------------------------------


def test_manifest_counts_follow_class_sizes():
    fraction = 0.003  # ceil(0.003 * 3312) = 10 per chord quality
    records = [{"id": f"{q}{i}", "quality": q} for q in checks.TRIADS for i in range(10)]
    checks.check_manifest(records, "chords", fraction)
    with pytest.raises(CheckFailed, match="40"):
        checks.check_manifest(records[1:], "chords", fraction)


# --- audio -------------------------------------------------------------------


def test_truncated_wav_fails(tmp_path):
    path = tmp_path / "clip.wav"
    write_wav(path, tone())
    assert path.stat().st_size == checks.WAV_BYTES
    checks.check_wav(path)
    path.write_bytes(path.read_bytes()[:-1000])
    with pytest.raises(CheckFailed, match="bytes"):
        checks.check_wav(path)


def test_silent_wav_fails_unless_silence_is_expected(tmp_path):
    path = tmp_path / "clip.wav"
    write_wav(path, np.zeros(checks.CLIP_SAMPLES))
    with pytest.raises(CheckFailed, match="silent"):
        checks.check_wav(path)
    checks.check_wav(path, audible=False)


def test_wrong_sample_rate_fails(tmp_path):
    path = tmp_path / "clip.wav"
    write_wav(path, tone())
    data = bytearray(path.read_bytes())
    data[24:28] = struct.pack("<I", 44100)
    path.write_bytes(bytes(data))
    with pytest.raises(CheckFailed, match="44100 Hz"):
        checks.check_wav(path)


# --- chords ------------------------------------------------------------------


def smf(notes):
    """Format-0 SMF: a tempo meta event, then the notes as one chord."""
    track = b"\x00\xff\x51\x03\x07\xa1\x20"
    for n in notes:
        track += b"\x00\x90" + bytes([n, 96])
    track += b"\x83\x60\x80" + bytes([notes[0], 0])  # delta 480, note-off
    for n in notes[1:]:
        track += b"\x00" + bytes([n, 0])  # running status
    track += b"\x00\xff\x2f\x00"
    return b"MThd" + struct.pack(">IHHH", 6, 0, 1, 480) + b"MTrk" + struct.pack(">I", len(track)) + track


def test_wrong_triad_fails(tmp_path):
    path = tmp_path / "chord.mid"
    record = {"id": "chord_p00_major_first", "root_pitch_class": 0, "quality": "major"}
    path.write_bytes(smf([64, 67, 72]))  # first inversion of C major
    checks.check_chord_midi(path, record)
    path.write_bytes(smf([63, 67, 72]))  # E flat: C minor
    with pytest.raises(CheckFailed, match="triad"):
        checks.check_chord_midi(path, record)


def test_top3_chroma_must_be_the_triad():
    records = [{"id": "a", "root_pitch_class": 2, "quality": "minor"}]  # D F A
    row = np.full(72, 0.1, dtype=np.float32)
    row[[2, 5, 9]] = 0.9
    checks.check_chroma_triads({"a": row}, records)
    row[6] = 1.0  # F sharp: D major
    with pytest.raises(CheckFailed, match="top-3"):
        checks.check_chroma_triads({"a": row}, records)


# --- embeddings --------------------------------------------------------------


def test_nan_row_fails(tmp_path):
    ids = [f"s{i}" for i in range(5)]
    matrix = np.random.default_rng(0).uniform(0, 1, (5, 72)).astype(np.float32)
    path = tmp_path / "x.emb"
    write_synemb(path, ids, matrix)
    got_ids, got = checks.read_synemb(path)
    assert got_ids == ids and np.array_equal(got, matrix)
    checks.check_embedding(got_ids, got, ids[::-1], "chroma")
    matrix[3, 40] = np.nan
    with pytest.raises(CheckFailed, match="non-finite row for \\['s3'\\]"):
        checks.check_embedding(ids, matrix, ids, "chroma")


def test_embedding_block_rules():
    ids = ["a", "b"]
    matrix = np.random.default_rng(1).uniform(0, 1, (2, 960)).astype(np.float32)
    checks.check_embedding(ids, matrix, ids, "aggregate")
    with pytest.raises(CheckFailed, match="expected"):
        checks.check_embedding(ids, matrix[:, :768], ids, "aggregate")
    std_block = matrix.copy()
    std_block[1, 160 + 5] = -0.5
    with pytest.raises(CheckFailed, match="negative std for \\['b'\\]"):
        checks.check_embedding(ids, std_block, ids, "aggregate")
    chroma_mean = matrix.copy()
    chroma_mean[0, 130] = 1.5
    with pytest.raises(CheckFailed, match="mean chroma"):
        checks.check_embedding(ids, chroma_mean, ids, "aggregate")


def test_truncated_embedding_file_fails(tmp_path):
    path = tmp_path / "x.emb"
    write_synemb(path, ["a"], np.zeros((1, 4), np.float32))
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(CheckFailed, match="payload"):
        checks.read_synemb(path)


def test_mel_mean_recomputation():
    clip = tone(220.0) + tone(3000.0, 0.1)
    row = np.zeros(768, np.float32)
    row[:128] = checks.mean_log_mel(clip)
    checks.check_mel_mean(clip, row, "x")
    row[np.argmax(row)] *= 1.0001  # 1e-4 relative, a hundred times the tolerance
    with pytest.raises(CheckFailed, match="relative"):
        checks.check_mel_mean(clip, row, "x")


def test_mel_filters_cover_the_spectrum():
    fb = checks.mel_filters()
    assert fb.shape == (128, 1025)
    assert (fb >= 0).all()
    assert np.count_nonzero(fb.sum(axis=0)) > 1000


# --- probe results -----------------------------------------------------------


def grid_rows(seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for norm, model, batch, lr, drop, wd in itertools.product(
        ["True", "False"], ["linear", "mlp"], ["64", "256"], ["1e-05", "0.0001", "0.001"],
        ["0.25", "0.5", "0.75"], ["0", "0.0001", "0.001"],
    ):  # fmt: skip
        best = int(rng.integers(0, 50))
        rows.append({
            "normalize": norm, "model": model, "batch_size": batch, "learning_rate": lr,
            "dropout": drop, "weight_decay": wd, "best_epoch": str(best),
            "epochs_run": str(best + 11), "val_metric": f"{rng.integers(0, 5) / 4:.6f}", "test_metric": "",
        })  # fmt: skip
    rows[checks.grid_winner(rows)]["test_metric"] = "0.500000"
    return rows


def test_grid_winner_tie_break():
    rows = grid_rows()
    for r in rows:
        r["val_metric"] = "0.750000"
    winner = rows[checks.grid_winner(rows)]
    # smaller model, lower learning rate, normalization on, then the rest ascending
    assert (winner["model"], winner["learning_rate"], winner["normalize"]) == ("linear", "1e-05", "True")
    assert (winner["batch_size"], winner["dropout"], winner["weight_decay"]) == ("64", "0.25", "0")


def test_swapped_selected_row_fails():
    rows = grid_rows()
    checks.check_grid_csv(rows)
    winner = checks.grid_winner(rows)
    other = (winner + 1) % len(rows)
    rows[winner]["test_metric"], rows[other]["test_metric"] = "", rows[winner]["test_metric"]
    with pytest.raises(CheckFailed, match=f"row {other} carries the test metric"):
        checks.check_grid_csv(rows)


def test_grid_needs_all_216_rows():
    rows = grid_rows()
    with pytest.raises(CheckFailed, match="215 rows"):
        checks.check_grid_csv([r for r in rows if r["test_metric"] == ""])


def test_patience_rule_violation_fails():
    rows = grid_rows()
    checks.check_grid_csv(rows)
    rows[7]["epochs_run"] = str(int(rows[7]["best_epoch"]) + 5)
    with pytest.raises(CheckFailed, match="row 7: stopped at"):
        checks.check_grid_csv(rows)
    rows[7]["epochs_run"] = "200"  # ran to the epoch cap: no patience rule applies
    checks.check_grid_csv(rows)
    rows[7]["best_epoch"] = "200"
    with pytest.raises(CheckFailed, match="best_epoch 200"):
        checks.check_grid_csv(rows)


def test_preset_row_must_be_lm_default():
    row = dict(checks.LM_DEFAULT, best_epoch="3", epochs_run="14", val_metric="0.5", test_metric="0.42")
    assert checks.check_preset_csv([row], "chords") == 0.42
    with pytest.raises(CheckFailed, match="not lm-default"):
        checks.check_preset_csv([dict(row, learning_rate="0.0001")], "chords")


def test_r2_must_beat_the_constant_predictor():
    checks.check_r2_positive(0.3, "tempo")
    with pytest.raises(CheckFailed, match="does not beat chance"):
        checks.check_r2_positive(-0.01, "tempo")


def test_near_chance_binomial_bound():
    n = 1987
    bound = 5 * math.sqrt(0.25 * 0.75 / n)
    checks.check_near_chance(0.25 + 0.9 * bound, n)
    with pytest.raises(CheckFailed, match="from chance"):
        checks.check_near_chance(0.25 + 1.1 * bound, n)


# --- report ------------------------------------------------------------------


def write_result(path, concept, representation, metric):
    header = "concept,representation,best_epoch,epochs_run,val_metric,test_metric\n"
    path.write_text(header + f"{concept},{representation},1,12,0.5,{metric}\n", encoding="utf-8")
    return path


def test_report_cells_match_csvs(tmp_path):
    csvs = [
        write_result(tmp_path / "a.csv", "chords", "chroma", "0.812500"),
        write_result(tmp_path / "b.csv", "tempo", "chroma", "0.500000"),
        write_result(tmp_path / "c.csv", "tempo", "mfcc", "0.751234"),
    ]
    table = (
        "| Representation | Chords | Tempos | Average |\n|---|---|---|---|\n"
        "| MFCC | — | 0.751 | 0.751* |\n| Chroma | 0.812 | 0.500 | 0.656* |\n"
    )
    checks.check_report(table, csvs)
    with pytest.raises(CheckFailed, match="chroma/tempo"):
        checks.check_report(table.replace("| 0.500 |", "| 0.501 |"), csvs)
    with pytest.raises(CheckFailed, match="average for mfcc"):
        checks.check_report(table.replace("0.751* |", "0.752* |"), csvs)
