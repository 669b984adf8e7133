import hashlib

import numpy as np
import pytest

from earbench import midi as smf, synth, theory
from earbench.datasets import CONCEPTS, NOTES_OCTAVES, RHYTHMIC_CONCEPTS, build_midi, build_records
from earbench.midi import (
    EndOfTrack,
    MidiEvent,
    MidiParseError,
    MidiSequence,
    MidiValidationError,
    NoteOff,
    NoteOn,
    TempoMeta,
    decode_smf,
    decode_vlq,
    encode_smf,
    encode_vlq,
    tempo_to_microseconds,
)
from random_midi import make_random_sequence


def test_vlq_reference_bytes():
    assert encode_vlq(0) == bytes([0x00])
    assert encode_vlq(128) == bytes([0x81, 0x00])
    assert encode_vlq(0x7F) == bytes([0x7F])
    assert encode_vlq(0x3FFF) == bytes([0xFF, 0x7F])
    assert encode_vlq(0x0FFFFFFF) == bytes([0xFF, 0xFF, 0xFF, 0x7F])


def test_vlq_round_trip_and_minimality():
    rng = np.random.default_rng(99)
    values = [0, 1, 127, 128, 0x3FFF, 0x4000, 0x1FFFFF, 0x200000, 0x0FFFFFFF]
    values += [int(v) for v in rng.integers(0, 0x0FFFFFFF, size=500)]
    for v in values:
        data = encode_vlq(v)
        assert len(data) == max(1, -(-v.bit_length() // 7))  # minimal length
        decoded, end = decode_vlq(data, 0)
        assert decoded == v and end == len(data)


def test_vlq_out_of_range():
    with pytest.raises(MidiValidationError):
        encode_vlq(-1)
    with pytest.raises(MidiValidationError):
        encode_vlq(0x10000000)


def test_tempo_meta_bytes_for_120_bpm():
    assert tempo_to_microseconds(120) == 500_000
    seq = MidiSequence(480, [MidiEvent(0, TempoMeta(500_000)), MidiEvent(0, EndOfTrack())])
    assert bytes([0x07, 0xA1, 0x20]) in encode_smf(seq)


def test_empty_track_round_trip():
    seq = MidiSequence(480, [MidiEvent(0, EndOfTrack())])
    assert decode_smf(encode_smf(seq)) == seq


def test_header_layout():
    seq = MidiSequence(480, [MidiEvent(0, EndOfTrack())])
    data = encode_smf(seq)
    assert data[:4] == b"MThd"
    assert data[4:8] == (6).to_bytes(4, "big")
    assert data[8:10] == (0).to_bytes(2, "big")  # format 0
    assert data[10:12] == (1).to_bytes(2, "big")  # one track
    assert data[12:14] == (480).to_bytes(2, "big")


def test_truncated_header_parse_error():
    seq = MidiSequence(480, [MidiEvent(0, EndOfTrack())])
    data = encode_smf(seq)
    with pytest.raises(MidiParseError) as exc:
        decode_smf(data[:10])
    assert exc.value.offset == 10


def test_truncated_track_parse_error():
    seq = MidiSequence(
        480,
        [
            MidiEvent(0, NoteOn(0, 60, 96)),
            MidiEvent(480, NoteOff(0, 60, 0)),
            MidiEvent(0, EndOfTrack()),
        ],
    )
    data = encode_smf(seq)
    with pytest.raises(MidiParseError):
        decode_smf(data[:-3])


def test_file_ending_after_track_magic_names_offset():
    data = encode_smf(MidiSequence(480, [MidiEvent(0, EndOfTrack())]))[:18]
    with pytest.raises(MidiParseError, match="truncated track header") as exc:
        decode_smf(data)
    assert exc.value.offset == 18


def test_bad_magic():
    with pytest.raises(MidiParseError) as exc:
        decode_smf(b"RIFF" + b"\x00" * 20)
    assert exc.value.offset == 0


def test_random_sequences_round_trip():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        seq = make_random_sequence(rng)
        assert decode_smf(encode_smf(seq)) == seq


def test_large_sequence_round_trip():
    rng = np.random.default_rng(7)
    seq = make_random_sequence(rng, max_events=1000)
    assert decode_smf(encode_smf(seq)) == seq


def test_encoding_deterministic():
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    assert encode_smf(make_random_sequence(rng1)) == encode_smf(make_random_sequence(rng2))


def test_validation_rejects_unmatched_note_off():
    seq = MidiSequence(480, [MidiEvent(0, NoteOff(0, 60, 0)), MidiEvent(0, EndOfTrack())])
    with pytest.raises(MidiValidationError):
        encode_smf(seq)


def test_validation_rejects_missing_end_of_track():
    seq = MidiSequence(480, [MidiEvent(0, NoteOn(0, 60, 96))])
    with pytest.raises(MidiValidationError):
        encode_smf(seq)


def test_validation_rejects_unclosed_notes():
    seq = MidiSequence(480, [MidiEvent(0, NoteOn(0, 60, 96)), MidiEvent(0, EndOfTrack())])
    with pytest.raises(MidiValidationError):
        encode_smf(seq)


def test_validation_rejects_end_of_track_before_last_event():
    """Such a track would lose its tail in an SMF round trip: the decoder stops at the first EndOfTrack."""
    seq = MidiSequence(
        480,
        [
            MidiEvent(0, NoteOn(0, 60, 96)),
            MidiEvent(0, EndOfTrack()),
            MidiEvent(480, NoteOff(0, 60, 0)),
            MidiEvent(0, EndOfTrack()),
        ],
    )
    with pytest.raises(MidiValidationError, match="EndOfTrack at event 1"):
        encode_smf(seq)


# (concept, id, sha256 of its SMF bytes) for one seed-11 record per concept;
# the progression is i-ii°-v-i, the one with a diminished chord
MIDI_SHA256 = [
    ("tempo", "tempo_b120_c0_o0", "aeb21f39f47ae08d251f52af7732f903be341786997ec8586c1f6fdd5dff5f42"),
    ("time_signatures", "timesig_06-8_r1_c2_o3", "20726cec6d0472a75b1db6194554970d0ad432dedf029af77ecc2f29dd7def13"),
    ("notes", "note_p11_o8_i86", "48fde3329b5dd088efc977863b7e372b3e2066c5972df1d1c6f52e00c269aef6"),
    ("intervals", "interval_p11_h12_up_i86", "231355e86ee9d326b76b1b19e00b1a90e80ab0c3a0b413712e854c27015d64df"),
    ("scales", "scale_phrygian_p11_descending_i86", "fbca077ccc551b84960a0d6a8d3d8d40e2f2bfc329fdb60ccc6239c448153c47"),
    ("chords", "chord_p03_augmented_first_i81", "8be2c5e45dfa4ab41f1f194eb76df64eff429138e632646d9ca8ba99cfe25356"),
    ("progressions", "prog_10_p00_i00", "71bb90a4f129fcb3add550174429c3913a77bb6a6caf25461b423fc609588e4a"),
]


@pytest.mark.parametrize("concept, sample_id, sha256", MIDI_SHA256)
def test_generated_midi_bytes_pinned(concept, sample_id, sha256):
    record = next(r for r in build_records(concept, 11) if r["id"] == sample_id)
    assert hashlib.sha256(encode_smf(build_midi(record))).hexdigest() == sha256


# sha256 over the SMF bytes of every record in manifest order: the whole
# seed-11 tempo and time_signatures corpora, and a 2% stratified seed-11
# subsample of each tonal concept
MIDI_CORPUS_SHA256 = {
    "tempo": "2e29be9a1be7f6db8498b119ea262ab97934c922a66c3d91c2b4b8e0f97b9ba4",
    "time_signatures": "ca93d29493517a9d074e127647c131a156b55a4ae0a759fcef2a4bebe8a091aa",
    "notes": "8099196cbe7f29c680e45a8ef75496f0dc2669c9a6c0b83ed963893431ccc36c",
    "intervals": "c3899f4141790b4cf4875de4381fba21b917ee9bce7de85e21d41e933299820f",
    "scales": "2a617baf1e247a6e76acff386659eed749269d81f2d52c60fffd9baf95ee73d5",
    "chords": "892eec3718ae31b7a02db1cd248be86ad8edb09644469e9fd254f89323333e7a",
    "progressions": "ececfead2fb9901c796b00cb11ec7a056d359eabc8e199a20339c401e6776040",
}

# per concept, each record field whose every value the pinned records hold
MIDI_CORPUS_COVERS = {
    "tempo": {"bpm": theory.TEMPO_RANGE_BPM, "click_id": range(len(synth.CLICK_SETTINGS))},
    "time_signatures": {
        "time_signature": [f"{num}/{den}" for num, den in theory.TIME_SIGNATURES],
        "click_id": range(len(synth.CLICK_SETTINGS)),
    },
    "notes": {"pitch_class": range(12), "octave": NOTES_OCTAVES},
    "intervals": {"half_steps": range(1, 13), "play_style": theory.PLAY_STYLES_INTERVAL},
    "scales": {"mode": theory.MODE_NAMES, "play_style": theory.PLAY_STYLES_SCALE},
    "chords": {"quality": theory.CHORD_QUALITIES, "inversion": theory.INVERSIONS},
    "progressions": {"progression_index": range(len(theory.PROGRESSIONS))},
}


@pytest.mark.parametrize("concept", CONCEPTS)
def test_generated_midi_corpus_bytes_pinned(concept):
    records = build_records(concept, 11, 1.0 if concept in RHYTHMIC_CONCEPTS else 0.02)
    for field, values in MIDI_CORPUS_COVERS[concept].items():
        assert {r[field] for r in records} == set(values), field
    digest = hashlib.sha256()
    for r in records:
        digest.update(encode_smf(build_midi(r)))
    assert digest.hexdigest() == MIDI_CORPUS_SHA256[concept]


def test_smpte_division_rejected():
    seq = MidiSequence(480, [MidiEvent(0, EndOfTrack())])
    data = bytearray(encode_smf(seq))
    data[12] = 0xE7  # negative division marks SMPTE timing
    with pytest.raises(MidiParseError):
        decode_smf(bytes(data))
