import numpy as np
import pytest

from earbench import midi as smf
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


def test_smpte_division_rejected():
    seq = MidiSequence(480, [MidiEvent(0, EndOfTrack())])
    data = bytearray(encode_smf(seq))
    data[12] = 0xE7  # negative division marks SMPTE timing
    with pytest.raises(MidiParseError):
        decode_smf(bytes(data))
