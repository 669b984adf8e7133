"""Property tests: malformed SMF, WAV and SYNEMB1 bytes fail only with the format's own error.

Each decoder is fed arbitrary bytes, arbitrary bytes behind the format's
magic, and a valid file with some bytes overwritten and its tail possibly cut.
Every input must either decode or raise that module's format error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earbench.embeddings import MAGIC, EmbeddingFormatError, read_embeddings, write_embeddings
from earbench.midi import (
    EndOfTrack,
    MidiEvent,
    MidiParseError,
    MidiSequence,
    NoteOff,
    NoteOn,
    TempoMeta,
    decode_smf,
    encode_smf,
)
from earbench.synth import WavParseError, read_wav, write_wav

VALID_SMF = encode_smf(
    MidiSequence(
        480,
        [
            MidiEvent(0, TempoMeta(500_000)),
            MidiEvent(0, NoteOn(0, 60, 96)),
            MidiEvent(480, NoteOff(0, 60, 0)),
            MidiEvent(0, EndOfTrack()),
        ],
    )
)
VALID_WAV = write_wav(np.linspace(-0.5, 0.5, 24))
VALID_EMB = write_embeddings(["a", "bc", "def"], np.arange(6, dtype=np.float32).reshape(3, 2))

DECODERS = [
    (decode_smf, MidiParseError, b"MThd", VALID_SMF),
    (read_wav, WavParseError, b"RIFF", VALID_WAV),
    (read_embeddings, EmbeddingFormatError, MAGIC, VALID_EMB),
]
DECODER_IDS = ["smf", "wav", "synemb1"]


@st.composite
def mutated(draw, valid: bytes):
    """`valid` with up to six bytes or 32-bit length fields overwritten, then possibly cut short.

    A length field gets a value no larger than the file, in either byte
    order, so that it points inside the file as often as past its end.
    """
    data = bytearray(valid)
    for _ in range(draw(st.integers(0, 6))):
        at = draw(st.integers(0, len(data) - 4))
        if draw(st.booleans()):
            data[at] = draw(st.integers(0, 255))
        else:
            order = draw(st.sampled_from(["little", "big"]))
            data[at : at + 4] = draw(st.integers(0, len(data))).to_bytes(4, order)
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))) :]
    return bytes(data)


def decodes_or_format_error(decode, error, data):
    try:
        decode(data)
    except error:
        pass


@pytest.mark.parametrize("decode, error, magic, valid", DECODERS, ids=DECODER_IDS)
@settings(max_examples=150, deadline=None)
@given(tail=st.binary(max_size=96))
def test_arbitrary_bytes_raise_only_format_errors(decode, error, magic, valid, tail):
    decodes_or_format_error(decode, error, tail)
    decodes_or_format_error(decode, error, magic + tail)


@pytest.mark.parametrize("decode, error, magic, valid", DECODERS, ids=DECODER_IDS)
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_files_raise_only_format_errors(decode, error, magic, valid, data):
    decodes_or_format_error(decode, error, data.draw(mutated(valid)))
