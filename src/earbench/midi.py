"""In-memory MIDI event model and Standard MIDI File (format 0) bytes.

Encoding is deterministic and decoding reproduces the original sequence
exactly, which makes the SMF layer round-trip testable. Only the event
kinds the generators emit are supported; running status is never written.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

PPQ = 480
MELODIC_CHANNEL = 0
PERCUSSION_CHANNEL = 9  # GM drum convention
NOTE_VELOCITY = 96


class MidiValidationError(ValueError):
    pass


class MidiParseError(ValueError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class NoteOn:
    channel: int
    note: int
    velocity: int


@dataclass(frozen=True)
class NoteOff:
    channel: int
    note: int
    velocity: int


@dataclass(frozen=True)
class ProgramChange:
    channel: int
    program: int


@dataclass(frozen=True)
class TempoMeta:
    microseconds_per_quarter: int


@dataclass(frozen=True)
class TimeSignatureMeta:
    numerator: int
    denominator_power: int  # denominator = 2 ** power
    clocks_per_click: int = 24
    dsqn: int = 8  # 32nd notes per quarter


@dataclass(frozen=True)
class EndOfTrack:
    pass


@dataclass(frozen=True)
class MidiEvent:
    delta_ticks: int
    kind: object


@dataclass
class MidiSequence:
    ppq: int = PPQ
    events: list[MidiEvent] = field(default_factory=list)

    def validate(self):
        if self.ppq <= 0:
            raise MidiValidationError(f"ppq must be positive, got {self.ppq}")
        if not self.events or not isinstance(self.events[-1].kind, EndOfTrack):
            raise MidiValidationError("final event must be EndOfTrack")
        open_notes = {}
        for i, ev in enumerate(self.events):
            if ev.delta_ticks < 0:
                raise MidiValidationError(f"negative delta at event {i}")
            k = ev.kind
            if isinstance(k, (NoteOn, NoteOff)):
                if not (0 <= k.channel <= 15 and 0 <= k.note <= 127 and 0 <= k.velocity <= 127):
                    raise MidiValidationError(f"note event out of range at event {i}: {k}")
                key = (k.channel, k.note)
                if isinstance(k, NoteOn):
                    open_notes[key] = open_notes.get(key, 0) + 1
                else:
                    if open_notes.get(key, 0) <= 0:
                        raise MidiValidationError(f"unmatched note-off at event {i}: {k}")
                    open_notes[key] -= 1
            elif isinstance(k, ProgramChange):
                if not (0 <= k.channel <= 15 and 0 <= k.program <= 127):
                    raise MidiValidationError(f"program change out of range at event {i}: {k}")
            elif isinstance(k, TempoMeta):
                if not 1 <= k.microseconds_per_quarter <= 0xFFFFFF:
                    raise MidiValidationError(f"tempo out of range at event {i}: {k}")
            elif isinstance(k, EndOfTrack) and i < len(self.events) - 1:
                raise MidiValidationError(f"EndOfTrack at event {i} before the last event")
        if any(n > 0 for n in open_notes.values()):
            raise MidiValidationError(f"unclosed notes: {open_notes}")


def encode_vlq(value: int) -> bytes:
    """MIDI variable-length quantity, minimal length, 0..0x0FFFFFFF."""
    if not 0 <= value <= 0x0FFFFFFF:
        raise MidiValidationError(f"VLQ value out of range: {value}")
    out = bytearray([value & 0x7F])
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    out.reverse()
    return bytes(out)


def decode_vlq(data: bytes, offset: int) -> tuple[int, int]:
    """Returns (value, next_offset)."""
    value = 0
    for i in range(4):
        if offset + i >= len(data):
            raise MidiParseError("truncated VLQ", offset + i)
        byte = data[offset + i]
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, offset + i + 1
    raise MidiParseError("VLQ longer than 4 bytes", offset)


def _event_bytes(kind) -> bytes:
    if isinstance(kind, NoteOn):
        return bytes([0x90 | kind.channel, kind.note, kind.velocity])
    if isinstance(kind, NoteOff):
        return bytes([0x80 | kind.channel, kind.note, kind.velocity])
    if isinstance(kind, ProgramChange):
        return bytes([0xC0 | kind.channel, kind.program])
    if isinstance(kind, TempoMeta):
        return b"\xff\x51\x03" + kind.microseconds_per_quarter.to_bytes(3, "big")
    if isinstance(kind, TimeSignatureMeta):
        return b"\xff\x58\x04" + bytes(
            [kind.numerator, kind.denominator_power, kind.clocks_per_click, kind.dsqn]
        )
    if isinstance(kind, EndOfTrack):
        return b"\xff\x2f\x00"
    raise MidiValidationError(f"unknown event kind: {kind!r}")


def encode_smf(seq: MidiSequence) -> bytes:
    seq.validate()
    track = bytearray()
    for ev in seq.events:
        track += encode_vlq(ev.delta_ticks)
        track += _event_bytes(ev.kind)
    return (
        b"MThd"
        + struct.pack(">IHHH", 6, 0, 1, seq.ppq)
        + b"MTrk"
        + struct.pack(">I", len(track))
        + bytes(track)
    )


def decode_smf(data: bytes) -> MidiSequence:
    if len(data) < 14:
        raise MidiParseError("truncated header", len(data))
    if data[:4] != b"MThd":
        raise MidiParseError("missing MThd magic", 0)
    hlen, fmt, ntrks, division = struct.unpack(">IHHH", data[4:14])
    if hlen != 6:
        raise MidiParseError(f"unexpected header length {hlen}", 4)
    if fmt != 0 or ntrks != 1:
        raise MidiParseError(f"not a single-track format-0 file (format {fmt}, {ntrks} tracks)", 8)
    if division & 0x8000:
        raise MidiParseError("SMPTE division not supported", 12)
    if data[14:18] != b"MTrk":
        raise MidiParseError("missing MTrk magic", 14)
    if len(data) < 22:
        raise MidiParseError("truncated track header", len(data))
    (tlen,) = struct.unpack(">I", data[18:22])
    end = 22 + tlen
    if end > len(data):
        raise MidiParseError(f"track length {tlen} overruns file", len(data))

    events = []
    pos = 22
    while pos < end:
        delta, pos = decode_vlq(data, pos)
        if pos >= end:
            raise MidiParseError("truncated event", pos)
        status = data[pos]
        if status == 0xFF:
            kind, pos = _decode_meta(data, pos, end)
        elif status & 0xF0 in (0x80, 0x90, 0xC0):
            kind, pos = _decode_channel(data, pos, end)
        else:
            raise MidiParseError(f"unsupported status byte 0x{status:02x}", pos)
        events.append(MidiEvent(delta, kind))
        if isinstance(kind, EndOfTrack):
            break
    seq = MidiSequence(ppq=division, events=events)
    if not events or not isinstance(events[-1].kind, EndOfTrack):
        raise MidiParseError("track ended without end-of-track", pos)
    return seq


def _decode_meta(data, pos, end):
    if pos + 2 >= end:
        raise MidiParseError("truncated meta event", pos)
    meta_type = data[pos + 1]
    length, body_start = decode_vlq(data, pos + 2)
    body_end = body_start + length
    if body_end > end:
        raise MidiParseError("meta event overruns track", body_start)
    body = data[body_start:body_end]
    if meta_type == 0x51:
        if length != 3:
            raise MidiParseError(f"tempo meta length {length} != 3", pos)
        return TempoMeta(int.from_bytes(body, "big")), body_end
    if meta_type == 0x58:
        if length != 4:
            raise MidiParseError(f"time signature meta length {length} != 4", pos)
        return TimeSignatureMeta(body[0], body[1], body[2], body[3]), body_end
    if meta_type == 0x2F:
        if length != 0:
            raise MidiParseError("end-of-track meta with payload", pos)
        return EndOfTrack(), body_end
    raise MidiParseError(f"unsupported meta type 0x{meta_type:02x}", pos)


def _decode_channel(data, pos, end):
    status = data[pos]
    channel = status & 0x0F
    if status & 0xF0 == 0xC0:
        if pos + 1 >= end:
            raise MidiParseError("truncated program change", pos)
        return ProgramChange(channel, data[pos + 1]), pos + 2
    if pos + 2 >= end:
        raise MidiParseError("truncated note event", pos)
    note, velocity = data[pos + 1], data[pos + 2]
    if note > 127 or velocity > 127:
        raise MidiParseError("data byte with high bit set", pos + 1)
    if status & 0xF0 == 0x90:
        return NoteOn(channel, note, velocity), pos + 3
    return NoteOff(channel, note, velocity), pos + 3


def tempo_to_microseconds(bpm: float) -> int:
    return round(60_000_000 / bpm)
