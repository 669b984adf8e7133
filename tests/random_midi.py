"""Random MIDI sequences shared by the MIDI unit tests and the acceptance suite.

A plain module, not conftest.py: `from conftest import` resolves to whichever
conftest pytest imported last, and perfbench/tests has one too.
"""

import numpy as np

from earbench import midi as smf


def make_random_sequence(rng: np.random.Generator, max_events: int = 60, pitches=(0, 128)) -> smf.MidiSequence:
    """A structurally valid random MidiSequence for round-trip testing, its
    note numbers drawn from range(*pitches)."""
    events = []
    open_notes = []
    n_body = int(rng.integers(0, max_events))
    for _ in range(n_body):
        delta = int(rng.integers(0, 2000))
        roll = rng.random()
        if roll < 0.35 or (roll < 0.55 and not open_notes):
            kind = smf.NoteOn(int(rng.integers(0, 16)), int(rng.integers(*pitches)), int(rng.integers(1, 128)))
            open_notes.append((kind.channel, kind.note))
        elif roll < 0.55:
            channel, note = open_notes.pop(int(rng.integers(0, len(open_notes))))
            kind = smf.NoteOff(channel, note, int(rng.integers(0, 128)))
        elif roll < 0.7:
            kind = smf.ProgramChange(int(rng.integers(0, 16)), int(rng.integers(0, 128)))
        elif roll < 0.85:
            kind = smf.TempoMeta(int(rng.integers(1, 0x1000000)))
        else:
            kind = smf.TimeSignatureMeta(int(rng.integers(1, 33)), int(rng.integers(0, 6)))
        events.append(smf.MidiEvent(delta, kind))
    for channel, note in open_notes:
        events.append(smf.MidiEvent(int(rng.integers(0, 500)), smf.NoteOff(channel, note, 0)))
    events.append(smf.MidiEvent(int(rng.integers(0, 500)), smf.EndOfTrack()))
    return smf.MidiSequence(smf.PPQ, events)
