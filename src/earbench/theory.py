"""Symbolic music theory: pitch arithmetic, modes, triads, roman numeral progressions.

Everything here is a pure function on small value types. MIDI note numbers
follow the middle C = C4 = 60 convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

PITCH_CLASS_NAMES = ["C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B"]

MODE_NAMES = ["ionian", "dorian", "phrygian", "lydian", "mixolydian", "aeolian", "locrian"]

_IONIAN_STEPS = [2, 2, 1, 2, 2, 2, 1]

# Mode i starts the Ionian step pattern on scale degree i + 1.
MODE_STEPS = {mode: _IONIAN_STEPS[i:] + _IONIAN_STEPS[:i] for i, mode in enumerate(MODE_NAMES)}

CHORD_STACKS = {
    "major": (0, 4, 7),
    "minor": (0, 3, 7),
    "diminished": (0, 3, 6),
    "augmented": (0, 4, 8),
}

CHORD_QUALITIES = list(CHORD_STACKS)

INVERSIONS = ["root", "first", "second"]

PLAY_STYLES_INTERVAL = ["unison", "up", "down"]
PLAY_STYLES_SCALE = ["ascending", "descending"]

# Scale-degree offsets (semitones above the key root) for chord roots.
MAJOR_DEGREE_OFFSETS = list(accumulate(MODE_STEPS["ionian"][:-1], initial=0))
NATURAL_MINOR_DEGREE_OFFSETS = list(accumulate(MODE_STEPS["aeolian"][:-1], initial=0))

TIME_SIGNATURES = [(2, 2), (3, 4), (4, 4), (3, 8), (4, 8), (6, 8), (9, 8), (12, 8)]

TEMPO_RANGE_BPM = range(50, 211)  # 161 integer tempi


class RangeError(ValueError):
    """A note computation left the 0..127 MIDI range."""


def note_from(pc: int, octave: int) -> int:
    """MIDI number of pitch class `pc` (0..11) in `octave` (C4 = 60)."""
    if not 0 <= pc <= 11:
        raise ValueError(f"pitch class out of range: {pc}")
    n = 12 * (octave + 1) + pc
    if not 0 <= n <= 127:
        raise RangeError(f"note {PITCH_CLASS_NAMES[pc]}{octave} -> {n} outside MIDI range")
    return n


def scale_notes(root: int, mode: str, direction: str = "ascending") -> list[int]:
    """Eight scale tones from `root` up to the octave, or the reverse.

    `mode` is one of the seven diatonic mode names, lowercase.
    """
    steps = MODE_STEPS[mode]
    if root + 12 > 127:
        raise RangeError(f"scale from {root} exceeds MIDI range")
    notes = [root]
    for s in steps:
        notes.append(notes[-1] + s)
    if direction == "descending":
        notes.reverse()
    elif direction != "ascending":
        raise ValueError(f"unknown direction: {direction}")
    return notes


def chord_notes(root: int, quality: str, inversion: str = "root") -> list[int]:
    """Triad voicing; inverted chords raise displaced tones one octave (closed voicing)."""
    _, a, b = CHORD_STACKS[quality]
    if inversion == "root":
        notes = [root, root + a, root + b]
    elif inversion == "first":
        notes = [root + a, root + b, root + 12]
    elif inversion == "second":
        notes = [root + b, root + 12, root + a + 12]
    else:
        raise ValueError(f"unknown inversion: {inversion}")
    if notes[-1] > 127 or notes[0] < 0:
        raise RangeError(f"chord {notes} outside MIDI range")
    return notes


def interval_notes(root: int, half_steps: int, style: str) -> list[tuple[int, ...]]:
    """One repetition of an interval figure as a list of simultaneous note groups.

    unison -> [(root, upper)]; up -> [(root,), (upper,)]; down -> [(upper,), (root,)].
    """
    if not 1 <= half_steps <= 12:
        raise ValueError(f"half_steps out of range: {half_steps}")
    upper = root + half_steps
    if upper > 127:
        raise RangeError(f"interval top {upper} outside MIDI range")
    if style == "unison":
        return [(root, upper)]
    if style == "up":
        return [(root,), (upper,)]
    if style == "down":
        return [(upper,), (root,)]
    raise ValueError(f"unknown play style: {style}")


@dataclass(frozen=True)
class RomanNumeral:
    degree: int  # 1..7
    quality: str

    @classmethod
    def parse(cls, text: str) -> "RomanNumeral":
        """Case encodes quality: uppercase major, lowercase minor, trailing ° diminished."""
        diminished = text.endswith("°")
        body = text[:-1] if diminished else text
        numerals = {"i": 1, "ii": 2, "iii": 3, "iv": 4, "v": 5, "vi": 6, "vii": 7}
        degree = numerals.get(body.lower())
        if degree is None:
            raise ValueError(f"cannot parse roman numeral: {text!r}")
        if diminished:
            quality = "diminished"
        elif body.isupper():
            quality = "major"
        elif body.islower():
            quality = "minor"
        else:
            raise ValueError(f"mixed-case roman numeral: {text!r}")
        return cls(degree, quality)


@dataclass(frozen=True)
class ProgressionSpec:
    index: int
    key_mode: str  # "major" | "natural_minor"
    text: str  # e.g. "I-IV-V-I"

    @property
    def numerals(self) -> list[RomanNumeral]:
        return [RomanNumeral.parse(t) for t in self.text.split("-")]


_MAJOR_PROGRESSIONS = [
    "I-IV-V-I",
    "I-IV-vi-V",
    "I-V-vi-IV",
    "I-vi-IV-V",
    "ii-V-I-vi",
    "IV-I-V-vi",
    "IV-V-iii-vi",
    "V-IV-I-V",
    "V-vi-IV-I",
    "vi-IV-I-V",
]

# "iv-VII-i-i" repeats its final chord; kept as listed.
_MINOR_PROGRESSIONS = [
    "i-ii°-v-i",
    "i-III-iv-i",
    "i-iv-v-i",
    "i-VI-III-VII",
    "i-VI-VII-i",
    "i-VI-VII-III",
    "i-VII-VI-IV",
    "iv-VII-i-i",
    "VII-vi-VII-i",
]

PROGRESSIONS = [
    ProgressionSpec(i, "major", t) for i, t in enumerate(_MAJOR_PROGRESSIONS)
] + [
    ProgressionSpec(10 + i, "natural_minor", t) for i, t in enumerate(_MINOR_PROGRESSIONS)
]


def resolve_progression(key_root_pc: int, spec: ProgressionSpec) -> list[list[int]]:
    """Four root-position triads for `spec` in the key of `key_root_pc`.

    Chord roots sit in the octave containing middle C (MIDI 60..71); the
    numeral's case/° marking dictates quality.
    """
    offsets = MAJOR_DEGREE_OFFSETS if spec.key_mode == "major" else NATURAL_MINOR_DEGREE_OFFSETS
    chords = []
    for numeral in spec.numerals:
        root_pc = (key_root_pc + offsets[numeral.degree - 1]) % 12
        chords.append(chord_notes(60 + root_pc, numeral.quality, "root"))
    return chords
