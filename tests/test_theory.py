import pytest

from earbench import theory
from earbench.theory import (
    MODE_NAMES,
    MODE_STEPS,
    PROGRESSIONS,
    RangeError,
    RomanNumeral,
    chord_notes,
    interval_notes,
    note_from,
    resolve_progression,
    scale_notes,
)


def test_note_from_reference_points():
    assert note_from(0, 4) == 60  # middle C
    assert note_from(9, 4) == 69  # A4
    assert note_from(0, -1) == 0  # lowest MIDI note


def test_note_from_range_error():
    with pytest.raises(RangeError):
        note_from(8, 9)  # 128
    with pytest.raises(ValueError):
        note_from(12, 4)


def test_pitch_class_octave_round_trip():
    """Every MIDI note is one (pitch class, octave) pair, C-1 = 0 to G9 = 127."""
    for n in range(128):
        octave, pc = divmod(n, 12)
        assert note_from(pc, octave - 1) == n


def test_scales_match_known_patterns():
    assert scale_notes(60, "ionian") == [60, 62, 64, 65, 67, 69, 71, 72]
    assert scale_notes(60, "locrian") == [60, 61, 63, 65, 66, 68, 70, 72]
    assert scale_notes(60, "ionian", "descending") == [72, 71, 69, 67, 65, 64, 62, 60]


def test_modes_are_rotations_of_ionian():
    ionian = MODE_STEPS["ionian"]
    for i, mode in enumerate(MODE_NAMES):
        steps = MODE_STEPS[mode]
        assert sum(steps) == 12
        assert all(s in (1, 2) for s in steps)
        assert steps == ionian[i:] + ionian[:i]


def test_scale_spans_exactly_one_octave():
    for mode in MODE_NAMES:
        for root in (48, 60, 67):
            notes = scale_notes(root, mode)
            assert len(notes) == 8
            assert notes[-1] == root + 12


def test_scale_range_error():
    with pytest.raises(RangeError):
        scale_notes(120, "ionian")


def test_chord_voicings():
    assert chord_notes(60, "major", "root") == [60, 64, 67]
    assert chord_notes(60, "major", "first") == [64, 67, 72]
    # derived by hand from the diminished stack [0, 3, 6]
    assert chord_notes(60, "diminished", "second") == [66, 72, 75]


def test_chord_pitch_class_set_invariant_under_inversion():
    for quality in theory.CHORD_QUALITIES:
        for root in (48, 60, 71):
            reference = {n % 12 for n in chord_notes(root, quality, "root")}
            for inversion in theory.INVERSIONS:
                assert {n % 12 for n in chord_notes(root, quality, inversion)} == reference


def test_chord_range_error():
    with pytest.raises(RangeError):
        chord_notes(120, "augmented", "second")


def test_interval_figures():
    assert interval_notes(60, 12, "up") == [(60,), (72,)]
    assert interval_notes(60, 7, "down") == [(67,), (60,)]
    assert interval_notes(60, 6, "unison") == [(60, 66)]
    with pytest.raises(RangeError):
        interval_notes(120, 12, "up")


def test_roman_numeral_parsing():
    assert RomanNumeral.parse("I") == RomanNumeral(1, "major")
    assert RomanNumeral.parse("vi") == RomanNumeral(6, "minor")
    assert RomanNumeral.parse("ii°") == RomanNumeral(2, "diminished")
    for text in ("viii", "iio", "iiᵒ", "°"):
        with pytest.raises(ValueError):
            RomanNumeral.parse(text)


def test_progression_inventory():
    assert len(PROGRESSIONS) == 19
    assert sum(1 for p in PROGRESSIONS if p.key_mode == "major") == 10
    assert sum(1 for p in PROGRESSIONS if p.key_mode == "natural_minor") == 9
    assert [p.index for p in PROGRESSIONS] == list(range(19))
    for p in PROGRESSIONS:
        assert len(p.numerals) == 4


def _by_text(text):
    return next(p for p in PROGRESSIONS if p.text == text)


def test_resolve_primary_major_triads():
    chords = resolve_progression(0, _by_text("I-IV-V-I"))
    assert [c[0] % 12 for c in chords] == [0, 5, 7, 0]
    assert chords == [[60, 64, 67], [65, 69, 72], [67, 71, 74], [60, 64, 67]]


def test_resolve_natural_minor_triads():
    chords = resolve_progression(9, _by_text("i-iv-v-i"))
    assert [c[0] % 12 for c in chords] == [9, 2, 4, 9]
    for c in chords:
        assert c[1] - c[0] == 3 and c[2] - c[0] == 7  # all minor


def test_resolve_case_as_quality_in_minor():
    chords = resolve_progression(0, _by_text("i-VI-VII-i"))
    assert [c[0] % 12 for c in chords] == [0, 8, 10, 0]
    assert [c[1] - c[0] for c in chords] == [3, 4, 4, 3]  # min, maj, maj, min


def test_major_progressions_are_diatonic():
    for spec in PROGRESSIONS:
        if spec.key_mode != "major":
            continue
        for key_root in range(12):
            scale = {(key_root + off) % 12 for off in theory.MAJOR_DEGREE_OFFSETS}
            for c in resolve_progression(key_root, spec):
                assert {n % 12 for n in c} <= scale, (spec.text, key_root)


def test_minor_progression_root_degrees():
    for spec in PROGRESSIONS:
        if spec.key_mode != "natural_minor":
            continue
        for key_root in range(12):
            chords = resolve_progression(key_root, spec)
            for numeral, c in zip(spec.numerals, chords):
                offset = theory.NATURAL_MINOR_DEGREE_OFFSETS[numeral.degree - 1]
                assert c[0] % 12 == (key_root + offset) % 12


def test_transposition_equivariance():
    for spec in PROGRESSIONS:
        base = resolve_progression(0, spec)
        for shift in (1, 5, 11):
            moved = resolve_progression(shift, spec)
            for c0, c1 in zip(base, moved):
                assert [(n + shift) % 12 for n in c0] == [n % 12 for n in c1]


def test_progression_roots_voiced_near_middle_c():
    for spec in PROGRESSIONS:
        for key_root in range(12):
            for c in resolve_progression(key_root, spec):
                assert 60 <= c[0] <= 71
