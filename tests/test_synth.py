import hashlib

import numpy as np
import pytest

from earbench import synth
from earbench.datasets import build_midi, build_records, render_sample
from earbench.midi import EndOfTrack, MidiEvent, MidiSequence, MidiValidationError, NoteOff, NoteOn, TempoMeta
from earbench.synth import (
    CLICK_SETTINGS,
    CLIP_SAMPLES,
    SAMPLE_RATE,
    TimbrePreset,
    WavParseError,
    apply_reverb,
    midi_to_hz,
    read_wav,
    render,
    render_clicks,
    timbre_presets,
    write_wav,
)
from random_midi import make_random_sequence
from synth_reference import reference_note_spans, reference_render, reference_reverb

# measured minimum pairwise preset distance is 0.0157 (profile L2 + centroid kHz)
TIMBRE_DISTANCE_THRESHOLD = 0.0078

PURE_SINE = TimbrePreset(0, (1.0,), (0.005, 0.05, 0.8, 0.05), 0.0, None)


def single_note_seq(note, quarters=8, velocity=96):
    return MidiSequence(
        480,
        [
            MidiEvent(0, TempoMeta(500_000)),
            MidiEvent(0, NoteOn(0, note, velocity)),
            MidiEvent(480 * quarters - 24, NoteOff(0, note, 0)),
            MidiEvent(0, EndOfTrack()),
        ],
    )


def spectral_peak_hz(clip, n=1 << 18):
    spectrum = np.abs(np.fft.rfft(clip, n))
    return np.argmax(spectrum) * SAMPLE_RATE / n


def test_preset_inventory():
    presets = timbre_presets()
    assert len(presets) == 92
    for p in presets:
        amps = np.array(p.harmonic_amplitudes)
        assert np.all(amps >= 0) and amps.sum() > 0
        assert amps[0] == amps.max()  # fundamental dominates, keeps pitch readable
        attack, decay, sustain, release = p.adsr
        assert attack > 0 and decay > 0 and release > 0
        assert 0 < sustain <= 1


def test_render_shape_and_determinism():
    seq = single_note_seq(69)
    preset = timbre_presets()[17]
    a = render(seq, preset)
    b = render(seq, preset)
    assert a.shape == (CLIP_SAMPLES,)
    assert np.array_equal(a, b)
    assert write_wav(a) == write_wav(b)


def test_render_pure_sine_peaks_at_440():
    clip = render(single_note_seq(69), PURE_SINE)
    bin_width = SAMPLE_RATE / (1 << 18)
    assert abs(spectral_peak_hz(clip) - 440.0) <= max(bin_width, 1.0)


def test_render_empty_sequence_is_silence():
    """An empty track and a velocity-0 note, which `validate` counts as a note, are silent."""
    empty = MidiSequence(480, [MidiEvent(0, EndOfTrack())])
    assert np.all(render(empty, timbre_presets()[0]) == 0.0)
    muted = MidiSequence(
        480, [MidiEvent(0, NoteOn(0, 60, 0)), MidiEvent(480, NoteOff(0, 60, 0)), MidiEvent(0, EndOfTrack())]
    )
    assert np.all(render(muted, timbre_presets()[0]) == 0.0)


def test_render_rejects_unclosed_note():
    seq = MidiSequence(480, [MidiEvent(0, NoteOn(0, 60, 96)), MidiEvent(0, EndOfTrack())])
    with pytest.raises(MidiValidationError, match="unclosed notes"):
        render(seq, timbre_presets()[0])


def test_render_amplitude_bounded():
    seq = MidiSequence(
        480,
        [MidiEvent(0, TempoMeta(500_000))]
        + [MidiEvent(0, NoteOn(0, n, 127)) for n in (60, 64, 67, 72, 76)]
        + [MidiEvent(480 * 8, NoteOff(0, n, 0)) for n in (60, 64, 67, 72, 76)]
        + [MidiEvent(0, EndOfTrack())],
    )
    clip = render(seq, timbre_presets()[3])
    assert np.max(np.abs(clip)) <= 1.0


def _assert_within_reference_tolerance(got, ref, atol=1e-11):
    """float64 within `atol`, 16-bit WAV samples within 1 LSB."""
    assert np.abs(got - ref).max() <= atol
    wav_got = np.frombuffer(write_wav(got)[44:], "<i2").astype(np.int32)
    wav_ref = np.frombuffer(write_wav(ref)[44:], "<i2").astype(np.int32)
    assert np.abs(wav_got - wav_ref).max() <= 1


# one record of each tonal concept at seed 11; the chord is one whose WAV
# moves by 1 LSB in two samples, the note (MIDI 107) loses partials at
# Nyquist, and every preset but the chord's has vibrato
TONAL_REFERENCE_RECORDS = [
    ("notes", "note_p11_o8_i86"),
    ("intervals", "interval_p11_h12_up_i86"),
    ("scales", "scale_phrygian_p11_descending_i86"),
    ("chords", "chord_p03_augmented_first_i81"),
    ("progressions", "prog_06_p04_i01"),
]


@pytest.mark.parametrize("concept, sample_id", TONAL_REFERENCE_RECORDS)
def test_render_matches_note_by_note_reference_on_tonal_records(concept, sample_id):
    record = next(r for r in build_records(concept, 11) if r["id"] == sample_id)
    seq, preset = build_midi(record), timbre_presets()[record["timbre_id"]]
    _assert_within_reference_tolerance(render(seq, preset), reference_render(seq, preset))


def test_render_matches_note_by_note_reference_on_random_sequences():
    """Four pitches make same-pitch notes overlap; random tempi put onsets
    between samples and let notes run past the clip end."""
    presets = timbre_presets()
    sub_sample = overlapping = cut = 0
    for seed in range(40):
        seq = make_random_sequence(np.random.default_rng(seed), pitches=(60, 64))
        preset = presets[(7 * seed) % len(presets)]
        spans = reference_note_spans(seq, synth.CLIP_SECONDS)
        heard = [(s, e, n) for s, e, n, _ in spans if round(s * SAMPLE_RATE) < CLIP_SAMPLES]
        sub_sample += sum(round(s * SAMPLE_RATE) != s * SAMPLE_RATE for s, _, _ in heard)
        cut += sum(round((e + preset.adsr[3]) * SAMPLE_RATE) + 1 > CLIP_SAMPLES for _, e, _ in heard)
        overlapping += sum(
            a[2] == b[2] and a[0] <= b[0] < a[1] + preset.adsr[3] for i, a in enumerate(heard) for b in heard[i + 1 :]
        )
        _assert_within_reference_tolerance(render(seq, preset), reference_render(seq, preset))
    assert min(sub_sample, overlapping, cut) > 0


# sha256 of the WAV bytes of one seed-11 clip per tonal concept, one clip
# per reverb level, one tempo clip and the i-ii°-v-i progression
WAV_SHA256 = {
    "tempo_b120_c0_o0": "68743150a8e232002857a278dc2007225c6c2c06770ea3315ea46a91155d1795",
    "prog_10_p00_i00": "349af5b54ad0b5402f3b96c86b77e8cb5eece0a2bebbd7a72156850da79838f7",
    "note_p11_o8_i86": "2916fe3e7b51f5a0a6bc7f351fcc1ee6176c2a611f97a716c2e074c8a98a71ce",
    "interval_p11_h12_up_i86": "791e5e31a57e31e6fd99f2f3ad69ea111c7fe8cc3775c9e2210a271c5993fcf2",
    "scale_phrygian_p11_descending_i86": "0d264f82bf003b9244e7c4a2733625ececbae74af35fec9b7095fdc60f9e3a6b",
    "chord_p03_augmented_first_i81": "c9c5e0fa92255347a8dff3ccd64a919940006c4dd33d2fcbf779112f54174460",
    "prog_06_p04_i01": "2b36d9a733c741555c8d28a0916ab4b183e2a49a2e58b2e8db9a8c14f7abcc3e",
    "timesig_06-8_r0_c2_o3": "e7107e57627a438c13a54be505e3eb8f112489af353106c1c79719e5204e08fd",
    "timesig_06-8_r1_c2_o3": "ba89d6d2891c0b6a1e7b30788dce261e6110af43ce3b629ce90731daffa78926",
    "timesig_06-8_r2_c2_o3": "b61d46f9885cff98f812b156db65ae5ca6fb9250f347a799a3afbcc4000dbd80",
}

_ID_CONCEPTS = {"tempo": "tempo", "note": "notes", "interval": "intervals", "scale": "scales", "chord": "chords",
                "prog": "progressions", "timesig": "time_signatures"}


def _record(sample_id, seed=11):
    concept = _ID_CONCEPTS[sample_id.split("_")[0]]
    return next(r for r in build_records(concept, seed) if r["id"] == sample_id)


@pytest.mark.parametrize("sample_id", sorted(WAV_SHA256))
def test_rendered_wav_bytes_pinned(sample_id):
    wav = write_wav(render_sample(_record(sample_id)))
    assert hashlib.sha256(wav).hexdigest() == WAV_SHA256[sample_id]


@pytest.mark.parametrize("sample_id, waves", [("chord_p03_augmented_first_i81", 3), ("note_p11_o8_i86", 1)])
def test_render_synthesizes_each_distinct_note_once(monkeypatch, sample_id, waves):
    """Eight slots of one triad take three waves and eight repeats of one
    note take one: tick-exact spans give every repeat the same gate."""
    calls = []
    real_note_wave = synth._note_wave

    def note_wave(*args):
        calls.append(args)
        return real_note_wave(*args)

    monkeypatch.setattr(synth, "_note_wave", note_wave)
    record = _record(sample_id)
    render(build_midi(record), timbre_presets()[record["timbre_id"]])
    assert len(calls) == waves


def test_pitch_correct_across_sampled_registers():
    # the full preset x note sweep lives in the acceptance suite
    for preset in timbre_presets()[::13]:
        for note in (36, 52, 69, 81, 96):
            clip = render(single_note_seq(note), preset)
            f_expected = midi_to_hz(note)
            assert abs(spectral_peak_hz(clip) - f_expected) / f_expected < 0.01


def test_every_register_is_voiced():
    for preset in timbre_presets()[::7]:
        for note in (0, 11, 107, 127):
            clip = render(single_note_seq(note), preset)
            assert float(np.sum(clip * clip)) > 1e-4


def test_timbre_presets_pairwise_distinct():
    f0 = midi_to_hz(60)
    n = 1 << 17
    freqs = np.arange(n // 2 + 1) * SAMPLE_RATE / n
    profiles, centroids = [], []
    for preset in timbre_presets():
        spectrum = np.abs(np.fft.rfft(render(single_note_seq(60), preset), n))
        profile = np.zeros(12)
        for k in range(1, 13):
            if k * f0 >= SAMPLE_RATE / 2:
                break
            band = (freqs > k * f0 * 0.97) & (freqs < k * f0 * 1.03)
            profile[k - 1] = spectrum[band].max()
        profiles.append(profile / profile.max())
        power = spectrum * spectrum
        centroids.append(float((freqs * power).sum() / power.sum()))
    profiles = np.array(profiles)
    distances = []
    for i in range(len(profiles)):
        for j in range(i + 1, len(profiles)):
            distances.append(
                float(np.linalg.norm(profiles[i] - profiles[j]))
                + abs(centroids[i] - centroids[j]) / 1000.0
            )
    assert min(distances) > TIMBRE_DISTANCE_THRESHOLD


def test_click_grid_energy_at_onsets():
    pattern = [(t * 0.5, t % 4 == 0) for t in range(8)]
    clip = render_clicks(pattern, CLICK_SETTINGS[0])
    frame = int(0.02 * SAMPLE_RATE)
    for t in (0.0, 0.5, 1.0, 3.5):
        i = int(t * SAMPLE_RATE)
        assert np.abs(clip[i : i + frame]).max() > 0.05
    # silence right before an onset (click decay is ~25 ms here)
    i = int(0.5 * SAMPLE_RATE)
    assert np.abs(clip[i - frame : i - frame // 2]).max() < 0.01


def test_click_empty_pattern_is_silence():
    assert np.all(render_clicks([], CLICK_SETTINGS[2]) == 0.0)


def test_click_time_out_of_range():
    with pytest.raises(ValueError):
        render_clicks([(4.5, True)], CLICK_SETTINGS[0])


def _onset_times(clip, separation_s=0.2):
    """Local maxima of smoothed energy.

    For a box-smoothed exponential strike the peak sits at a constant offset
    from the strike time whatever the decay rate, so inter-onset intervals
    are loudness- and timbre-invariant.
    """
    energy = clip * clip
    window = int(0.01 * SAMPLE_RATE)
    smooth = np.convolve(energy, np.ones(window) / window, mode="same")
    separation = int(separation_s * SAMPLE_RATE)
    threshold = smooth.max() * 0.05
    onsets = []
    i = 0
    while i < len(smooth):
        lo, hi = max(0, i - separation), min(len(smooth), i + separation + 1)
        if smooth[i] > threshold and smooth[i] >= smooth[lo:hi].max():
            onsets.append(i / SAMPLE_RATE)
            i += separation
        else:
            i += 1
    return onsets


@pytest.mark.parametrize("click_id", range(5))
def test_onset_intervals_recover_90_bpm(click_id):
    beat = 60.0 / 90.0
    pattern = []
    k = 0
    while k * beat < 4.0:
        pattern.append((k * beat, k % 4 == 0))
        k += 1
    clip = render_clicks(pattern, CLICK_SETTINGS[click_id])
    onsets = _onset_times(clip)
    assert len(onsets) >= 4
    gaps = np.diff(onsets)
    assert np.all(np.abs(gaps - beat) < 0.005)


def test_downbeat_and_upbeat_sounds_differ():
    for setting in CLICK_SETTINGS:
        down = render_clicks([(0.0, True)], setting)
        up = render_clicks([(0.0, False)], setting)
        assert setting.downbeat[0] != setting.upbeat[0]
        assert not np.array_equal(down, up)


def test_reverb_dry_is_identity():
    clip = render(single_note_seq(64), timbre_presets()[8])
    out = apply_reverb(clip, "dry")
    assert np.array_equal(out, clip)


def test_reverb_silence_stays_silent():
    assert np.all(apply_reverb(np.zeros(CLIP_SAMPLES), "spacious") == 0.0)


@pytest.mark.parametrize("level", ["medium", "spacious"])
def test_reverb_impulse_tail(level):
    impulse = np.zeros(CLIP_SAMPLES)
    impulse[0] = 1.0
    out = apply_reverb(impulse, level)
    tail = out[int(0.1 * SAMPLE_RATE) :]
    assert float(np.sum(tail * tail)) > 1e-6
    assert np.max(np.abs(out)) <= 1.0


# sha256 of apply_reverb's float64 bytes on a fixed click clip
REVERB_SHA256 = {
    "medium": "bc56242b120c39a42d2e19524ffd1adfb9b48a405bae13e6977aa85bd2cffb92",
    "spacious": "37fd5ec33ef38ed129b06a8ecd52c5845c6ad31d57c89e76c1985a6533954067",
}


@pytest.mark.parametrize("level", sorted(REVERB_SHA256))
def test_reverb_bytes_pinned(level):
    clip = render_clicks([(0.25 * i, i % 4 == 0) for i in range(16)], CLICK_SETTINGS[2])
    assert hashlib.sha256(apply_reverb(clip, level).tobytes()).hexdigest() == REVERB_SHA256[level]


@pytest.mark.parametrize("level", sorted(REVERB_SHA256))
def test_reverb_matches_echo_sum_reference(level):
    """The recursive combs and allpasses stay within 1e-7 of the truncated echo
    sums (the sums drop echoes below a gain of 1e-8, and the allpass feeds them
    back) and within 1 LSB once written as 16-bit WAV samples."""
    impulse = np.zeros(CLIP_SAMPLES)
    impulse[0] = 1.0
    clips = [impulse, render_clicks([(0.25 * i, i % 4 == 0) for i in range(16)], CLICK_SETTINGS[2])]
    # the dry clip of every time signature, one click setting and offset
    clips += [render_sample(r) for r in build_records("time_signatures", 11) if r["id"].endswith("_r0_c2_o3")]
    for clip in clips:
        _assert_within_reference_tolerance(apply_reverb(clip, level), reference_reverb(clip, level), atol=1e-7)


def test_reverb_lengthens_decay():
    clip = render_clicks([(0.5, True)], CLICK_SETTINGS[0])
    wet = apply_reverb(clip, "spacious")
    late = slice(int(1.0 * SAMPLE_RATE), int(2.0 * SAMPLE_RATE))
    assert np.sum(wet[late] ** 2) > np.sum(clip[late] ** 2)


def test_wav_layout_and_size():
    clip = np.zeros(CLIP_SAMPLES)
    data = write_wav(clip)
    assert data[:4] == b"RIFF" and data[8:12] == b"WAVE"
    assert b"data" in data
    offset = data.index(b"data")
    size = int.from_bytes(data[offset + 4 : offset + 8], "little")
    assert size == 176_400  # 88,200 samples x 2 bytes


def test_wav_zero_round_trip_exact():
    clip = np.zeros(CLIP_SAMPLES)
    decoded, rate = read_wav(write_wav(clip))
    assert rate == SAMPLE_RATE
    assert np.array_equal(decoded, clip)


def test_wav_round_trip_quantization_bound(rng):
    clip = rng.uniform(-1, 1, CLIP_SAMPLES)
    decoded, _ = read_wav(write_wav(clip))
    assert len(decoded) == CLIP_SAMPLES
    assert np.max(np.abs(decoded - clip)) <= 1.0 / 32768.0


def test_wav_malformed_input():
    with pytest.raises(WavParseError):
        read_wav(b"not a wav file at all")
    good = write_wav(np.zeros(100))
    with pytest.raises(WavParseError):
        read_wav(good[:20])


@pytest.mark.parametrize(
    "data,where",
    [
        (b"not a wav file at all", "no RIFF tag at offset 0"),
        (b"RIFX1234WAVE", "no RIFF tag at offset 0"),
        (b"RIFF1234WAVX", "no WAVE tag at offset 8"),
        (b"RIFF1234", "no WAVE tag at offset 8"),
    ],
)
def test_wav_not_riff_wave_names_tag_offset(data, where):
    with pytest.raises(WavParseError, match=f"not a RIFF/WAVE file: {where}"):
        read_wav(data)


@pytest.mark.parametrize(
    "cut,walk_end",
    [
        (lambda good: good[:36], 36),  # fmt chunk only, nothing after it
        (lambda good: good[:12] + good[36:], 220),  # data chunk only: 12 + 8 + 200 bytes
        (lambda good: good[:40], 36),  # a data chunk header cut short
    ],
    ids=["fmt-only", "data-only", "short-data-header"],
)
def test_wav_missing_chunk_names_walk_end(cut, walk_end):
    good = write_wav(np.zeros(100))
    with pytest.raises(WavParseError, match=f"missing fmt or data chunk: the chunk walk ended at offset {walk_end}$"):
        read_wav(cut(good))


def test_wav_short_fmt_chunk_names_offset():
    good = write_wav(np.zeros(100))
    # an 8-byte fmt chunk (format, channels, rate) followed by the data chunk
    short = good[:16] + (8).to_bytes(4, "little") + good[20:28] + good[36:]
    with pytest.raises(WavParseError, match="offset 12"):
        read_wav(short)


def test_wav_odd_data_chunk_names_offset():
    good = write_wav(np.zeros(100))
    # the data chunk header sits at offset 36; drop its last byte and say so
    odd = good[:40] + (199).to_bytes(4, "little") + good[44:-1]
    with pytest.raises(WavParseError, match="data chunk at offset 36 holds an odd 199 bytes"):
        read_wav(odd)
