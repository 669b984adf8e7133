import numpy as np
import pytest

from earbench import synth
from earbench.midi import EndOfTrack, MidiEvent, MidiSequence, NoteOff, NoteOn, TempoMeta
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
    seq = MidiSequence(480, [MidiEvent(0, EndOfTrack())])
    assert np.all(render(seq, timbre_presets()[0]) == 0.0)


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


def test_wav_short_fmt_chunk_names_offset():
    good = write_wav(np.zeros(100))
    # an 8-byte fmt chunk (format, channels, rate) followed by the data chunk
    short = good[:16] + (8).to_bytes(4, "little") + good[20:28] + good[36:]
    with pytest.raises(WavParseError, match="offset 12"):
        read_wav(short)
