import numpy as np
import pytest

from earbench import features, synth
from earbench.features import (
    FEATURE_DIMS,
    HOP,
    N_MELS,
    WINDOW,
    aggregate,
    aggregate_handcrafted,
    chroma,
    dct_ii_matrix,
    fft,
    feature_vector,
    hz_to_mel,
    mel_filterbank,
    mel_power,
    mel_spectrogram,
    mfcc,
    rfft,
    stft,
)
from earbench.synth import CLIP_SAMPLES, SAMPLE_RATE


def sine_clip(freq, amplitude=0.5, n=CLIP_SAMPLES):
    t = np.arange(n) / SAMPLE_RATE
    return amplitude * np.sin(2 * np.pi * freq * t)


def test_fft_impulse_is_flat():
    x = np.zeros(8)
    x[0] = 1.0
    assert np.allclose(np.abs(fft(x)), 1.0)


def test_fft_dc():
    spectrum = fft(np.ones(8))
    assert np.isclose(spectrum[0].real, 8.0)
    assert np.allclose(spectrum[1:], 0.0, atol=1e-12)


def test_fft_matches_direct_dft():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(16)
    k = np.arange(16)
    direct = np.array([np.sum(x * np.exp(-2j * np.pi * kk * k / 16)) for kk in k])
    assert np.max(np.abs(fft(x) - direct)) < 1e-10


def test_fft_parseval(rng):
    for _ in range(20):
        x = rng.standard_normal(1024)
        spectrum = fft(x)
        time_energy = float(np.sum(x * x))
        freq_energy = float(np.sum(np.abs(spectrum) ** 2)) / 1024
        assert abs(time_energy - freq_energy) / time_energy < 1e-9


def test_fft_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        fft(np.zeros(12))
    with pytest.raises(ValueError):
        fft(np.zeros(8), n=24)


def test_fft_zero_pads_short_signal():
    x = np.array([1.0, 2.0])
    assert np.allclose(fft(x, 8), np.fft.fft(x, 8))


def test_rfft_agrees_with_fft(rng):
    x = rng.standard_normal((5, 256))
    full = fft(x)[:, :129]
    assert np.max(np.abs(rfft(x) - full)) < 1e-10


def test_fft_precision_follows_input():
    single = np.ones(8, dtype=np.float32)
    assert fft(single).dtype == np.complex64
    assert rfft(single).dtype == np.complex64
    assert fft(np.arange(8)).dtype == np.complex128
    assert rfft(single.astype(np.float64)).dtype == np.complex128
    with pytest.raises(ValueError):
        rfft(np.zeros(16), n=8)


def test_stft_frame_count_and_silence():
    silent = stft(np.zeros(CLIP_SAMPLES))
    assert silent.shape == (1 + (CLIP_SAMPLES - WINDOW) // HOP, WINDOW // 2 + 1)
    assert silent.shape[0] == 169
    assert np.all(silent == 0.0)


def test_stft_sine_peak_bin():
    spec = stft(sine_clip(440.0))
    expected_bin = round(440 * WINDOW / SAMPLE_RATE)
    assert expected_bin == 41
    assert np.all(spec.argmax(axis=1) == expected_bin)


def test_mel_filterbank_shape_and_coverage():
    fb = mel_filterbank()
    assert fb.shape == (N_MELS, WINDOW // 2 + 1)
    # neighbors overlap
    for i in range(N_MELS - 1):
        assert np.sum((fb[i] > 0) & (fb[i + 1] > 0)) > 0
    # strictly positive envelope strictly inside (0, Nyquist)
    envelope = fb.sum(axis=0)
    assert np.all(envelope[1:-1] > 0)


def test_mel_silence_is_zero():
    assert np.all(mel_spectrogram(np.zeros(CLIP_SAMPLES)) == 0.0)


def test_mel_sine_lands_in_analytic_filter():
    mel = mel_power(sine_clip(440.0))
    mel_edges = np.linspace(0.0, float(hz_to_mel(SAMPLE_RATE / 2)), N_MELS + 2)
    analytic = float(hz_to_mel(440.0))
    expected = int(np.argmin(np.abs(mel_edges[1:-1] - analytic)))
    hits = mel.sum(axis=0)
    assert abs(int(hits.argmax()) - expected) <= 1


def test_mfcc_shape_and_silence():
    out = mfcc(np.zeros(CLIP_SAMPLES))
    assert out.shape == (169, 20)
    assert np.all(out == 0.0)


def test_dct_orthonormal():
    d = dct_ii_matrix(N_MELS)
    assert np.allclose(d @ d.T, np.eye(N_MELS), atol=1e-10)


def test_dct_projection_identity(rng):
    d = dct_ii_matrix(N_MELS)
    frame = rng.standard_normal(N_MELS)
    coefs20 = d[:20] @ frame
    reconstructed = d[:20].T @ coefs20
    projection = d.T @ np.concatenate([coefs20, np.zeros(N_MELS - 20)])
    assert np.allclose(reconstructed, projection, atol=1e-12)


def test_mfcc_gain_shift_only_moves_coefficient_zero(rng):
    # broadband clip keeps every mel band far above the log epsilon
    clip = rng.standard_normal(CLIP_SAMPLES) * 0.3
    gain = 0.5
    eps = 1e-10
    d20 = dct_ii_matrix(N_MELS)[:20]
    c1 = np.log(mel_power(clip) + eps) @ d20.T
    c2 = np.log(mel_power(gain * clip) + eps) @ d20.T
    delta = c2 - c1
    assert np.max(np.abs(delta[:, 1:])) < 1e-6
    expected_shift = np.log(gain**2) * np.sqrt(N_MELS)
    assert np.allclose(delta[:, 0], expected_shift, atol=1e-6)


def test_chroma_sine_at_440_is_a():
    ch = chroma(sine_clip(440.0))
    voiced = ch[ch.sum(axis=1) > 0]
    assert len(voiced) == 169
    assert np.all(voiced.argmax(axis=1) == 9)  # A


def test_chroma_silence_is_zero():
    assert np.all(chroma(np.zeros(CLIP_SAMPLES)) == 0.0)


def test_chroma_rendered_major_triad_top3():
    from earbench.datasets import render_sample

    record = {
        "concept": "chords",
        "root_pitch_class": 0,
        "root_note": 60,
        "quality": "major",
        "inversion": "root",
        "timbre_id": 5,
        "reverb_level": "dry",
        "rng_seed": 0,
    }
    ch = chroma(render_sample(record))
    voiced = ch[ch.sum(axis=1) > 0]
    for frame in voiced:
        assert set(np.argsort(frame)[-3:]) == {0, 4, 7}


def test_aggregate_constant_frames():
    frames = np.tile(np.arange(5.0), (10, 1))
    out = aggregate(frames)
    assert out.shape == (30,)
    assert np.allclose(out[:5], np.arange(5.0))  # mean holds the frame
    assert np.allclose(out[5:], 0.0)  # stds and differences vanish


def test_aggregate_linear_ramp():
    slopes = np.array([0.5, -1.0, 2.0])
    frames = np.outer(np.arange(20.0), slopes)
    out = aggregate(frames)
    assert np.allclose(out[6:9], slopes)  # first-difference mean
    assert np.allclose(out[9:12], 0.0, atol=1e-12)  # its std
    assert np.allclose(out[12:18], 0.0, atol=1e-12)  # second differences


def test_aggregate_needs_three_frames():
    with pytest.raises(ValueError):
        aggregate(np.zeros((2, 4)))


def test_feature_dims():
    clip = sine_clip(440.0)
    for kind, dim in FEATURE_DIMS.items():
        assert feature_vector(clip, kind).shape == (dim,)
    assert FEATURE_DIMS == {"mel": 768, "mfcc": 120, "chroma": 72, "aggregate": 960}


def test_feature_unknown_kind():
    with pytest.raises(ValueError):
        feature_vector(sine_clip(440.0), "plp")


def test_aggregate_handcrafted_silence_and_order(rng):
    assert np.all(aggregate_handcrafted(np.zeros(CLIP_SAMPLES)) == 0.0)
    clip = rng.standard_normal(CLIP_SAMPLES) * 0.2
    combined = aggregate_handcrafted(clip)
    # aggregate-then-concatenate is a different vector than concatenate-then-aggregate
    per_feature = np.concatenate(
        [aggregate(mel_spectrogram(clip)), aggregate(chroma(clip)), aggregate(mfcc(clip))]
    )
    assert combined.shape == per_feature.shape == (960,)
    assert not np.allclose(combined, per_feature)


def test_feature_determinism(rng):
    clip = rng.standard_normal(CLIP_SAMPLES) * 0.1
    for kind in FEATURE_DIMS:
        a = feature_vector(clip.copy(), kind)
        b = feature_vector(clip.copy(), kind)
        assert np.array_equal(a, b)


def test_time_shift_robust_mean_pooling():
    from earbench.synth import CLICK_SETTINGS, render_clicks

    period_samples = 22 * HOP  # exactly 22 analysis hops
    period_s = period_samples / SAMPLE_RATE
    onsets_a = [(k * period_s, True) for k in range(int(4.0 / period_s))]
    onsets_b = [(t + period_s, d) for t, d in onsets_a if t + period_s < 4.0]
    clip_a = render_clicks(onsets_a, CLICK_SETTINGS[1])
    clip_b = render_clicks(onsets_b, CLICK_SETTINGS[1])
    mel_a = mel_spectrogram(clip_a)
    mel_b = mel_spectrogram(clip_b)
    interior_a = mel_a[10 : 169 - 32].mean(axis=0)
    interior_b = mel_b[10 + 22 : 169 - 10].mean(axis=0)
    rel = np.linalg.norm(interior_a - interior_b) / np.linalg.norm(interior_a)
    assert rel < 1e-3


def _matrix_dft_rfft(signal, n=None):
    """Reference real DFT by explicit cosine/sine matrices in float64, no FFT."""
    x = np.asarray(signal, dtype=np.float64)
    n = x.shape[-1] if n is None else n
    j = np.arange(x.shape[-1])
    blocks = []
    for k in np.array_split(np.arange(n // 2 + 1), 8):  # bounds the basis to 8 MB per block
        angle = 2.0 * np.pi * (np.outer(j, k) % n) / n
        blocks.append(x @ np.cos(angle) - 1j * (x @ np.sin(angle)))
    return np.concatenate(blocks, axis=-1)


def _chroma_dims(kind):
    """Mask of the dimensions pooled from the float32 chroma path."""
    if kind == "chroma":
        return np.ones(FEATURE_DIMS[kind], dtype=bool)
    mask = np.zeros((6, FEATURE_DIMS[kind] // 6), dtype=bool)
    if kind == "aggregate":  # each pooled statistic stacks mel 128, chroma 12, mfcc 20
        mask[:, N_MELS : N_MELS + 12] = True
    return mask.ravel()


@pytest.mark.parametrize("sample_id", ["chord_p00_augmented_first_i01", "timesig_02-2_r0_c0_o5"])
def test_feature_vectors_match_matrix_dft_reference(sample_id, monkeypatch):
    """Every kind stays within a stated tolerance of the same pipeline run on an exact DFT.

    Tolerances: 1e-12 of the vector's largest magnitude on the float64 mel
    and MFCC dimensions, 2e-7 absolute on the chroma dimensions, which are
    transformed in float32 and max-normalized per frame. The augmented chord
    has near-tied spectral peaks, so a less accurate float32 transform moves
    its chroma by far more than the tolerance.
    """
    from earbench.datasets import build_records, render_sample

    concept = "chords" if sample_id.startswith("chord") else "time_signatures"
    record = next(r for r in build_records(concept, 11) if r["id"] == sample_id)
    clip = render_sample(record)
    got = {kind: feature_vector(clip, kind) for kind in features.FEATURE_KINDS}
    monkeypatch.setattr(features, "rfft", _matrix_dft_rfft)
    for kind in features.FEATURE_KINDS:
        ref = feature_vector(clip, kind)
        err = np.abs(got[kind] - ref)
        f32 = _chroma_dims(kind)
        if (~f32).any():
            assert err[~f32].max() <= 1e-12 * np.abs(ref[~f32]).max(), kind
        if f32.any():
            assert err[f32].max() <= 2e-7, kind
