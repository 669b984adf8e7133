import hashlib
import tracemalloc

import numpy as np
import pytest

from earbench import features, synth
from earbench.features import (
    BLOCK_FRAMES,
    FEATURE_DIMS,
    FEATURE_KINDS,
    HOP,
    N_MELS,
    WINDOW,
    aggregate,
    dct_ii_matrix,
    feature_vector,
    frame_features,
    hz_to_mel,
    mel_filterbank,
    rfft,
)
from earbench.parallel import parallel_map
from earbench.synth import CLIP_SAMPLES, SAMPLE_RATE
from blas_count import caller_blas_threads
from features_reference import frame_features as reference_frame_features


def sine_clip(freq, amplitude=0.5, n=CLIP_SAMPLES):
    t = np.arange(n) / SAMPLE_RATE
    return amplitude * np.sin(2 * np.pi * freq * t)


N_FRAMES = 1 + (CLIP_SAMPLES - WINDOW) // HOP
BLOCKS = [min(BLOCK_FRAMES, N_FRAMES - start) for start in range(0, N_FRAMES, BLOCK_FRAMES)]  # rows per transform call


def record_rfft(monkeypatch):
    """Patch `features.rfft` to keep a copy of every spectrum it returns; returns that list.

    Copies, because extraction transforms each block into buffers it reuses.
    """
    spectra = []

    def recording(signal, n=None, out=None):
        result = rfft(signal, n, out)
        spectra.append(result.copy())
        return result

    monkeypatch.setattr(features, "rfft", recording)
    return spectra


def test_fft_impulse_is_flat():
    x = np.zeros(8)
    x[0] = 1.0
    assert np.allclose(np.abs(rfft(x)), 1.0)


def test_fft_dc():
    spectrum = rfft(np.ones(8))
    assert np.isclose(spectrum[0].real, 8.0)
    assert np.allclose(spectrum[1:], 0.0, atol=1e-12)


def test_fft_matches_direct_dft():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(16)
    k = np.arange(16)
    direct = np.array([np.sum(x * np.exp(-2j * np.pi * kk * k / 16)) for kk in k[:9]])
    assert np.max(np.abs(rfft(x) - direct)) < 1e-10


def test_fft_parseval(rng):
    """Bins 0 and n/2 count once; every other bin also stands for its mirror image."""
    for _ in range(20):
        x = rng.standard_normal(1024)
        power = np.abs(rfft(x)) ** 2
        time_energy = float(np.sum(x * x))
        freq_energy = float(2.0 * np.sum(power) - power[0] - power[-1]) / 1024
        assert abs(time_energy - freq_energy) / time_energy < 1e-9


def test_fft_zero_pads_short_signal():
    x = np.array([1.0, 2.0])
    assert np.allclose(rfft(x, 8), np.fft.fft(x, 8)[:5])


def test_rfft_agrees_with_fft(rng):
    x = rng.standard_normal((5, 256))
    full = np.fft.fft(x)[:, :129]
    assert np.max(np.abs(rfft(x) - full)) < 1e-10


def test_fft_precision_follows_input():
    single = np.ones(8, dtype=np.float32)
    assert rfft(single).dtype == np.complex64
    assert rfft(single.astype(np.float64)).dtype == np.complex128


def test_stft_frame_count_and_silence(monkeypatch):
    spectra = record_rfft(monkeypatch)
    mel = frame_features(np.zeros(CLIP_SAMPLES), "mel")
    assert [len(s) for s in spectra] == BLOCKS
    silent = np.concatenate(spectra)
    assert silent.shape == (N_FRAMES, WINDOW // 2 + 1)
    assert silent.shape[0] == mel.shape[0] == 169
    assert np.all(silent == 0.0)


def test_stft_sine_peak_bin(monkeypatch):
    spectra = record_rfft(monkeypatch)
    frame_features(sine_clip(440.0), "mel")
    expected_bin = round(440 * WINDOW / SAMPLE_RATE)
    assert expected_bin == 41
    spectrum = np.concatenate(spectra)
    assert len(spectrum) == 169
    assert np.all(np.abs(spectrum).argmax(axis=1) == expected_bin)


def test_rfft_calls_per_kind(monkeypatch):
    """One transform per kind and block; only chroma and aggregate run chroma's padded one."""
    spectra = record_rfft(monkeypatch)
    calls = {}
    for kind in FEATURE_KINDS:
        feature_vector(sine_clip(440.0), kind)
        calls[kind] = [(len(s), s.shape[1]) for s in spectra]  # (frames, bins) per call
        spectra.clear()
    mel_bins = WINDOW // 2 + 1
    chroma_bins = WINDOW * features.CHROMA_PAD // 2 + 1
    assert calls == {
        "mel": [(rows, mel_bins) for rows in BLOCKS],
        "mfcc": [(rows, mel_bins) for rows in BLOCKS],
        "chroma": [(rows, chroma_bins) for rows in BLOCKS],
        "aggregate": [(rows, bins) for rows in BLOCKS for bins in (mel_bins, chroma_bins)],
    }
    assert sum(BLOCKS) == N_FRAMES == 169


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
    assert np.all(frame_features(np.zeros(CLIP_SAMPLES), "mel") == 0.0)


def test_mel_sine_lands_in_analytic_filter():
    mel = np.expm1(frame_features(sine_clip(440.0), "mel"))  # undo log(1 + S)
    mel_edges = np.linspace(0.0, float(hz_to_mel(SAMPLE_RATE / 2)), N_MELS + 2)
    analytic = float(hz_to_mel(440.0))
    expected = int(np.argmin(np.abs(mel_edges[1:-1] - analytic)))
    hits = mel.sum(axis=0)
    assert abs(int(hits.argmax()) - expected) <= 1


def test_mfcc_shape_and_silence():
    out = frame_features(np.zeros(CLIP_SAMPLES), "mfcc")
    assert out.shape == (169, 20)
    assert np.all(out == 0.0)


def test_dct_orthonormal():
    d = dct_ii_matrix()
    assert np.allclose(d @ d.T, np.eye(N_MELS), atol=1e-10)


def test_dct_projection_identity(rng):
    d = dct_ii_matrix()
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
    d20 = dct_ii_matrix()[:20]
    c1 = np.log(np.expm1(frame_features(clip, "mel")) + eps) @ d20.T
    c2 = np.log(np.expm1(frame_features(gain * clip, "mel")) + eps) @ d20.T
    delta = c2 - c1
    assert np.max(np.abs(delta[:, 1:])) < 1e-6
    expected_shift = np.log(gain**2) * np.sqrt(N_MELS)
    assert np.allclose(delta[:, 0], expected_shift, atol=1e-6)


def test_chroma_sine_at_440_is_a():
    ch = frame_features(sine_clip(440.0), "chroma")
    voiced = ch[ch.sum(axis=1) > 0]
    assert len(voiced) == 169
    assert np.all(voiced.argmax(axis=1) == 9)  # A


def test_chroma_two_bin_plateau_counts_once(monkeypatch):
    n_fft = WINDOW * features.CHROMA_PAD
    fold = features._chroma_fold()
    a_bin = round(440.0 * n_fft / SAMPLE_RATE)
    c_bin = round(523.25 * n_fft / SAMPLE_RATE)
    assert fold[a_bin, 9] == fold[a_bin + 1, 9] == fold[c_bin, 0] == 1.0
    spectrum = np.zeros((1, n_fft // 2 + 1), dtype=np.complex128)
    spectrum[0, [a_bin, a_bin + 1, c_bin]] = 1.0  # A as an exact two-bin tie, C as one bin
    monkeypatch.setattr(features, "rfft", lambda signal, n=None, out=None: spectrum)
    ch = frame_features(np.zeros(WINDOW), "chroma")  # one frame, one padded transform
    assert ch.shape == (1, 12)
    assert ch[0, 9] == ch[0, 0] == 1.0


def test_chroma_silence_is_zero():
    assert np.all(frame_features(np.zeros(CLIP_SAMPLES), "chroma") == 0.0)


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
    ch = frame_features(render_sample(record), "chroma")
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
    for extract in (frame_features, feature_vector):
        with pytest.raises(ValueError, match="unknown feature kind"):
            extract(sine_clip(440.0), "plp")


def test_aggregate_handcrafted_silence_and_order(rng):
    assert np.all(feature_vector(np.zeros(CLIP_SAMPLES), "aggregate") == 0.0)
    clip = rng.standard_normal(CLIP_SAMPLES) * 0.2
    stacked = frame_features(clip, "aggregate")
    assert np.array_equal(stacked[:, :N_MELS], frame_features(clip, "mel"))
    assert np.array_equal(stacked[:, N_MELS : N_MELS + 12], frame_features(clip, "chroma"))
    assert np.array_equal(stacked[:, N_MELS + 12 :], frame_features(clip, "mfcc"))
    combined = feature_vector(clip, "aggregate")
    assert np.array_equal(combined, aggregate(stacked))
    # aggregate-then-concatenate is a different vector than concatenate-then-aggregate
    per_feature = np.concatenate([feature_vector(clip, kind) for kind in ("mel", "chroma", "mfcc")])
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
    mel_a = frame_features(clip_a, "mel")
    mel_b = frame_features(clip_b, "mel")
    interior_a = mel_a[10 : 169 - 32].mean(axis=0)
    interior_b = mel_b[10 + 22 : 169 - 10].mean(axis=0)
    rel = np.linalg.norm(interior_a - interior_b) / np.linalg.norm(interior_a)
    assert rel < 1e-3


# sha256 of each feature_vector's float64 bytes at seed 11
PINNED_FEATURE_SHA256 = {
    "chord_p00_augmented_first_i01": {
        "mel": "c7ac2b80e61991b5e884ae2c86b67181b3c76b2750c94268db9636954e7b7115",
        "mfcc": "623b2ca1e31d755a389b10b507bb835553b92cd2ced9bce5e7aeadb6e06da4e3",
        "chroma": "3551eefc9811624805a566c5c1cb8cf37475e87626c40e3780196fbe563f470a",
        "aggregate": "872e3abd021a24958f12f18155ef5cbc505331f9b5a7f91c569a57635c3700bb",
    },
    "timesig_02-2_r0_c0_o5": {
        "mel": "de8660688e233929f5b50b18548ef4e5974a51d3a71df088ab78a0997fc4cfc8",
        "mfcc": "00009eb480e0ed560b31597e717c0f90a064bf7acd3c04d8fa2ec0c0b5006b31",
        "chroma": "01fb45cf5c82c26e7ee00d6eacb3b82c491b45b5ea829464f36d0869f61a0216",
        "aggregate": "285cd0fc699f7280486ecab9890278a45c8cb0aa73deffd2497f446f0a214202",
    },
}


def render_by_id(sample_id):
    from earbench.datasets import build_records, render_sample

    concept = "chords" if sample_id.startswith("chord") else "time_signatures"
    return render_sample(next(r for r in build_records(concept, 11) if r["id"] == sample_id))


@pytest.mark.parametrize("sample_id", sorted(PINNED_FEATURE_SHA256))
def test_feature_vector_bytes_pinned(sample_id):
    """The pins hold whatever BLAS thread count the caller runs: the mel
    filterbank matmul gives other float64 bits on one thread than on two."""
    clip = render_by_id(sample_id)
    for threads in (1, 2):
        with caller_blas_threads(threads):
            got = {kind: hashlib.sha256(feature_vector(clip, kind).tobytes()).hexdigest() for kind in FEATURE_KINDS}
        assert got == PINNED_FEATURE_SHA256[sample_id], f"caller on {threads} BLAS threads"


def test_feature_vector_same_bytes_in_process_and_in_pool_worker():
    clips = [render_by_id(sample_id) for sample_id in sorted(PINNED_FEATURE_SHA256)]
    jobs = [(i, kind) for i in range(len(clips)) for kind in ("mel", "aggregate")]

    def extract(job):
        i, kind = job
        return feature_vector(clips[i], kind).tobytes()

    with caller_blas_threads(2):
        here = [extract(job) for job in jobs]
    assert parallel_map(extract, jobs, 2) == here


def _matrix_dft_rfft(signal, n=None, out=None):
    """Reference real DFT by explicit cosine/sine matrices in float64, no FFT.

    Returns a new array and leaves `out` alone: extraction reads the result.
    """
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
    and MFCC dimensions, 2e-7 absolute on the chroma dimensions, whose frames
    and spectra are rounded to float32 and which are max-normalized per
    frame. The augmented chord has near-tied spectral peaks, so a less
    accurate float32 transform moves its chroma by far more than the
    tolerance.
    """
    clip = render_by_id(sample_id)
    got = {kind: feature_vector(clip, kind) for kind in FEATURE_KINDS}
    monkeypatch.setattr(features, "rfft", _matrix_dft_rfft)
    for kind in FEATURE_KINDS:
        ref = feature_vector(clip, kind)
        err = np.abs(got[kind] - ref)
        f32 = _chroma_dims(kind)
        if (~f32).any():
            assert err[~f32].max() <= 1e-12 * np.abs(ref[~f32]).max(), kind
        if f32.any():
            assert err[f32].max() <= 2e-7, kind


@pytest.mark.parametrize("n_frames", [1, BLOCK_FRAMES - 1, BLOCK_FRAMES, BLOCK_FRAMES + 1, 169])
def test_block_pass_matches_whole_matrix_reference(n_frames, rng):
    """Every kind's float64 bits equal the whole-matrix pass's, whatever part of a block the clip fills."""
    clip = rng.standard_normal(WINDOW + (n_frames - 1) * HOP) * 0.3
    clip[: len(clip) // 2] += sine_clip(261.63, n=len(clip) // 2)  # a tone over the first half gives chroma clear peaks
    for kind in FEATURE_KINDS:
        got = frame_features(clip, kind)
        want = reference_frame_features(clip, kind)
        assert got.shape == want.shape == (n_frames, FEATURE_DIMS[kind] // 6)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), kind


def test_result_does_not_share_the_workspace(rng):
    first, second = rng.standard_normal((2, CLIP_SAMPLES)) * 0.3
    for kind in FEATURE_KINDS:
        got = frame_features(first, kind)
        kept = got.copy()
        frame_features(second, kind)
        assert np.array_equal(got, kept), kind


def test_warm_call_allocates_about_its_result(rng):
    """A warm call transforms into its workspace: it allocates the stacked
    result and the three parts stacked into it, about twice the result,
    and no frame or spectrum matrix (the whole-matrix pass allocated 25 MB)."""
    clip = rng.standard_normal(CLIP_SAMPLES) * 0.3
    frame_features(clip, "aggregate")  # builds this thread's workspace
    tracemalloc.start()
    try:
        out = frame_features(clip, "aggregate")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * out.nbytes
