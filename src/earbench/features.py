"""Spectral features: FFT/STFT, mel spectrogram, MFCC, chroma, time aggregation.

Transforms come from numpy.fft behind the power-of-two `fft`/`rfft`
wrappers; the DCT-II and the mel and chroma filterbanks are explicit
matrices built here. Analysis parameters follow common 22 kHz conventions:
2048-sample Hann window, 512 hop, 128 Slaney-style mel bands, 20 cepstral
coefficients, 12 chroma bins folded over C1..C8.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .synth import SAMPLE_RATE

WINDOW = 2048
HOP = 512
N_MELS = 128
N_MFCC = 20
N_CHROMA = 12

FEATURE_DIMS = {"mel": N_MELS * 6, "mfcc": N_MFCC * 6, "chroma": N_CHROMA * 6, "aggregate": 960}
FEATURE_KINDS = list(FEATURE_DIMS)


def _fft_size(x: np.ndarray, n: int | None, smallest: int) -> int:
    n = x.shape[-1] if n is None else n
    if n < smallest or n & (n - 1):
        raise ValueError(f"FFT size must be a power of two >= {smallest}, got {n}")
    if x.shape[-1] > n:
        raise ValueError(f"signal length {x.shape[-1]} exceeds FFT size {n}")
    return n


def fft(signal: np.ndarray, n: int | None = None) -> np.ndarray:
    """FFT along the last axis, computed by numpy.fft.

    `n` must be a power of two; shorter signals are zero-padded. Accepts a
    batch of rows, transforming each independently. Single-precision input
    gives complex64, anything else complex128.
    """
    x = np.asarray(signal)
    n = _fft_size(x, n, 1)
    ctype = np.complex64 if x.dtype in (np.float32, np.complex64) else np.complex128
    return np.fft.fft(x, n).astype(ctype, copy=False)


def rfft(signal: np.ndarray, n: int | None = None) -> np.ndarray:
    """FFT of real input along the last axis; the first n/2+1 bins.

    Same size rules as `fft` (n >= 2); float32 input gives complex64.
    """
    x = np.asarray(signal)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    n = _fft_size(x, n, 2)
    ctype = np.complex64 if x.dtype == np.float32 else np.complex128
    return np.fft.rfft(x, n).astype(ctype, copy=False)


@lru_cache(maxsize=4)
def _hann(n: int) -> np.ndarray:
    w = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))
    w.setflags(write=False)
    return w


def stft(clip: np.ndarray, window: int = WINDOW, hop: int = HOP) -> np.ndarray:
    """Hann-windowed magnitude spectrogram, [n_frames x (window/2 + 1)].

    Frames lie fully inside the signal: n_frames = 1 + (N - window) // hop.
    """
    frames = _frames(clip, window, hop)
    return np.abs(rfft(frames, window))


def hz_to_mel(f):
    """Slaney mel scale: linear below 1 kHz, logarithmic above."""
    f = np.asarray(f, dtype=np.float64)
    log_step = np.log(6.4) / 27.0
    return np.where(f < 1000.0, f * 3.0 / 200.0, 15.0 + np.log(np.maximum(f, 1000.0) / 1000.0) / log_step)


def mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    log_step = np.log(6.4) / 27.0
    return np.where(m < 15.0, m * 200.0 / 3.0, 1000.0 * np.exp(log_step * (np.maximum(m, 15.0) - 15.0)))


@lru_cache(maxsize=4)
def mel_filterbank(n_mels: int = N_MELS, window: int = WINDOW, sr: int = SAMPLE_RATE) -> np.ndarray:
    """[n_mels x n_bins] triangular filters, area-normalized (Slaney style)."""
    n_bins = window // 2 + 1
    fft_freqs = np.arange(n_bins) * sr / window
    mel_edges = np.linspace(0.0, float(hz_to_mel(sr / 2)), n_mels + 2)
    hz_edges = mel_to_hz(mel_edges)
    fb = np.zeros((n_mels, n_bins))
    for i in range(n_mels):
        lo, center, hi = hz_edges[i], hz_edges[i + 1], hz_edges[i + 2]
        up = (fft_freqs - lo) / (center - lo)
        down = (hi - fft_freqs) / (hi - center)
        fb[i] = np.maximum(0.0, np.minimum(up, down)) * 2.0 / (hi - lo)
    fb.setflags(write=False)
    return fb


def mel_power(clip: np.ndarray) -> np.ndarray:
    mag = stft(clip)
    return (mag * mag) @ mel_filterbank().T


def _mel_from_mag(mag: np.ndarray) -> np.ndarray:
    return np.log1p((mag * mag) @ mel_filterbank().T)


def mel_spectrogram(clip: np.ndarray) -> np.ndarray:
    """log(1 + S) compressed mel power spectrogram, [n_frames x 128]."""
    return _mel_from_mag(stft(clip))


@lru_cache(maxsize=4)
def dct_ii_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis, [n x n]; row k is the k-th cosine."""
    j = np.arange(n)
    mat = np.cos(np.pi * np.outer(j, 2 * j + 1) / (2 * n))
    mat[0] *= np.sqrt(1.0 / n)
    mat[1:] *= np.sqrt(2.0 / n)
    mat.setflags(write=False)
    return mat


def _mfcc_from_mel(log_mel: np.ndarray) -> np.ndarray:
    return log_mel @ dct_ii_matrix(N_MELS)[:N_MFCC].T


def mfcc(clip: np.ndarray) -> np.ndarray:
    """First 20 orthonormal DCT-II coefficients of the log-mel frames."""
    return _mfcc_from_mel(mel_spectrogram(clip))


CHROMA_PAD = 4  # zero-padding factor; 2.7 Hz bins resolve semitones down to C2


@lru_cache(maxsize=4)
def _chroma_fold(n_fft: int, sr: int = SAMPLE_RATE) -> np.ndarray:
    """[n_bins x 12] matrix folding FFT bins to the nearest semitone's pitch class.

    Bins outside C1..C8 contribute nothing.
    """
    n_bins = n_fft // 2 + 1
    fold = np.zeros((n_bins, N_CHROMA))
    freqs = np.arange(1, n_bins) * sr / n_fft
    midi = np.rint(69.0 + 12.0 * np.log2(freqs / 440.0)).astype(int)
    for k, m in zip(range(1, n_bins), midi):
        if 24 <= m <= 108:  # C1..C8
            fold[k, m % 12] = 1.0
    fold.setflags(write=False)
    return fold


def _frames(clip: np.ndarray, window: int = WINDOW, hop: int = HOP) -> np.ndarray:
    clip = np.asarray(clip, dtype=np.float64)
    if len(clip) < window:
        raise ValueError(f"clip shorter than the analysis window ({len(clip)} < {window})")
    n_frames = 1 + (len(clip) - window) // hop
    starts = np.arange(n_frames) * hop
    return clip[starts[:, None] + np.arange(window)] * _hann(window)


def _chroma_from_frames(frames: np.ndarray) -> np.ndarray:
    n_fft = frames.shape[1] * CHROMA_PAD
    # single precision: the padded transform dominates extraction cost and
    # chroma is max-normalized per frame anyway
    power = np.abs(rfft(frames.astype(np.float32), n_fft)) ** 2
    # fold only spectral peaks: window-mainlobe shoulders otherwise leak more
    # summed energy into neighboring semitones than the true one at low pitch
    peaks = np.zeros_like(power)
    is_peak = (power[:, 1:-1] >= power[:, :-2]) & (power[:, 1:-1] >= power[:, 2:])
    peaks[:, 1:-1] = np.where(is_peak, power[:, 1:-1], 0.0)
    out = peaks @ _chroma_fold(n_fft)
    peak = out.max(axis=1, keepdims=True)
    return np.divide(out, peak, out=np.zeros_like(out), where=peak > 0)


def chroma(clip: np.ndarray) -> np.ndarray:
    """Per-frame pitch-class energy, normalized to unit maximum; [n_frames x 12].

    Frames are zero-padded before the transform so peak positions quantize
    finer than a semitone even in the low octaves.
    """
    return _chroma_from_frames(_frames(clip))


def aggregate(frames: np.ndarray) -> np.ndarray:
    """Pool a [n_frames x bins] feature over time into a fixed 6*bins vector.

    Layout: mean, std, mean of first difference, its std, mean of second
    difference, its std.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 3:
        raise ValueError("aggregation needs a 2-D feature matrix with at least 3 frames")
    d1 = np.diff(frames, axis=0)
    d2 = np.diff(d1, axis=0)
    parts = []
    for f in (frames, d1, d2):
        parts.append(f.mean(axis=0))
        parts.append(f.std(axis=0))
    return np.concatenate(parts)


def aggregate_handcrafted(clip: np.ndarray) -> np.ndarray:
    """Pooled concatenation of mel, chroma and MFCC frames; 960 dimensions."""
    frames = _frames(clip)
    mag = np.abs(rfft(frames, WINDOW))
    log_mel = _mel_from_mag(mag)
    stacked = np.concatenate([log_mel, _chroma_from_frames(frames), _mfcc_from_mel(log_mel)], axis=1)
    return aggregate(stacked)


def feature_vector(clip: np.ndarray, kind: str) -> np.ndarray:
    """One pooled feature vector for a clip; `kind` in mel/mfcc/chroma/aggregate."""
    if kind == "mel":
        return aggregate(mel_spectrogram(clip))
    if kind == "mfcc":
        return aggregate(mfcc(clip))
    if kind == "chroma":
        return aggregate(chroma(clip))
    if kind == "aggregate":
        return aggregate_handcrafted(clip)
    raise ValueError(f"unknown feature kind: {kind!r}")
