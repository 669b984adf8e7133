"""Spectral features: mel spectrogram, MFCC, chroma, time aggregation.

`frame_features` computes every kind from one framing of the clip, and
`feature_vector` pools its frames over time.

Transforms come from numpy.fft behind the power-of-two `fft`/`rfft`
wrappers; the DCT-II and the mel and chroma filterbanks are explicit
matrices built here. Analysis parameters follow common 22 kHz conventions:
2048-sample Hann window, 512 hop, 128 Slaney-style mel bands, 20 cepstral
coefficients, 12 chroma bins folded over C1..C8.

Frames are a strided view of the clip, transformed `BLOCK_FRAMES` at a time
into buffers that one workspace per thread keeps from call to call, so a
warm call allocates little beyond its result and a block's buffers stay in
cache. A workspace holds the mel power and the chroma peak matrix of a
whole clip plus one block's frames and spectra, 11 MiB for 4 s clips; it is
built on the first call in each process that extracts, so every pool
worker holds one.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .parallel import one_blas_thread
from .synth import SAMPLE_RATE

WINDOW = 2048
HOP = 512
N_MELS = 128
N_MFCC = 20
N_CHROMA = 12
BLOCK_FRAMES = 32  # frames per transform call: one block's frames and spectra fit in L2

FEATURE_DIMS = {"mel": N_MELS * 6, "mfcc": N_MFCC * 6, "chroma": N_CHROMA * 6,
                "aggregate": (N_MELS + N_CHROMA + N_MFCC) * 6}
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


def rfft(signal: np.ndarray, n: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """FFT of real input along the last axis; the first n/2+1 bins.

    Same size rules as `fft` (n >= 2); float32 input gives complex64,
    anything else complex128. `out`, if given, receives the result and must
    have its shape and dtype.
    """
    x = np.asarray(signal)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    return np.fft.rfft(x, _fft_size(x, n, 2), out=out)


@lru_cache(maxsize=1)
def _hann() -> np.ndarray:
    w = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(WINDOW) / WINDOW))
    w.setflags(write=False)
    return w


def hz_to_mel(f):
    """Slaney mel scale: linear below 1 kHz, logarithmic above."""
    f = np.asarray(f, dtype=np.float64)
    log_step = np.log(6.4) / 27.0
    return np.where(f < 1000.0, f * 3.0 / 200.0, 15.0 + np.log(np.maximum(f, 1000.0) / 1000.0) / log_step)


def mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    log_step = np.log(6.4) / 27.0
    return np.where(m < 15.0, m * 200.0 / 3.0, 1000.0 * np.exp(log_step * (np.maximum(m, 15.0) - 15.0)))


@lru_cache(maxsize=1)
def mel_filterbank() -> np.ndarray:
    """[N_MELS x n_bins] triangular filters, area-normalized (Slaney style)."""
    n_bins = WINDOW // 2 + 1
    fft_freqs = np.arange(n_bins) * SAMPLE_RATE / WINDOW
    mel_edges = np.linspace(0.0, float(hz_to_mel(SAMPLE_RATE / 2)), N_MELS + 2)
    hz_edges = mel_to_hz(mel_edges)
    fb = np.zeros((N_MELS, n_bins))
    for i in range(N_MELS):
        lo, center, hi = hz_edges[i], hz_edges[i + 1], hz_edges[i + 2]
        up = (fft_freqs - lo) / (center - lo)
        down = (hi - fft_freqs) / (hi - center)
        fb[i] = np.maximum(0.0, np.minimum(up, down)) * 2.0 / (hi - lo)
    fb.setflags(write=False)
    return fb


@lru_cache(maxsize=1)
def dct_ii_matrix() -> np.ndarray:
    """Orthonormal DCT-II basis over the mel bands, [N_MELS x N_MELS]; row k is the k-th cosine."""
    j = np.arange(N_MELS)
    mat = np.cos(np.pi * np.outer(j, 2 * j + 1) / (2 * N_MELS))
    mat[0] *= np.sqrt(1.0 / N_MELS)
    mat[1:] *= np.sqrt(2.0 / N_MELS)
    mat.setflags(write=False)
    return mat


CHROMA_PAD = 4  # zero-padding factor; 2.7 Hz bins resolve semitones down to C2


@lru_cache(maxsize=1)
def _chroma_fold() -> np.ndarray:
    """[n_bins x 12] matrix folding padded FFT bins to the nearest semitone's pitch class.

    Bins outside C1..C8 contribute nothing.
    """
    n_fft = WINDOW * CHROMA_PAD
    n_bins = n_fft // 2 + 1
    fold = np.zeros((n_bins, N_CHROMA))
    freqs = np.arange(1, n_bins) * SAMPLE_RATE / n_fft
    midi = np.rint(69.0 + 12.0 * np.log2(freqs / 440.0)).astype(int)
    for k, m in zip(range(1, n_bins), midi):
        if 24 <= m <= 108:  # C1..C8
            fold[k, m % 12] = 1.0
    fold.setflags(write=False)
    return fold


class _Workspace:
    """Reused buffers for clips of `n_frames` frames: a block's frames and
    spectra, and the two matrices the filterbank matmuls read whole."""

    def __init__(self, n_frames: int):
        n_bins = WINDOW // 2 + 1
        n_padded = WINDOW * CHROMA_PAD // 2 + 1
        mapped = np.flatnonzero(_chroma_fold().any(axis=1))
        self.fold_rows = slice(int(mapped[0]), int(mapped[-1]) + 1)
        n_mapped = self.fold_rows.stop - self.fold_rows.start
        self.n_frames = n_frames
        self.frames = np.empty((BLOCK_FRAMES, WINDOW))
        self.spectrum = np.empty((BLOCK_FRAMES, n_bins), dtype=np.complex128)
        self.frames32 = np.empty((BLOCK_FRAMES, WINDOW), dtype=np.float32)
        self.rounded = np.empty((BLOCK_FRAMES, WINDOW))
        self.padded = np.empty((BLOCK_FRAMES, n_padded), dtype=np.complex128)
        self.padded32 = np.empty((BLOCK_FRAMES, n_mapped + 2), dtype=np.complex64)  # mapped bins and one each side
        self.padded_power = np.empty((BLOCK_FRAMES, n_mapped + 2), dtype=np.float32)
        self.is_peak = np.empty((BLOCK_FRAMES, n_mapped), dtype=bool)
        self.not_below = np.empty((BLOCK_FRAMES, n_mapped), dtype=bool)
        self.power = np.empty((n_frames, n_bins))
        # bins the fold does not map stay zero: zero times a zero fold row adds +0
        self.peaks = np.zeros((n_frames, n_padded))

    def mel_block(self, frames: np.ndarray, rows: slice):
        """Squared magnitude spectra of one block into `power[rows]`."""
        power = self.power[rows]
        np.abs(rfft(frames, WINDOW, out=self.spectrum[: len(frames)]), out=power)
        np.multiply(power, power, out=power)

    def chroma_block(self, frames: np.ndarray, rows: slice):
        """Spectral peaks of one block's zero-padded transform into `peaks[rows]`,
        on the bins the chroma fold maps.

        Chroma keeps single precision: the frames and the spectrum are
        rounded to float32, and the power and the peak picking are float32
        arithmetic, held in float64 for the fold matmul. The transform in
        between runs in float64, as numpy.fft runs it for float32 input (its
        Python-int scale factor selects the float64 loop), but without
        numpy's hidden whole-block cast buffers.
        """
        m = len(frames)
        frames32 = self.frames32[:m]
        frames32[...] = frames
        rounded = self.rounded[:m]
        rounded[...] = frames32
        spectrum = rfft(rounded, WINDOW * CHROMA_PAD, out=self.padded[:m])
        lo, hi = self.fold_rows.start, self.fold_rows.stop
        spectrum32 = self.padded32[:m]
        spectrum32[...] = spectrum[:, lo - 1 : hi + 1]
        power = np.abs(spectrum32, out=self.padded_power[:m])
        np.multiply(power, power, out=power)
        # fold only spectral peaks: window-mainlobe shoulders otherwise leak more
        # summed energy into neighboring semitones than the true one at low pitch;
        # strict on the left, so a plateau of equal bins counts as one peak
        mid = power[:, 1:-1]
        is_peak = np.greater(mid, power[:, :-2], out=self.is_peak[:m])
        is_peak &= np.greater_equal(mid, power[:, 2:], out=self.not_below[:m])
        np.multiply(mid, is_peak, out=self.peaks[rows, lo:hi])


_WORKSPACES = threading.local()  # one _Workspace per thread, so no two calls share buffers


def _workspace(n_frames: int) -> _Workspace:
    ws = getattr(_WORKSPACES, "current", None)
    if ws is None or ws.n_frames != n_frames:
        ws = _WORKSPACES.current = _Workspace(n_frames)
    return ws


def _normalized_chroma(peaks: np.ndarray) -> np.ndarray:
    out = peaks @ _chroma_fold()
    peak = out.max(axis=1, keepdims=True)
    return np.divide(out, peak, out=np.zeros_like(out), where=peak > 0)


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


@one_blas_thread()
def frame_features(clip: np.ndarray, kind: str) -> np.ndarray:
    """[n_frames x bins] frames of one feature kind from one analysis pass.

    The clip is cut into Hann-windowed frames lying fully inside it,
    n_frames = 1 + (N - WINDOW) // HOP. `mel` is the log(1 + S) compressed
    mel power spectrogram, `mfcc` the first 20 orthonormal DCT-II
    coefficients of those log-mel frames, `chroma` the per-frame pitch-class
    energy normalized to unit maximum, and `aggregate` stacks mel, chroma
    and MFCC per frame. Chroma's padded transform runs only for `chroma` and
    `aggregate`: it would roughly triple the cost of `mel` and `mfcc`.
    Frames are transformed `BLOCK_FRAMES` at a time into the thread's
    workspace; the filterbank, DCT and fold matmuls then run once on whole
    matrices, on one BLAS thread, so the float64 bits depend neither on the
    block size nor on the machine's core count. The result never shares
    memory with the workspace.
    """
    if kind not in FEATURE_DIMS:
        raise ValueError(f"unknown feature kind: {kind!r}")
    clip = np.asarray(clip, dtype=np.float64)
    if len(clip) < WINDOW:
        raise ValueError(f"clip shorter than the analysis window ({len(clip)} < {WINDOW})")
    framed = sliding_window_view(clip, WINDOW)[::HOP]
    ws = _workspace(len(framed))
    for start in range(0, len(framed), BLOCK_FRAMES):
        rows = slice(start, min(start + BLOCK_FRAMES, len(framed)))
        frames = np.multiply(framed[rows], _hann(), out=ws.frames[: rows.stop - start])
        if kind != "chroma":
            ws.mel_block(frames, rows)
        if kind in ("chroma", "aggregate"):
            ws.chroma_block(frames, rows)
    if kind == "chroma":
        return _normalized_chroma(ws.peaks)
    log_mel = ws.power @ mel_filterbank().T
    np.log1p(log_mel, out=log_mel)
    mfcc = log_mel @ dct_ii_matrix()[:N_MFCC].T
    if kind == "mel":
        return log_mel
    if kind == "mfcc":
        return mfcc
    return np.concatenate([log_mel, _normalized_chroma(ws.peaks), mfcc], axis=1)


def feature_vector(clip: np.ndarray, kind: str) -> np.ndarray:
    """One pooled feature vector for a clip; `kind` in mel/mfcc/chroma/aggregate."""
    return aggregate(frame_features(clip, kind))
