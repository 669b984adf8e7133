"""Reference analysis pass that `features.frame_features` is tested against.

It frames the whole clip at once by fancy indexing and transforms every
frame in one call per transform: the code `features` ran before it pushed
frames through reused buffers in blocks. It imports only constants and the
fixed filterbank, DCT, fold and window matrices from `features`, and calls
numpy.fft directly.

A plain module, not conftest.py, for the reason given in random_midi.py.
"""

import numpy as np

from earbench.features import (
    CHROMA_PAD,
    FEATURE_DIMS,
    HOP,
    N_MFCC,
    WINDOW,
    _chroma_fold,
    _hann,
    dct_ii_matrix,
    mel_filterbank,
)
from earbench.parallel import one_blas_thread


def _chroma_from_frames(frames: np.ndarray) -> np.ndarray:
    power = np.abs(np.fft.rfft(frames.astype(np.float32), WINDOW * CHROMA_PAD)) ** 2
    peaks = np.zeros_like(power)
    is_peak = (power[:, 1:-1] > power[:, :-2]) & (power[:, 1:-1] >= power[:, 2:])
    peaks[:, 1:-1] = np.where(is_peak, power[:, 1:-1], 0.0)
    out = peaks @ _chroma_fold()
    peak = out.max(axis=1, keepdims=True)
    return np.divide(out, peak, out=np.zeros_like(out), where=peak > 0)


@one_blas_thread()
def frame_features(clip: np.ndarray, kind: str) -> np.ndarray:
    """Whole-matrix `features.frame_features`: same kinds, frames and layout."""
    if kind not in FEATURE_DIMS:
        raise ValueError(f"unknown feature kind: {kind!r}")
    clip = np.asarray(clip, dtype=np.float64)
    starts = np.arange(1 + (len(clip) - WINDOW) // HOP) * HOP
    frames = clip[starts[:, None] + np.arange(WINDOW)] * _hann()
    if kind == "chroma":
        return _chroma_from_frames(frames)
    mag = np.abs(np.fft.rfft(frames, WINDOW))
    log_mel = np.log1p((mag * mag) @ mel_filterbank().T)
    mfcc = log_mel @ dct_ii_matrix()[:N_MFCC].T
    if kind == "mel":
        return log_mel
    if kind == "mfcc":
        return mfcc
    return np.concatenate([log_mel, _chroma_from_frames(frames), mfcc], axis=1)
