"""Note-by-note reference renderer that `synth.render` is tested against.

It synthesizes every onset on its own, with time counted from the clip start,
as `render` did before it synthesized each distinct note once per clip.

A plain module, not conftest.py, for the reason given in random_midi.py.
"""

import numpy as np

from earbench.midi import MidiSequence
from earbench.synth import (
    CLIP_SECONDS,
    NOTE_GAIN,
    NYQUIST,
    SAMPLE_RATE,
    TimbrePreset,
    _envelope,
    _note_spans,
    midi_to_hz,
)


def _add_note(out, preset: TimbrePreset, start_s, end_s, note, velocity):
    sr = SAMPLE_RATE
    f0 = midi_to_hz(note) * 2.0 ** (preset.detune_cents / 1200.0)
    release = preset.adsr[3]
    i0 = int(round(start_s * sr))
    i1 = min(int(round((end_s + release) * sr)) + 1, len(out))
    if i0 >= len(out) or i1 <= i0:
        return
    t = np.arange(i0, i1) / sr - start_s
    env = _envelope(t, end_s - start_s, preset.adsr)
    if preset.vibrato is not None:
        rate, depth = preset.vibrato
        dev = 2.0 ** (depth / 1200.0) - 1.0
        phase = 2.0 * np.pi * f0 * (t + dev / (2.0 * np.pi * rate) * (1.0 - np.cos(2.0 * np.pi * rate * t)))
    else:
        phase = 2.0 * np.pi * f0 * t
    gain = NOTE_GAIN * velocity / 127.0
    base = np.exp(1j * phase)
    rotor = base.copy()
    sig = np.zeros_like(t)
    for k, amp in enumerate(preset.harmonic_amplitudes, start=1):
        if k > 1 and k * f0 >= NYQUIST * 0.995:
            break
        if k > 1:
            rotor *= base
        sig += amp * rotor.imag
    out[i0:i1] += gain * env * sig


def reference_render(seq: MidiSequence, preset: TimbrePreset, duration_s: float = CLIP_SECONDS) -> np.ndarray:
    n_out = int(round(duration_s * SAMPLE_RATE))
    out = np.zeros(n_out)
    for start_s, end_s, note, velocity in _note_spans(seq, duration_s):
        _add_note(out, preset, start_s, end_s, note, velocity)
    np.clip(out, -1.0, 1.0, out=out)
    return out
