"""Reference renderer and reverb that `synth.render` and `synth.apply_reverb`
are tested against.

The renderer synthesizes every onset on its own, with time counted from the
clip start, and walks the note spans by adding each event's delta in seconds
to a running float. The reverb sums each comb's and allpass's echoes one
delayed copy at a time. Both are the code `synth` ran before it synthesized
each distinct note once per clip, counted whole ticks and ran its reverb as a
recursion; they import only constants from it.

A plain module, not conftest.py, for the reason given in random_midi.py.
"""

import numpy as np

from earbench.midi import EndOfTrack, MidiSequence, NoteOff, NoteOn, TempoMeta
from earbench.synth import (
    _ALLPASS_DELAYS,
    _ALLPASS_GAIN,
    _COMB_DELAYS,
    _REVERB_TIME_S,
    CLIP_SECONDS,
    NOTE_GAIN,
    NYQUIST,
    REVERB_LEVELS,
    SAMPLE_RATE,
    TimbrePreset,
)


def reference_note_spans(seq: MidiSequence, duration_s: float):
    """(start_s, end_s, note, velocity) for every note, note-offs defaulting to clip end."""
    us_per_quarter = 500_000
    time_s = 0.0
    open_notes: dict[tuple[int, int], list[tuple[float, int]]] = {}
    spans = []
    for ev in seq.events:
        time_s += ev.delta_ticks * us_per_quarter / (seq.ppq * 1_000_000)
        k = ev.kind
        if isinstance(k, TempoMeta):
            us_per_quarter = k.microseconds_per_quarter
        elif isinstance(k, NoteOn) and k.velocity > 0:
            open_notes.setdefault((k.channel, k.note), []).append((time_s, k.velocity))
        elif isinstance(k, NoteOff) or (isinstance(k, NoteOn) and k.velocity == 0):
            stack = open_notes.get((k.channel, k.note))
            if stack:
                start, vel = stack.pop(0)
                spans.append((start, time_s, k.note, vel))
        elif isinstance(k, EndOfTrack):
            break
    for (_, note), stack in open_notes.items():
        for start, vel in stack:
            spans.append((start, duration_s, note, vel))
    return spans


def _envelope(t: np.ndarray, gate_s: float, adsr) -> np.ndarray:
    attack, decay, sustain, release = adsr

    def held(tt):
        e = np.clip(tt / attack, 0.0, 1.0)
        return np.where(tt >= attack, 1.0 + (sustain - 1.0) * np.minimum((tt - attack) / decay, 1.0), e)

    gate_level = float(held(np.array([gate_s]))[0])
    return np.where(t < gate_s, held(t), gate_level * np.clip(1.0 - (t - gate_s) / release, 0.0, 1.0))


def _add_note(out, preset: TimbrePreset, start_s, end_s, note, velocity):
    sr = SAMPLE_RATE
    f0 = 440.0 * 2.0 ** ((note - 69.0) / 12.0) * 2.0 ** (preset.detune_cents / 1200.0)
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
    for start_s, end_s, note, velocity in reference_note_spans(seq, duration_s):
        _add_note(out, preset, start_s, end_s, note, velocity)
    np.clip(out, -1.0, 1.0, out=out)
    return out


def _add_echoes(y, x, delay, g, gain):
    """y += gain * g**k * x delayed by (k + 1) * delay for k = 0, 1, ..., until the gain
    falls to 1e-8 or the delay reaches the clip end; returns y."""
    offset = delay
    while offset < len(x) and gain > 1e-8:
        y[offset:] += gain * x[: len(x) - offset]
        gain *= g
        offset += delay
    return y


def reference_reverb(clip: np.ndarray, level: str) -> np.ndarray:
    """The Schroeder reverb as truncated echo sums, O(N^2 / delay) per filter."""
    wet_mix = REVERB_LEVELS[level]
    if wet_mix == 0.0:
        return clip.copy()
    rt60 = _REVERB_TIME_S[level]
    wet = np.zeros_like(clip)
    for delay in _COMB_DELAYS:
        g = 10.0 ** (-3.0 * (delay / SAMPLE_RATE) / rt60)
        wet += (1.0 - g) * _add_echoes(clip.copy(), clip, delay, g, g)
    wet /= len(_COMB_DELAYS)
    for delay in _ALLPASS_DELAYS:
        g = _ALLPASS_GAIN
        wet = _add_echoes(-g * wet, wet, delay, g, 1.0 - g * g)
    out = (1.0 - wet_mix) * clip + wet_mix * wet
    peak = np.max(np.abs(out)) if len(out) else 0.0
    if peak > 1.0:
        out /= peak
    return out
