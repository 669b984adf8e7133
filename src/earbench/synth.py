"""Deterministic offline additive synthesizer and WAV I/O.

92 melodic timbre presets (fixed sums of harmonic partials with ADSR, small
detune and optional vibrato) stand in for a General MIDI soundfont, and five
metronome click settings voice the rhythmic datasets. Rendering is a pure
function of its inputs: the same sequence and preset always produce the same
sample buffer, and every MIDI register is voiceable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .midi import EndOfTrack, MidiSequence, NoteOff, NoteOn, TempoMeta
from .seeds import rng_for

SAMPLE_RATE = 22050
CLIP_SECONDS = 4.0
CLIP_SAMPLES = 88200
NYQUIST = SAMPLE_RATE / 2

NUM_TIMBRES = 92
NOTE_GAIN = 0.22  # per-note amplitude at full velocity; keeps triads clear of the limiter

REVERB_LEVELS = {"dry": 0.0, "medium": 0.2, "spacious": 0.4}

_PRESET_FAMILY_SEED = 0  # presets are fixed instrument definitions, not run-dependent


@dataclass(frozen=True)
class TimbrePreset:
    id: int
    harmonic_amplitudes: tuple[float, ...]  # normalized, fundamental strongest
    adsr: tuple[float, float, float, float]  # attack_s, decay_s, sustain, release_s
    detune_cents: float
    vibrato: tuple[float, float] | None  # (rate_hz, depth_cents)


@dataclass(frozen=True)
class ClickSetting:
    id: int
    name: str
    downbeat: tuple[float, float, float]  # base_freq_hz, noise_mix, decay_s
    upbeat: tuple[float, float, float]


CLICK_SETTINGS = [
    ClickSetting(0, "Woodblock Light", (1800.0, 0.15, 0.025), (1350.0, 0.15, 0.020)),
    ClickSetting(1, "Woodblock Dark", (950.0, 0.20, 0.035), (700.0, 0.20, 0.030)),
    ClickSetting(2, "Taiko", (95.0, 0.30, 0.200), (140.0, 0.30, 0.120)),
    ClickSetting(3, "Synth Drum", (220.0, 0.10, 0.150), (330.0, 0.10, 0.100)),
    ClickSetting(4, "Drum Kit", (60.0, 0.25, 0.180), (3000.0, 0.85, 0.050)),
]


def _build_preset(preset_id: int) -> TimbrePreset:
    rng = rng_for(_PRESET_FAMILY_SEED, "timbre-preset", preset_id)
    n_partials = int(rng.integers(4, 13))
    rolloff = rng.uniform(0.7, 2.0)
    even_damp = rng.uniform(0.25, 1.0)
    amps = np.empty(n_partials)
    amps[0] = 1.0
    for k in range(2, n_partials + 1):
        damp = even_damp if k % 2 == 0 else 1.0
        amps[k - 1] = k ** (-rolloff) * damp * rng.uniform(0.8, 1.0)
    amps /= amps.sum()
    adsr = (
        rng.uniform(0.002, 0.08),
        rng.uniform(0.03, 0.25),
        rng.uniform(0.4, 0.9),
        rng.uniform(0.04, 0.2),
    )
    detune = rng.uniform(-3.0, 3.0)
    vibrato = None
    if rng.random() < 0.4:
        vibrato = (rng.uniform(4.5, 6.5), rng.uniform(2.0, 5.0))
    return TimbrePreset(preset_id, tuple(amps), adsr, detune, vibrato)


@lru_cache(maxsize=1)
def timbre_presets() -> tuple[TimbrePreset, ...]:
    """The 92 fixed melodic instrument presets."""
    return tuple(_build_preset(i) for i in range(NUM_TIMBRES))


def midi_to_hz(note: float) -> float:
    return 440.0 * 2.0 ** ((note - 69.0) / 12.0)


def _note_spans(seq: MidiSequence, duration_s: float):
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
        past_attack = tt >= attack
        e = np.where(past_attack, 1.0 + (sustain - 1.0) * np.minimum((tt - attack) / decay, 1.0), e)
        return e

    gate_level = float(held(np.array([gate_s]))[0])
    env = np.where(
        t < gate_s,
        held(t),
        gate_level * np.clip(1.0 - (t - gate_s) / release, 0.0, 1.0),
    )
    return env


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
    # partials via powers of exp(i*phase): one transcendental pass per note
    base = np.exp(1j * phase)
    rotor = base.copy()
    sig = np.zeros_like(t)
    for k, amp in enumerate(preset.harmonic_amplitudes, start=1):
        if k > 1 and k * f0 >= NYQUIST * 0.995:
            break  # partials above Nyquist are dropped; the fundamental always sounds
        if k > 1:
            rotor *= base
        sig += amp * rotor.imag
    out[i0:i1] += gain * env * sig


def render(seq: MidiSequence, preset: TimbrePreset, duration_s: float = CLIP_SECONDS) -> np.ndarray:
    """Render a MIDI sequence to a fixed-length mono clip through one preset."""
    n_out = int(round(duration_s * SAMPLE_RATE))
    out = np.zeros(n_out)
    for start_s, end_s, note, velocity in _note_spans(seq, duration_s):
        _add_note(out, preset, start_s, end_s, note, velocity)
    np.clip(out, -1.0, 1.0, out=out)
    return out


@lru_cache(maxsize=16)
def _click_wave(setting_id: int, role: str) -> np.ndarray:
    setting = CLICK_SETTINGS[setting_id]
    freq, noise_mix, decay_s = setting.downbeat if role == "down" else setting.upbeat
    n = int(min(decay_s * 5.0, 1.2) * SAMPLE_RATE)
    t = np.arange(n) / SAMPLE_RATE
    env = np.exp(-t / decay_s)
    # slight initial pitch drop reads as a drum strike rather than a beep
    tone = np.sin(2.0 * np.pi * freq * (t + 0.004 * decay_s * (1.0 - np.exp(-t / 0.02))))
    noise = rng_for(_PRESET_FAMILY_SEED, "click-noise", setting_id, role).standard_normal(n)
    wave = 0.8 * ((1.0 - noise_mix) * tone + noise_mix * 0.7 * noise) * env
    wave.setflags(write=False)
    return wave


def render_clicks(pattern, click: ClickSetting, duration_s: float = CLIP_SECONDS) -> np.ndarray:
    """Place percussive down/upbeat sounds at (time_s, is_downbeat) positions."""
    n_out = int(round(duration_s * SAMPLE_RATE))
    out = np.zeros(n_out)
    for time_s, is_downbeat in pattern:
        if not 0.0 <= time_s < duration_s:
            raise ValueError(f"click time {time_s} outside [0, {duration_s})")
        wave = _click_wave(click.id, "down" if is_downbeat else "up")
        i0 = int(round(time_s * SAMPLE_RATE))
        seg = min(len(wave), n_out - i0)
        out[i0 : i0 + seg] += wave[:seg]
    np.clip(out, -1.0, 1.0, out=out)
    return out


# Schroeder reverberator: four parallel feedback combs into two series allpasses.
_COMB_DELAYS = (655, 818, 906, 963)
_ALLPASS_DELAYS = (110, 37)
_ALLPASS_GAIN = 0.7
_REVERB_TIME_S = {"medium": 1.2, "spacious": 2.5}


def _comb(x, delay, g):
    # scaled to unit DC gain so the wet path stays at the dry signal's level
    y = x.copy()
    gain, offset = g, delay
    while offset < len(x) and gain > 1e-8:
        y[offset:] += gain * x[: len(x) - offset]
        gain *= g
        offset += delay
    return (1.0 - g) * y


def _allpass(x, delay, g):
    y = -g * x
    gain, offset = 1.0 - g * g, delay
    while offset < len(x) and gain > 1e-8:
        y[offset:] += gain * x[: len(x) - offset]
        gain *= g
        offset += delay
    return y


def apply_reverb(clip: np.ndarray, level: str) -> np.ndarray:
    """Mix in a fixed Schroeder reverb; "dry" returns the input bit-identically."""
    wet_mix = REVERB_LEVELS[level]
    if wet_mix == 0.0:
        return clip.copy()
    rt60 = _REVERB_TIME_S[level]
    wet = np.zeros_like(clip)
    for delay in _COMB_DELAYS:
        g = 10.0 ** (-3.0 * (delay / SAMPLE_RATE) / rt60)
        wet += _comb(clip, delay, g)
    wet /= len(_COMB_DELAYS)
    for delay in _ALLPASS_DELAYS:
        wet = _allpass(wet, delay, _ALLPASS_GAIN)
    out = (1.0 - wet_mix) * clip + wet_mix * wet
    peak = np.max(np.abs(out)) if len(out) else 0.0
    if peak > 1.0:
        out /= peak
    return out


class WavParseError(ValueError):
    pass


def write_wav(clip: np.ndarray, sample_rate: int = SAMPLE_RATE) -> bytes:
    """RIFF/WAVE, PCM 16-bit little-endian, mono."""
    ints = np.clip(np.rint(np.asarray(clip) * 32767.0), -32768, 32767).astype("<i2")
    data = ints.tobytes()
    byte_rate = sample_rate * 2
    fmt = struct.pack("<HHIIHH", 1, 1, sample_rate, byte_rate, 2, 16)
    size = 4 + (8 + len(fmt)) + (8 + len(data))
    return b"".join(
        [
            b"RIFF",
            struct.pack("<I", size),
            b"WAVE",
            b"fmt ",
            struct.pack("<I", len(fmt)),
            fmt,
            b"data",
            struct.pack("<I", len(data)),
            data,
        ]
    )


def read_wav(data: bytes) -> tuple[np.ndarray, int]:
    """Decode PCM16 mono WAV bytes; returns (samples in [-1, 1], sample_rate)."""
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavParseError("not a RIFF/WAVE file")
    pos = 12
    fmt = None
    payload = None
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_len,) = struct.unpack("<I", data[pos + 4 : pos + 8])
        body = data[pos + 8 : pos + 8 + chunk_len]
        if len(body) < chunk_len:
            raise WavParseError(f"truncated {chunk_id!r} chunk at offset {pos}")
        if chunk_id == b"fmt ":
            if chunk_len < 16:
                raise WavParseError(f"fmt chunk at offset {pos} holds {chunk_len} bytes, needs 16")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif chunk_id == b"data":
            payload = body
        pos += 8 + chunk_len + (chunk_len & 1)
    if fmt is None or payload is None:
        raise WavParseError("missing fmt or data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != 1 or channels != 1 or bits != 16:
        raise WavParseError(f"unsupported WAV encoding: format={audio_format} ch={channels} bits={bits}")
    samples = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32767.0
    return samples, sample_rate
