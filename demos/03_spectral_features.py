"""Handcrafted features on one rendered scale: mel, MFCC, chroma and their stack.

Run: python demos/03_spectral_features.py
Saves demo_out/features.png when matplotlib is available.
"""

import numpy as np

from earbench import datasets, features, theory

record = {
    "id": "demo",
    "concept": "scales",
    "mode": "dorian",
    "root_pitch_class": 2,
    "root_note": 62,
    "play_style": "ascending",
    "timbre_id": 41,
    "reverb_level": "dry",
    "rng_seed": 0,
    "midi_path": "x",
    "wav_path": "x",
}
clip = datasets.render_sample(record)

frames = {kind: features.frame_features(clip, kind) for kind in features.FEATURE_KINDS}
print(", ".join(f"{kind} {f.shape}" for kind, f in frames.items()))
mel, cepstra, pcp = frames["mel"], frames["mfcc"], frames["chroma"]

# the chroma argmax should walk the D dorian scale: D E F G A B C D
centers = [int((i + 0.5) * len(pcp) / 8) for i in range(8)]
walked = [theory.PITCH_CLASS_NAMES[int(pcp[c].argmax())] for c in centers]
print("chroma walk over the clip:", " ".join(walked))

for kind in features.FEATURE_KINDS:
    vec = features.feature_vector(clip, kind)
    print(f"{kind:>9}: dim {vec.shape[0]:>3}, |v| {np.linalg.norm(vec):9.2f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
    from pathlib import Path

    fig, axes = plt.subplots(3, 1, figsize=(9, 7), sharex=True)
    axes[0].imshow(mel.T, aspect="auto", origin="lower")
    axes[0].set_ylabel("mel band")
    axes[1].imshow(cepstra.T, aspect="auto", origin="lower")
    axes[1].set_ylabel("MFCC")
    axes[2].imshow(pcp.T, aspect="auto", origin="lower")
    axes[2].set_ylabel("pitch class")
    axes[2].set_xlabel("frame")
    Path("demo_out").mkdir(exist_ok=True)
    fig.savefig("demo_out/features.png", dpi=110, bbox_inches="tight")
    print("wrote demo_out/features.png")
except ImportError:
    print("matplotlib not installed; skipping the plot")
