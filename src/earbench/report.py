"""Probe result CSVs, and the summary table over them: representations x concepts."""

from __future__ import annotations

import csv
import dataclasses
import io
from pathlib import Path

from .datasets import CONCEPTS, write_atomic
from .probe import ProbeSpec

MISSING_CELL = "—"

CONCEPT_COLUMNS = ["notes", "intervals", "scales", "chords", "progressions", "tempo", "time_signatures"]

COLUMN_TITLES = {
    "notes": "Notes",
    "intervals": "Intervals",
    "scales": "Scales",
    "chords": "Chords",
    "progressions": "Chord Progressions",
    "tempo": "Tempos",
    "time_signatures": "Time Signatures",
}

ROW_TITLES = {
    "mel": "Mel Spectrogram",
    "mfcc": "MFCC",
    "chroma": "Chroma",
    "aggregate": "Aggregate Handcrafted",
}


def write_result_csv(path, concept: str, representation: str, results):
    """One row per ProbeResult, in order, with a column per ProbeSpec field.
    Float spec fields are written `:g`, metrics to 6 decimals; only the
    selected row has a test_metric."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["concept", "representation", *(f.name for f in dataclasses.fields(ProbeSpec))]
                    + ["seed", "best_epoch", "epochs_run", "val_metric", "test_metric"])
    for r in results:
        spec = [f"{v:g}" if isinstance(v, float) else v for v in dataclasses.astuple(r.spec)]
        test = "" if r.test_metric is None else f"{r.test_metric:.6f}"
        writer.writerow([concept, representation, *spec, r.seed, r.best_epoch, r.epochs_run]
                        + [f"{r.val_metric:.6f}", test])
    write_atomic(path, buf.getvalue().encode("utf-8"))


def load_result_cells(results_dir) -> dict[tuple[str, str], float]:
    """(representation, concept) -> selected test metric, from every CSV in the dir."""
    cells = {}
    for path in sorted(Path(results_dir).glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if row.get("test_metric"):
                    key = (row["representation"], row["concept"])
                    cells[key] = float(row["test_metric"])
    return cells


def build_table(cells: dict[tuple[str, str], float]):
    """Rows of (representation, {concept: value}, average, n_present)."""
    reps = {rep for rep, _ in cells}
    ordered = [r for r in ROW_TITLES if r in reps] + sorted(reps - set(ROW_TITLES))
    table = []
    for rep in ordered:
        values = {c: cells[(rep, c)] for c in CONCEPT_COLUMNS if (rep, c) in cells}
        average = sum(values.values()) / len(values)
        table.append((rep, values, average, len(values)))
    return table


def _cell(values, concept):
    return f"{values[concept]:.3f}" if concept in values else MISSING_CELL


def _present_concepts(table) -> list[str]:
    return [c for c in CONCEPT_COLUMNS if any(c in values for _, values, _, _ in table)]


def render_markdown(table) -> str:
    concepts = _present_concepts(table)
    header = ["Representation"] + [COLUMN_TITLES[c] for c in concepts] + ["Average"]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    partial = False
    for rep, values, average, n_present in table:
        row = [ROW_TITLES.get(rep, rep)]
        row += [_cell(values, c) for c in concepts]
        star = "" if n_present == len(CONCEPTS) else "*"
        partial = partial or bool(star)
        row.append(f"{average:.3f}{star}")
        lines.append("| " + " | ".join(row) + " |")
    if partial:
        counts = ", ".join(
            f"{ROW_TITLES.get(rep, rep)}: {n}/{len(CONCEPTS)}"
            for rep, _, _, n in table
            if n != len(CONCEPTS)
        )
        lines.append("")
        lines.append(f"\\* average over present concepts only ({counts}).")
    return "\n".join(lines) + "\n"


def render_csv(table) -> str:
    concepts = _present_concepts(table)
    lines = [",".join(["representation"] + concepts + ["average", "concepts_present"])]
    for rep, values, average, n_present in table:
        cells = [_cell(values, c) for c in concepts]
        lines.append(",".join([rep] + cells + [f"{average:.3f}", str(n_present)]))
    return "\n".join(lines) + "\n"
