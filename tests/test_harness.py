import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from earbench import report
from earbench.cli import main
from earbench.embeddings import (
    MAGIC,
    EmbeddingFormatError,
    ingest_embeddings,
    read_embeddings,
    write_embeddings,
)


def test_embedding_file_arithmetic():
    ids = ["abc"]
    matrix = np.arange(3, dtype=np.float32).reshape(1, 3)
    data = write_embeddings(ids, matrix)
    assert len(data) == 7 + 4 + 4 + (4 + 3) + 12
    assert data[:7] == MAGIC


def test_embedding_round_trip(rng):
    ids = [f"s{i:03d}" for i in range(17)]
    matrix = rng.standard_normal((17, 5)).astype(np.float32)
    got_ids, got = read_embeddings(write_embeddings(ids, matrix))
    assert got_ids == ids
    assert np.array_equal(got, matrix)


def test_embedding_bad_magic():
    with pytest.raises(EmbeddingFormatError, match="offset 0"):
        read_embeddings(b"NOTEMB1" + b"\x00" * 32)


def test_embedding_truncated_payload(rng):
    data = write_embeddings(["a", "b"], rng.standard_normal((2, 4)).astype(np.float32))
    with pytest.raises(EmbeddingFormatError, match="truncated"):
        read_embeddings(data[:-5])


def test_embedding_duplicate_ids(rng):
    matrix = rng.standard_normal((2, 3)).astype(np.float32)
    data = write_embeddings(["a", "b"], matrix)
    corrupted = data.replace(b"\x01\x00\x00\x00b", b"\x01\x00\x00\x00a")
    with pytest.raises(EmbeddingFormatError, match="duplicate"):
        read_embeddings(corrupted)


def test_ingest_orders_by_manifest(rng):
    records = [{"id": "r1"}, {"id": "r2"}, {"id": "r3"}]
    matrix = np.arange(9, dtype=np.float32).reshape(3, 3)
    out = ingest_embeddings(["r3", "r1", "r2"], matrix, records)
    assert np.array_equal(out[0], matrix[1])
    assert np.array_equal(out[2], matrix[0])


FULL_CORPUS_IDS = 39_744  # the intervals concept, the largest


def test_ingest_full_corpus_join_is_fast(rng):
    ids = [f"interval_{i:05d}" for i in range(FULL_CORPUS_IDS)]
    records = [{"id": sid} for sid in ids]
    order = rng.permutation(FULL_CORPUS_IDS)
    matrix = order.astype(np.float32).reshape(-1, 1)
    start = time.perf_counter()
    out = ingest_embeddings([ids[i] for i in order], matrix, records)
    assert time.perf_counter() - start < 2.0  # a quadratic join takes minutes
    assert np.array_equal(out[:, 0], np.arange(FULL_CORPUS_IDS))


def test_duplicate_id_among_full_corpus_is_fast():
    ids = [f"interval_{i:05d}" for i in range(FULL_CORPUS_IDS)]
    data = write_embeddings(ids, np.zeros((FULL_CORPUS_IDS, 1), dtype=np.float32))
    corrupted = data.replace(b"interval_39743", b"interval_00007")
    start = time.perf_counter()
    with pytest.raises(EmbeddingFormatError, match="interval_00007"):
        read_embeddings(corrupted)
    assert time.perf_counter() - start < 2.0


def test_ingest_reports_mismatched_ids(rng):
    records = [{"id": f"r{i}"} for i in range(20)]
    matrix = np.zeros((3, 2), dtype=np.float32)
    with pytest.raises(EmbeddingFormatError) as exc:
        ingest_embeddings(["r0", "r1", "zzz"], matrix, records)
    message = str(exc.value)
    assert "missing 18" in message and "extra 1" in message and "zzz" in message


def _write_result_csv(path, concept, representation, test_metric):
    rows = [
        {
            "concept": concept,
            "representation": representation,
            "normalize": True,
            "model": "mlp",
            "batch_size": 64,
            "learning_rate": "0.001",
            "dropout": "0.5",
            "weight_decay": "0",
            "task": "classification",
            "n_classes": 4,
            "seed": 0,
            "best_epoch": 3,
            "epochs_run": 14,
            "val_metric": f"{test_metric + 0.01:.6f}",
            "test_metric": f"{test_metric:.6f}",
        }
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_result_csv_holds_full_grid(tmp_path):
    from earbench import probe as probe_mod
    from earbench.cli import write_result_csv

    specs = probe_mod.grid_specs("classification", 4)
    results = [probe_mod.ProbeResult(s, 2, 13, 0.5, 99) for s in specs]
    results[7].test_metric = 0.61
    path = tmp_path / "grid.csv"
    write_result_csv(path, "chords", "chroma", results, 99)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 216
    assert sum(1 for r in rows if r["test_metric"]) == 1  # only the selected row
    assert {r["model"] for r in rows} == {"linear", "mlp"}


def test_report_single_cell(tmp_path):
    _write_result_csv(tmp_path / "one.csv", "chords", "chroma", 0.91)
    cells = report.load_result_cells(tmp_path)
    table = report.build_table(cells)
    md = report.render_markdown(table)
    assert "| Chroma | 0.910 | 0.910* |" in md
    assert "1/7" in md


def test_report_markdown_and_csv_agree(tmp_path):
    _write_result_csv(tmp_path / "a.csv", "chords", "chroma", 0.9123)
    _write_result_csv(tmp_path / "b.csv", "notes", "chroma", 0.8456)
    _write_result_csv(tmp_path / "c.csv", "chords", "mel", 0.7)
    table = report.build_table(report.load_result_cells(tmp_path))
    md = report.render_markdown(table)
    as_csv = report.render_csv(table)
    for number in ("0.912", "0.846", "0.700", f"{(0.9123 + 0.8456) / 2:.3f}"):
        assert number in md and number in as_csv
    # preferred row order puts mel before chroma
    assert as_csv.index("mel,") < as_csv.index("chroma,")


def test_report_missing_cells_rendered_as_dash(tmp_path):
    _write_result_csv(tmp_path / "a.csv", "chords", "chroma", 0.9)
    _write_result_csv(tmp_path / "b.csv", "notes", "mel", 0.8)
    md = report.render_markdown(report.build_table(report.load_result_cells(tmp_path)))
    assert report.MISSING_CELL in md


def test_cli_unknown_concept_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--concept", "keys", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_cli_unwritable_output_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--concept", "notes", "--out", "/dev/null/sub", "--manifest-only"])
    assert exc.value.code == 2


def test_cli_missing_manifest_is_runtime_error(tmp_path, capsys):
    rc = main(
        [
            "extract",
            "--concept",
            "chords",
            "--data",
            str(tmp_path),
            "--feature",
            "mel",
            "--out",
            str(tmp_path / "x.emb"),
        ]
    )
    assert rc == 1
    assert "manifest" in capsys.readouterr().err


def test_cli_generate_prints_counts(tmp_path, capsys):
    rc = main(
        ["generate", "--concept", "tempo", "--out", str(tmp_path), "--seed", "3", "--manifest-only"]
    )
    assert rc == 0
    assert "tempo: 4025 samples" in capsys.readouterr().out


def test_cli_probe_id_mismatch(tmp_path, capsys):
    main(["generate", "--concept", "chords", "--out", str(tmp_path), "--seed", "3", "--manifest-only"])
    from earbench.embeddings import write_embeddings_file

    write_embeddings_file(
        tmp_path / "bad.emb", ["nonexistent"], np.zeros((1, 4), dtype=np.float32)
    )
    rc = main(
        [
            "probe",
            "--concept",
            "chords",
            "--data",
            str(tmp_path),
            "--embeddings",
            str(tmp_path / "bad.emb"),
            "--preset",
            "lm-default",
            "--out",
            str(tmp_path / "out.csv"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "nonexistent" in err and "missing" in err


def test_cli_report_without_results_is_runtime_error(tmp_path, capsys):
    rc = main(["report", "--results", str(tmp_path), "--out", str(tmp_path / "t.md")])
    assert rc == 1


def test_cli_small_pipeline_round_trip(tmp_path, capsys):
    data = tmp_path / "data"
    results = tmp_path / "results"
    results.mkdir()
    emb = tmp_path / "scales_chroma.emb"
    assert main(["generate", "--concept", "scales", "--out", str(data), "--seed", "5",
                 "--subsample", "0.01", "--workers", "1"]) == 0
    assert main(["extract", "--concept", "scales", "--data", str(data), "--feature", "chroma",
                 "--out", str(emb), "--workers", "1"]) == 0
    assert main(["probe", "--concept", "scales", "--data", str(data), "--embeddings", str(emb),
                 "--preset", "lm-default", "--seed", "5", "--out", str(results / "scales_chroma.csv"),
                 "--name", "chroma", "--workers", "1"]) == 0
    assert main(["report", "--results", str(results), "--out", str(tmp_path / "table.csv")]) == 0
    out = capsys.readouterr().out
    assert "scales: 161 samples" in out  # 7 modes x ceil(0.01 * 2208)
    assert "selected" in out
    table = (tmp_path / "table.csv").read_text()
    assert table.splitlines()[0].startswith("representation,scales")
    # grid row count contract for the preset path
    with open(results / "scales_chroma.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 1


def test_cli_extract_same_bytes_with_one_or_two_workers(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "--concept", "chords", "--out", str(data), "--seed", "5",
                 "--subsample", "0.0008", "--workers", "2"]) == 0
    outputs = []
    for workers in ("1", "2"):
        emb = tmp_path / f"chords_aggregate_{workers}.emb"
        assert main(["extract", "--concept", "chords", "--data", str(data), "--feature", "aggregate",
                     "--out", str(emb), "--workers", workers]) == 0
        outputs.append(emb.read_bytes())
    assert outputs[0] == outputs[1]
