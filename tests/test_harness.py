import builtins
import csv
import errno
import io
import json
import os
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from earbench import probe, report
from earbench.cli import main
from earbench.embeddings import (
    CHECK_BLOCK_BYTES,
    MAGIC,
    EmbeddingFormatError,
    ingest_embeddings,
    read_embeddings,
    write_embeddings,
    write_embeddings_file,
)
from earbench.probe import ProbeResult, ProbeSpec, grid_specs
from blas_count import blas_thread_count, caller_blas_threads


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


@pytest.mark.parametrize("layout", ["float32", "transposed", "float64"])
def test_embedding_file_holds_write_embeddings_bytes(tmp_path, rng, layout):
    ids = [f"s{i:03d}" for i in range(6)]
    matrix = {
        "float32": rng.standard_normal((6, 5)).astype(np.float32),
        "transposed": rng.standard_normal((5, 6)).astype(np.float32).T,
        "float64": rng.standard_normal((6, 5)),
    }[layout]
    write_embeddings_file(tmp_path / "x.emb", ids, matrix)
    assert (tmp_path / "x.emb").read_bytes() == write_embeddings(ids, matrix)


def test_embedding_bad_magic():
    with pytest.raises(EmbeddingFormatError, match="offset 0"):
        read_embeddings(b"NOTEMB1" + b"\x00" * 32)


def test_embedding_truncated_payload(rng):
    data = write_embeddings(["a", "b"], rng.standard_normal((2, 4)).astype(np.float32))
    with pytest.raises(EmbeddingFormatError, match="truncated"):
        read_embeddings(data[:-5])


def test_embedding_zero_dim_names_offset():
    header = MAGIC + struct.pack("<II", 0, 1) + struct.pack("<I", 1) + b"a"
    with pytest.raises(EmbeddingFormatError, match="dim 0 at offset 7"):
        read_embeddings(header)


def test_embedding_writer_rejects_zero_columns():
    with pytest.raises(ValueError, match="no columns"):
        write_embeddings(["a"], np.zeros((1, 0), dtype=np.float32))


def test_embedding_non_utf8_id_names_offset():
    data = write_embeddings(["ab"], np.ones((1, 2), dtype=np.float32))
    bad = data.replace(b"ab", b"a\xff")
    with pytest.raises(EmbeddingFormatError, match="id at offset 19 is not UTF-8"):
        read_embeddings(bad)


def test_embedding_trailing_bytes_name_offset(rng):
    data = write_embeddings(["a", "b"], rng.standard_normal((2, 4)).astype(np.float32))
    with pytest.raises(EmbeddingFormatError, match=f"3 trailing bytes at offset {len(data)}"):
        read_embeddings(data + b"\x00" * 3)


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


def test_ingest_rejects_non_finite_rows_by_id():
    records = [{"id": f"r{i}"} for i in range(4)]
    matrix = np.ones((4, 3), dtype=np.float32)
    matrix[1, 2] = np.nan
    matrix[3, 0] = -np.inf
    with pytest.raises(EmbeddingFormatError, match=r"non-finite values in 2 rows \(first \['r1', 'r3'\]\)"):
        ingest_embeddings([r["id"] for r in records], matrix, records)


def test_ingest_peak_memory_is_one_copy_plus_one_block(rng):
    """The non-finite check masks one block of rows at a time: ingest's peak
    is the gathered copy plus one block, plus the id join's dicts and lists
    (about 380 KB for 4,000 ids), where a whole-matrix mask adds 4 MB."""
    ids = [f"r{i:04d}" for i in range(4000)]
    records = [{"id": sid} for sid in reversed(ids)]
    matrix = rng.standard_normal((4000, 1000)).astype(np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        x = ingest_embeddings(ids, matrix, records)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes + CHECK_BLOCK_BYTES + 512 * 1024
    # rows in different blocks are reported in manifest order
    matrix[[5, 3990], [0, 999]] = np.nan
    with pytest.raises(EmbeddingFormatError, match=r"non-finite values in 2 rows \(first \['r3990', 'r0005'\]\)"):
        ingest_embeddings(ids, matrix, records)


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


# Run in a fresh process, so that its peak RSS counts only this write.
WRITE_PEAK_SCRIPT = """
import resource, sys
import numpy as np
from earbench.embeddings import write_embeddings_file
ids = [f"interval_{i:05d}" for i in range(int(sys.argv[2]))]
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
matrix = np.full((len(ids), 960), 0.5, np.float32)
write_embeddings_file(sys.argv[1], ids, matrix)
print(base, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, matrix.nbytes)
"""


def test_full_corpus_embedding_write_adds_no_copy_of_the_matrix(tmp_path):
    """At the intervals aggregate shape (146 MiB of float32), the write adds the
    matrix itself and the id table to the peak, not a bytes payload and its join."""
    out = tmp_path / "intervals_aggregate.emb"
    src = str(Path(probe.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", WRITE_PEAK_SCRIPT, str(out), str(FULL_CORPUS_IDS)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    base_kib, peak_kib, nbytes = map(int, proc.stdout.split())
    assert (peak_kib - base_kib) * 1024 <= 1.3 * nbytes
    ids_bytes = sum(4 + len(f"interval_{i:05d}") for i in range(FULL_CORPUS_IDS))
    assert out.stat().st_size == len(MAGIC) + 8 + ids_bytes + nbytes


def test_ingest_reports_mismatched_ids(rng):
    records = [{"id": f"r{i}"} for i in range(20)]
    matrix = np.zeros((3, 2), dtype=np.float32)
    with pytest.raises(EmbeddingFormatError) as exc:
        ingest_embeddings(["r0", "r1", "zzz"], matrix, records)
    message = str(exc.value)
    assert "missing 18" in message and "extra 1" in message and "zzz" in message


def _write_result_csv(path, concept, representation, test_metric):
    spec = ProbeSpec(True, "mlp", 64, 1e-3, 0.5, 0.0, "classification", 4)
    result = ProbeResult(spec, 3, 14, test_metric + 0.01, 0, test_metric)
    report.write_result_csv(path, concept, representation, [result])


def test_result_csv_holds_full_grid(tmp_path):
    results = [ProbeResult(s, 2, 13, 0.5, 99) for s in grid_specs("classification", 4)]
    results[7].test_metric = 0.61
    path = tmp_path / "grid.csv"
    report.write_result_csv(path, "chords", "chroma", results)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 216
    assert sum(1 for r in rows if r["test_metric"]) == 1  # only the selected row
    assert {r["model"] for r in rows} == {"linear", "mlp"}


def test_result_csv_bytes(tmp_path):
    """The exact text that report and the benchmark checks both parse."""
    results = [
        ProbeResult(ProbeSpec(True, "mlp", 64, 1e-3, 0.5, 0.0, "classification", 4), 3, 14, 0.75, 7, 0.912345),
        ProbeResult(ProbeSpec(False, "linear", 256, 1e-5, 0.25, 1e-4, "classification", 4), 0, 11, 0.5, 8),
        ProbeResult(ProbeSpec(False, "mlp", 64, 1e-4, 0.75, 1e-3, "classification", 4), 12, 23, 1 / 3, 9),
    ]
    path = tmp_path / "results.csv"
    report.write_result_csv(path, "chords", "chroma", results)
    assert path.read_bytes() == (
        b"concept,representation,normalize,model,batch_size,learning_rate,dropout,weight_decay,"
        b"task,n_classes,seed,best_epoch,epochs_run,val_metric,test_metric\r\n"
        b"chords,chroma,True,mlp,64,0.001,0.5,0,classification,4,7,3,14,0.750000,0.912345\r\n"
        b"chords,chroma,False,linear,256,1e-05,0.25,0.0001,classification,4,8,0,11,0.500000,\r\n"
        b"chords,chroma,False,mlp,64,0.0001,0.75,0.001,classification,4,9,12,23,0.333333,\r\n"
    )


def test_report_skips_writer_temp_files(tmp_path):
    _write_result_csv(tmp_path / "a.csv", "chords", "chroma", 0.9)
    # what an interrupted write of b.csv leaves behind; its rows must not count
    _write_result_csv(tmp_path / "b.csv", "notes", "mel", 0.8)
    (tmp_path / "b.csv").rename(tmp_path / ".b.csv.12345.tmp")
    assert report.load_result_cells(tmp_path) == {("chroma", "chords"): 0.9}


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


def test_cli_bad_subsample_creates_no_output_dir(tmp_path):
    out = tmp_path / "new" / "x"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--concept", "notes", "--out", str(out), "--subsample", "0"])
    assert exc.value.code == 2
    assert not (tmp_path / "new").exists()


def test_cli_workers_default_when_cpu_count_unknown(tmp_path, monkeypatch):
    """`os.cpu_count()` returns None when the count is unknown: --workers then defaults to 1."""
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert main(["generate", "--concept", "time_signatures", "--out", str(tmp_path),
                 "--subsample", "0.001"]) == 0
    assert len(list((tmp_path / "time_signatures" / "audio").iterdir())) == 8


@pytest.mark.parametrize("command", ["extract", "probe"])
@pytest.mark.parametrize(
    "bad_line, problem",
    [('{"id": "b",}', "not a JSON record"), ('["b"]', "not a record object"), ('{"bpm": 90}', "not a record object"),
     ('{"id": 5}', "not a record object with a string id")],
)
def test_cli_bad_manifest_line_names_file_and_line(tmp_path, capsys, command, bad_line, problem):
    manifest = tmp_path / "chords" / "manifest.jsonl"
    manifest.parent.mkdir()
    manifest.write_text('{"id": "a"}\n\n' + bad_line + "\n")
    assert main(_chords_argv(tmp_path)[command]) == 1
    err = capsys.readouterr().err
    assert f"error: {manifest}:3: {problem}" in err


def _chords_argv(root):
    """extract and lm-default probe argv over the chords manifest under `root`, with x.emb and x.csv there."""
    return {
        "extract": ["extract", "--concept", "chords", "--data", str(root), "--feature", "chroma",
                    "--out", str(root / "x.emb"), "--workers", "1"],
        "probe": ["probe", "--concept", "chords", "--data", str(root), "--embeddings",
                  str(root / "x.emb"), "--preset", "lm-default", "--out", str(root / "x.csv")],
    }


@pytest.mark.parametrize("command", ["extract", "probe"])
def test_cli_empty_manifest_names_its_path(tmp_path, capsys, command):
    manifest = tmp_path / "chords" / "manifest.jsonl"
    manifest.parent.mkdir()
    manifest.write_text("\n")
    assert main(_chords_argv(tmp_path)[command]) == 1
    assert f"error: {manifest}: no records" in capsys.readouterr().err


def test_cli_record_without_label_field_names_id_and_field(tmp_path, capsys):
    manifest = tmp_path / "chords" / "manifest.jsonl"
    manifest.parent.mkdir()
    manifest.write_text('{"id": "a", "quality": "major"}\n{"id": "b"}\n')
    assert main(_chords_argv(tmp_path)["probe"]) == 1
    assert "error: record 'b' has no chords label field 'quality'" in capsys.readouterr().err


def test_cli_record_without_wav_path_names_manifest_and_id(tmp_path, capsys):
    manifest = tmp_path / "chords" / "manifest.jsonl"
    manifest.parent.mkdir()
    manifest.write_text('{"id": "a", "quality": "major"}\n')
    assert main(_chords_argv(tmp_path)["extract"]) == 1
    assert f"error: {manifest}: record 'a' has no 'wav_path'" in capsys.readouterr().err
    assert not (tmp_path / "x.emb").exists()


@pytest.mark.parametrize("command", ["extract", "probe"])
def test_cli_repeated_manifest_id_names_both_lines(chords_run, tmp_path, capsys, command):
    """A repeated id would put one clip, and its embedding row, in two splits."""
    data, emb, _ = chords_run
    lines = (data / "chords" / "manifest.jsonl").read_text().splitlines(keepends=True)
    manifest = tmp_path / "chords" / "manifest.jsonl"
    manifest.parent.mkdir()
    manifest.write_text("".join(lines + lines[1:2]))
    (tmp_path / "chords" / "audio").symlink_to(data / "chords" / "audio")
    (tmp_path / "x.emb").symlink_to(emb)
    assert main(_chords_argv(tmp_path)[command]) == 1
    sample_id = json.loads(lines[1])["id"]
    assert f"error: {manifest}:{len(lines) + 1}: id {sample_id!r} repeats line 2" in capsys.readouterr().err


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


def test_cli_small_pipeline_round_trip(tmp_path, capsys, monkeypatch):
    """Also: an extraction hands the caller's BLAS thread count back before
    a `--workers 1` probe in the same process starts, so `probe.train` is
    entered on the caller's count, not on extraction's one thread."""
    data = tmp_path / "data"
    results = tmp_path / "results"
    results.mkdir()
    emb = tmp_path / "scales_chroma.emb"
    train_threads = []
    real_train = probe.train

    def train(*args):
        train_threads.append(blas_thread_count())
        return real_train(*args)

    monkeypatch.setattr(probe, "train", train)
    with caller_blas_threads(2):
        assert main(["generate", "--concept", "scales", "--out", str(data), "--seed", "5",
                     "--subsample", "0.01", "--workers", "1"]) == 0
        assert main(["extract", "--concept", "scales", "--data", str(data), "--feature", "chroma",
                     "--out", str(emb), "--workers", "1"]) == 0
        assert main(["probe", "--concept", "scales", "--data", str(data), "--embeddings", str(emb),
                     "--preset", "lm-default", "--seed", "5", "--out", str(results / "scales_chroma.csv"),
                     "--name", "chroma", "--workers", "1"]) == 0
    assert train_threads == [None if blas_thread_count() is None else 2]
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


@pytest.mark.parametrize("concept, subsample", [("chords", "0.002"), ("time_signatures", "0.02")])
def test_cli_generate_same_files_with_one_or_two_workers(tmp_path, concept, subsample):
    trees = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main(["generate", "--concept", concept, "--out", str(out), "--seed", "11",
                     "--subsample", subsample, "--workers", workers]) == 0
        trees.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(trees[0]) > 40  # manifest, MIDI and WAV files
    assert trees[0] == trees[1]


@pytest.fixture(scope="module")
def chords_run(tmp_path_factory):
    """A small chords dataset with its chroma embeddings and one probe result."""
    root = tmp_path_factory.mktemp("chords_run")
    data, emb, results = root / "data", root / "chords_chroma.emb", root / "results"
    results.mkdir()
    assert main(["generate", "--concept", "chords", "--out", str(data), "--seed", "5",
                 "--subsample", "0.0008", "--workers", "1"]) == 0
    assert main(["extract", "--concept", "chords", "--data", str(data), "--feature", "chroma",
                 "--out", str(emb), "--workers", "1"]) == 0
    assert main(["probe", "--concept", "chords", "--data", str(data), "--embeddings", str(emb),
                 "--preset", "lm-default", "--out", str(results / "chords_chroma.csv")]) == 0
    return data, emb, results


class _HalfWrite:
    """A file whose first write stores half its data, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("command", ["extract", "probe", "report"])
def test_cli_output_cut_off_midway_leaves_no_file(chords_run, tmp_path, monkeypatch, capsys, command):
    data, emb, results = chords_run
    out = tmp_path / "out"
    out.mkdir()
    argv = {
        "extract": ["extract", "--concept", "chords", "--data", str(data), "--feature", "chroma",
                    "--out", str(out / "chords_chroma.emb"), "--workers", "1"],
        "probe": ["probe", "--concept", "chords", "--data", str(data), "--embeddings", str(emb),
                  "--preset", "lm-default", "--out", str(out / "chords_chroma.csv")],
        "report": ["report", "--results", str(results), "--out", str(out / "table.md")],
    }[command]
    real_open = io.open

    def cutting_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _HalfWrite(fh) if "w" in mode and Path(file).parent == out else fh

    # every way of opening a file for writing: Path.write_*, open() and io.open()
    monkeypatch.setattr(io, "open", cutting_open)
    monkeypatch.setattr(builtins, "open", cutting_open)
    assert main(argv) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["extract", "probe"])
def test_cli_write_error_names_out_path(chords_run, tmp_path, capsys, command):
    """An --out inside a missing directory fails naming that path, not the
    temporary file beside it."""
    data, emb, _ = chords_run
    out = tmp_path / "nodir" / "x.out"
    argv = {
        "extract": ["extract", "--concept", "chords", "--data", str(data), "--feature", "chroma",
                    "--out", str(out), "--workers", "1"],
        "probe": ["probe", "--concept", "chords", "--data", str(data), "--embeddings", str(emb),
                  "--preset", "lm-default", "--out", str(out)],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: [Errno 2] No such file or directory: '{out}'" in err
    assert ".tmp" not in err
