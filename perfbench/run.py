"""End-to-end benchmark of the earbench CLI, run the way its users run it.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload desk-pipeline --seed 11 --seconds 20 --trace 0

One process runs earbench commands one after another, each as a child
process (`python3 -m earbench.cli ...` with PYTHONPATH=src), with
--workers 2 and with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS removed from its environment, as in a user's shell. After a
set-up, the run repeats whole rounds of the workload's timed commands until
--seconds have passed, and checks every round's outputs.

The last line of stdout is one JSON object: correct, attempted and failed
(program commands), and metrics. With --trace 0 the metrics are the
end-to-end ones, medians over the rounds; with --trace 1 every command runs
through traced_cli.py and the metrics are the per-layer ones. A readable
table with sample counts goes to stderr. See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

WORKERS = 2
# The CLI runs at seed 11, the fixed desk-scale run the ROADMAP defines, so
# desk-pipeline and probe-grid time the same program inputs whatever the
# workload seed. The workload seed drives the inputs the benchmark writes
# itself: the external-embeddings vectors.
CLI_SEED = 11
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_DEADLINE_S = 170.0  # a run must end within 180 s

# (concept, feature kind, --subsample): the desk-pipeline inputs. Tempo
# cannot go below one clip per BPM value (161); the other fractions keep a
# round near 16 s on two cores, so that a run fits three rounds.
DESK_INPUTS = [
    ("chords", "chroma", 0.0015),  # 4 x 5 clips, additive notes
    ("progressions", "aggregate", 0.0009),  # 19 x 1, additive notes
    ("time_signatures", "mel", 0.04),  # 8 x 6, clicks with Schroeder reverb
    ("tempo", "mfcc", 0.04),  # 161 x 1, dry clicks
]
GRID_INPUT = ("chords", "chroma", 0.003)  # 4 x 10 clips
STAGE_SAMPLE = ("chords", "mel", 0.0075)  # 4 x 25 clips
MEL_CHECK_CLIPS = 2  # per mel-bearing embedding
EXTERNAL_DIM = 32
EXTERNAL_IDS = 13248  # the full chords manifest


def thread_free_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def process_age() -> float:
    """Seconds since this process started, from /proc/self/stat."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


@dataclass
class Command:
    args: list[str]
    clips: int = 0  # clips rendered or extracted, for the stage rates

    @property
    def stage(self) -> str:
        return self.args[0]


@dataclass
class Outcome:
    stage: str
    clips: int
    seconds: float
    rss_mb: float
    ok: bool
    trace_dir: Path | None


class Runner:
    """Runs earbench commands as child processes and keeps their outcomes."""

    def __init__(self, out: Path, deadline: float):
        self.out = out
        self.deadline = deadline
        self.log = open(out / "commands.log", "ab")
        self.attempted = 0
        self.failed = 0

    def close(self):
        self.log.close()

    def run(self, cmd: Command, traced: bool = False) -> Outcome:
        self.attempted += 1
        env = thread_free_env()
        trace_dir = None
        if traced:
            trace_dir = self.out / "trace" / f"{self.attempted:04d}-{cmd.stage}"
            trace_dir.mkdir(parents=True)
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), *cmd.args]
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        else:
            argv = [sys.executable, "-m", "earbench.cli", *cmd.args]
        self.log.write(f"$ {' '.join(cmd.args)}\n".encode())
        self.log.flush()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=self.log, stderr=self.log, start_new_session=True)
        killer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            # wait4 reports the largest of the child and its waited-for pool workers
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = proc.returncode == 0
        if not ok:
            self.failed += 1
            print(f"perfbench: `earbench {' '.join(cmd.args)}` exited {proc.returncode}", file=sys.stderr)
        return Outcome(cmd.stage, cmd.clips, seconds, usage.ru_maxrss / 1024.0, ok, trace_dir)

    def run_all(self, commands: list[Command], traced: bool = False) -> list[Outcome]:
        """Runs commands in order; after a failure the rest count as failed too."""
        outcomes = []
        for cmd in commands:
            if outcomes and not outcomes[-1].ok:
                self.attempted += 1
                self.failed += 1
                outcomes.append(Outcome(cmd.stage, cmd.clips, 0.0, 0.0, False, None))
            else:
                outcomes.append(self.run(cmd, traced))
        return outcomes


# ---------------------------------------------------------------------------
# workloads


def generate_cmd(concept, out, fraction) -> Command:
    args = ["generate", "--concept", concept, "--out", str(out), "--seed", str(CLI_SEED),
            "--subsample", repr(fraction), "--workers", str(WORKERS)]  # fmt: skip
    return Command(args, checks.expected_rows(concept, fraction))


def extract_cmd(concept, data, kind, emb, fraction) -> Command:
    args = ["extract", "--concept", concept, "--data", str(data), "--feature", kind, "--out", str(emb),
            "--workers", str(WORKERS)]  # fmt: skip
    return Command(args, checks.expected_rows(concept, fraction))


def probe_cmd(concept, data, emb, csv_path, name, grid=False) -> Command:
    mode = ["--grid"] if grid else ["--preset", "lm-default"]
    args = ["probe", "--concept", concept, "--data", str(data), "--embeddings", str(emb), *mode,
            "--seed", str(CLI_SEED), "--out", str(csv_path), "--name", name, "--workers", str(WORKERS)]  # fmt: skip
    return Command(args)


def check_rendered(data: Path, concept: str, fraction: float) -> list[dict]:
    """Manifest cardinalities, every WAV, and chord MIDI; returns the records."""
    concept_dir = data / concept
    with open(concept_dir / "manifest.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    checks.check_manifest(records, concept, fraction)
    for r in records:
        # A tempo record whose random offset lies past the clip end renders no
        # click at all, a fault of the tempo record builder that only some
        # seeds hit; such a clip is checked for format but not for sound.
        audible = r.get("offset_s", 0.0) < checks.CLIP_SAMPLES / checks.SAMPLE_RATE
        checks.check_wav(concept_dir / r["wav_path"], audible)
        if concept == "chords":
            checks.check_chord_midi(concept_dir / r["midi_path"], r)
    return records


def check_extracted(data: Path, concept: str, kind: str, emb: Path, records: list[dict]):
    ids, matrix = checks.read_synemb(emb)
    rows = checks.check_embedding(ids, matrix, [r["id"] for r in records], kind)
    if concept == "chords" and kind == "chroma":
        checks.check_chroma_triads(rows, records)
    if kind in ("mel", "aggregate"):
        for r in records[:MEL_CHECK_CLIPS]:
            clip = checks.read_clip(data / concept / r["wav_path"])
            checks.check_mel_mean(clip, rows[r["id"]], r["id"])


class DeskPipeline:
    """generate -> extract -> probe --preset lm-default -> report over four
    concept/feature pairs; every stage timed."""

    def __init__(self, out, seed):
        self.out = out

    def setup(self, runner: Runner):
        # one cold start of the CLI, which also proves the program runs
        runner.run(Command(["--help"]))
        return []

    def commands(self, r: Path) -> list[Command]:
        data, emb, res = r / "data", r / "emb", r / "results"
        emb.mkdir()
        res.mkdir()
        cmds = [generate_cmd(c, data, f) for c, _, f in DESK_INPUTS]
        cmds += [extract_cmd(c, data, k, emb / f"{c}_{k}.emb", f) for c, k, f in DESK_INPUTS]
        cmds += [probe_cmd(c, data, emb / f"{c}_{k}.emb", res / f"{c}_{k}.csv", k) for c, k, _ in DESK_INPUTS]
        cmds.append(Command(["report", "--results", str(res), "--out", str(r / "table.md")]))
        return cmds

    def check(self, r: Path):
        data = r / "data"
        for concept, kind, fraction in DESK_INPUTS:
            records = check_rendered(data, concept, fraction)
            check_extracted(data, concept, kind, r / "emb" / f"{concept}_{kind}.emb", records)
            metric = checks.check_preset_csv(checks.read_csv(r / "results" / f"{concept}_{kind}.csv"), concept)
            if concept == "tempo":
                checks.check_r2_positive(metric, concept)
        csvs = sorted((r / "results").glob("*.csv"))
        checks.check_report((r / "table.md").read_text(encoding="utf-8"), csvs)


class ProbeGrid:
    """probe --grid over all 216 configurations on a small chords/chroma
    embedding that the set-up generates and extracts."""

    def __init__(self, out, seed):
        self.out = out
        self.data, self.emb = out / "input", out / "input" / "chords_chroma.emb"

    def setup(self, runner: Runner):
        concept, kind, fraction = GRID_INPUT
        outcomes = runner.run_all([
            generate_cmd(concept, self.data, fraction),
            extract_cmd(concept, self.data, kind, self.emb, fraction),
        ])  # fmt: skip
        if all(o.ok for o in outcomes):
            records = check_rendered(self.data, concept, fraction)
            check_extracted(self.data, concept, kind, self.emb, records)
        return outcomes

    def commands(self, r: Path) -> list[Command]:
        return [probe_cmd("chords", self.data, self.emb, r / "grid.csv", "chroma", grid=True)]

    def check(self, r: Path):
        checks.check_grid_csv(checks.read_csv(r / "grid.csv"))


class ExternalEmbeddings:
    """probe --preset lm-default against the full chords manifest with
    random float32 vectors that the benchmark writes as SYNEMB1.

    The vectors are a fixed draw (seed 11, like the CLI): how long a probe
    trains on noise depends on when its validation accuracy happens to peak,
    which differs by 2.5x between draws. The workload seed shuffles the order
    of the ids in the file, which the program's join must undo. The probe
    never touches audio; each round also renders and extracts a small chords
    sample, which gives this workload its generate and extract rates without
    entering probe_s.
    """

    def __init__(self, out, seed):
        self.out, self.seed = out, seed
        self.data, self.emb = out / "input", out / "input" / "random.emb"

    def setup(self, runner: Runner):
        outcomes = runner.run_all([Command(["generate", "--concept", "chords", "--out", str(self.data),
                                            "--seed", str(CLI_SEED), "--manifest-only"])])  # fmt: skip
        if outcomes[0].ok:
            with open(self.data / "chords" / "manifest.jsonl", encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh if line.strip()]
            checks.check_manifest(records, "chords", 1.0)
            ids = [r["id"] for r in records]
            matrix = np.random.default_rng(CLI_SEED).standard_normal((len(ids), EXTERNAL_DIM)).astype("<f4")
            order = np.random.default_rng(self.seed).permutation(len(ids))
            write_synemb(self.emb, [ids[i] for i in order], matrix[order])
        return []

    def commands(self, r: Path) -> list[Command]:
        concept, kind, fraction = STAGE_SAMPLE
        return [
            generate_cmd(concept, r / "data", fraction),
            extract_cmd(concept, r / "data", kind, r / "sample.emb", fraction),
            probe_cmd("chords", self.data, self.emb, r / "external.csv", "random"),
        ]

    def check(self, r: Path):
        concept, kind, fraction = STAGE_SAMPLE
        check_extracted(r / "data", concept, kind, r / "sample.emb", check_rendered(r / "data", concept, fraction))
        accuracy = checks.check_preset_csv(checks.read_csv(r / "external.csv"), "chords")
        n_test = round(0.15 * EXTERNAL_IDS)  # the 70/15/15 protocol split
        checks.check_near_chance(accuracy, n_test)


def write_synemb(path: Path, ids: list[str], matrix: np.ndarray):
    """SYNEMB1 as documented: magic, dim, count, length-prefixed ids, float32 rows."""
    parts = [b"SYNEMB1", np.array([matrix.shape[1], len(ids)], dtype="<u4").tobytes()]
    for sid in ids:
        encoded = sid.encode("utf-8")
        parts += [np.array([len(encoded)], dtype="<u4").tobytes(), encoded]
    parts.append(np.ascontiguousarray(matrix, dtype="<f4").tobytes())
    path.write_bytes(b"".join(parts))


WORKLOADS = {
    "desk-pipeline": DeskPipeline,
    "probe-grid": ProbeGrid,
    "external-embeddings": ExternalEmbeddings,
}


# ---------------------------------------------------------------------------
# metrics

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("generate_clips_per_s", "clips/s"),
    ("extract_clips_per_s", "clips/s"),
    ("probe_s", "s"),
    ("peak_rss_mb", "MiB"),
]


def end_to_end(setup_s: float, setup: list[Outcome], rounds: list[list[Outcome]]) -> dict[str, tuple[float, int]]:
    """metric -> (value, sample count).

    Every round runs the same commands, so each command's time is its median
    over the rounds, and the timings add those medians: a slow start of one
    command in one round does not carry the round's total with it. A stage
    rate that the rounds do not time comes from the set-up's commands.
    """
    median = [statistics.median(rnd[i].seconds for rnd in rounds) for i in range(len(rounds[0]))]
    commands = [(o.stage, o.clips, t) for o, t in zip(rounds[0], median)]

    def stage_rate(stage):
        done = [(clips, t) for s, clips, t in commands if s == stage]
        done = done or [(o.clips, o.seconds) for o in setup if o.stage == stage]
        return sum(c for c, _ in done) / sum(t for _, t in done)

    n = len(rounds)
    return {
        "setup_s": (setup_s, 1),
        "wall_s": (sum(median), n),
        "generate_clips_per_s": (stage_rate("generate"), n),
        "extract_clips_per_s": (stage_rate("extract"), n),
        "probe_s": (sum(t for s, _, t in commands if s == "probe"), n),
        "peak_rss_mb": (max(o.rss_mb for rnd in rounds for o in rnd), n),
    }


def per_layer(rounds: list[list[Outcome]]) -> dict[str, tuple[float, int]]:
    per_round = [tracing.layer_metrics([o.trace_dir for o in rnd]) for rnd in rounds]
    return {name: (statistics.median(m[name] for m in per_round), len(per_round)) for name, _, _ in tracing.LAYER_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S - process_age()

    if not (SRC / "earbench" / "cli.py").is_file():
        print(f"perfbench: no earbench sources under {SRC}", file=sys.stderr)
        return 2
    out = OUT_ROOT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runner = Runner(out, deadline)
    workload = WORKLOADS[args.workload](out, args.seed)
    correct = True
    try:
        try:
            setup = workload.setup(runner)
        except checks.CheckFailed as exc:
            print(f"perfbench: set-up output check failed: {exc}", file=sys.stderr)
            correct, setup = False, []
        setup_s = process_age()
        print("perfbench: set-up: " + ", ".join(f"{o.stage} {o.seconds:.3f}s" for o in setup), file=sys.stderr)
        if runner.failed:
            correct = False

        rounds: list[list[Outcome]] = []
        measure_start = time.perf_counter()
        while correct and (not rounds or time.perf_counter() - measure_start < args.seconds):
            round_dir = out / f"round{len(rounds)}"
            round_dir.mkdir()
            outcomes = runner.run_all(workload.commands(round_dir), traced=bool(args.trace))
            rounds.append(outcomes)
            print(f"perfbench: round {len(rounds) - 1}: " + ", ".join(f"{o.stage} {o.seconds:.3f}s" for o in outcomes), file=sys.stderr)
            if all(o.ok for o in outcomes):
                try:
                    workload.check(round_dir)
                except checks.CheckFailed as exc:
                    print(f"perfbench: round {len(rounds) - 1} output check failed: {exc}", file=sys.stderr)
                    correct = False
            shutil.rmtree(round_dir / "data", ignore_errors=True)
    finally:
        runner.close()

    if not rounds:
        print("perfbench: set-up failed; no round ran", file=sys.stderr)
        metrics = {}
    elif args.trace:
        metrics = per_layer(rounds)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        wall, n = end_to_end(setup_s, setup, rounds)["wall_s"]
        print(f"perfbench: traced wall_s {wall:.4f} s over {n} rounds", file=sys.stderr)
    else:
        metrics = end_to_end(setup_s, setup, rounds)
        units = dict(END_TO_END)
    for name, (value, n) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {units[name]:8s} n={n}", file=sys.stderr)
    print(f"  attempted {runner.attempted} commands, {runner.failed} failed", file=sys.stderr)
    machine = subprocess.run([sys.executable, str(BENCH_DIR / "machine.py")], env=thread_free_env(),
                             capture_output=True, text=True, timeout=30)  # fmt: skip
    print(f"perfbench: machine {machine.stdout.strip()}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
