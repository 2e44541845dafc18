"""Benchmark driver for omexarchive.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program is run from
``src/`` as it stands; nothing is installed. All files go under
``.perfbench_work/WORKLOAD/`` in the checkout.

Files there persist between runs and are rewritten in place, never
deleted: input file names do not depend on the seed, and before each
cycle every output file of the previous cycle is truncated to zero
length, so the commands write into existing empty files. On ext4
without a journal the inode allocator skips inodes freed in the last
minutes, so deleting thousands of files slows every later file creation
for minutes and times would depend on what ran before. ``unpack_ms``
therefore measures extraction, not inode allocation or the disk.

A closed loop with one client: each operation is its own child process
and starts only after the previous one has ended. One cycle is the
``omex`` command cycle ``pack --no-stamp --ext omex`` -> ``list --json``
-> ``validate --json`` -> ``meta set --touch --description`` ->
``unpack``, then the library edit session (``edit.py``). Cycles repeat
until ``--seconds`` have passed.

This process stays lean on purpose: a child's peak RSS as read by
``os.wait4`` starts at its parent's RSS, so the inputs are generated,
checked and hashed in other children and never pass through here.

Times are scaled to a reference speed of the host. On a shared host
the speed of a CPU changes in phases of seconds to minutes, so raw wall
times of the same code spread wider than any useful bound. Directly
before and after every timed command the driver runs ``reference.py``, a
fixed stdlib-only operation of similar make-up (interpreter start, XML,
zip, small file writes), and reports the command's wall time times
``REFERENCE_MS`` over the mean of the two reference times. The edit
session's body is timed inside its child in two parts: opening and
serializing archives, mostly C (zlib, expat) like the commands, is
scaled by the reference runs around the edit child; the mutations, which
run in Python, by a fixed pure-Python loop timed in the child just
before and after them (``REFERENCE_LOOP_MS``), which tracks Python code
more closely. With the loop alone for the whole body the edit time on
large-payload, where zlib dominates, spread by 23% over ten seeds. The
references never import the program, so a change to the program moves
the scaled time by the same share as the wall time. In a 150 s probe that alternated the
reference with ``omex list`` on a 1,500-entry archive, the medians of
14 s windows ranged over 0.74-1.12 of their overall median for raw wall
times and over 0.99-1.02 for scaled times. One reference run serves as
the "after" of one command and the "before" of the next. The driver and
every child are pinned to one CPU, so the reference times the CPU the
command ran on. Raw wall times are in the run record.

With ``--trace 0`` the end-to-end metrics are reported: per operation
the median scaled time (interpreter start included) and median peak
RSS, and ``setup_s``, the median scaled time of several input
generations. With ``--trace 1`` untraced and traced cycles alternate and the per-layer
metrics of the traced cycles are reported (see ``definitions.json``).
The last line of standard output is the result object; the line before
it records the run (seed, Python, CPUs, filesystem, sample counts).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PY = sys.executable
OMEX = [PY, "-c", "import sys; from omexarchive.cli import main; sys.exit(main())"]
WORKLOADS = ("many-small", "large-payload", "edit-session")
CLI_OPS = ("pack", "list", "validate", "meta_set", "unpack")
OPS = CLI_OPS + ("edit",)
EXPECTED_EXIT = {"pack": 0, "list": 0, "validate": 1, "meta_set": 0, "unpack": 0, "edit": 0}
SETUP_REPEATS = 3
# Scaled times are what an operation takes on a host that runs
# reference.py in this many ms (about its time on the 2-vCPU VM the
# benchmark was built on, in a quiet phase of that host).
REFERENCE_MS = 130.0
# The same for reference.loop_ms(), timed inside the edit session's child.
REFERENCE_LOOP_MS = 7.3
# A reference run is also the next child's "before" if no other child ran
# in between and it ended at most this long (s) before.
REFERENCE_REUSE_S = 0.5
SPAWNED = 0  # children started so far
DESCRIPTION = "benchmark description"


class Run:
    """Counts attempted and failed operations, and keeps a few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, op: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{op}: {errors[0]}")


class Reference:
    """Runs reference.py and keeps its wall times."""

    def __init__(self, work: Path):
        self.argv = [PY, HERE / "reference.py", work / "reference"]
        self.stdout = work / "reference.out"
        self.samples: list[float] = []
        self.ended, self.spawned = float("-inf"), -1

    def take(self) -> float:
        ms, _, code = spawn(self.argv, self.stdout)
        if code != 0:
            raise SystemExit(f"reference operation failed with exit code {code}")
        self.samples.append(ms)
        self.ended, self.spawned = time.perf_counter(), SPAWNED
        return ms

    def before(self) -> float:
        """The reference time just before a child, reusing the last if it just ended."""
        if (self.spawned == SPAWNED
                and time.perf_counter() - self.ended <= REFERENCE_REUSE_S):
            return self.samples[-1]
        return self.take()


REFERENCE: Reference | None = None


class Timed:
    """One finished child: wall ms, scale to the reference speed, peak RSS MiB
    and exit code."""

    def __init__(self, ms: float, scale: float, rss: float, code: int):
        self.ms, self.scale, self.rss, self.code = ms, scale, rss, code

    @property
    def scaled_ms(self) -> float:
        return self.ms * self.scale


def timed_spawn(argv, stdout: Path, stderr: Path | None = None) -> Timed:
    """spawn() between two runs of the reference operation."""
    before = REFERENCE.before()
    ms, rss, code = spawn(argv, stdout, stderr)
    after = REFERENCE.take()
    return Timed(ms, 2 * REFERENCE_MS / (before + after), rss, code)


def scaled_ms(samples: list[Timed]) -> float:
    return statistics.median(t.scaled_ms for t in samples)


def spawn(argv, stdout: Path, stderr: Path | None = None) -> tuple[float, float, int]:
    """Run one child to its end; returns (wall ms, peak RSS MiB, exit code)."""
    global SPAWNED
    SPAWNED += 1
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stdout, "wb") as out, open(stderr or os.devnull, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err,
                                 env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        elapsed = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return elapsed * 1000.0, usage.ru_maxrss / 1024.0, child.returncode


def last_json(path: Path):
    try:
        lines = path.read_text().strip().splitlines()
        return json.loads(lines[-1]) if lines else None
    except (OSError, ValueError):
        return None


def setup(work: Path, workload: str, seed: int, run: Run) -> tuple[Path, list[Timed]]:
    """Generate the inputs SETUP_REPEATS times into one directory."""
    generations, digests = [], []
    out = work / "inputs"
    for _ in range(SETUP_REPEATS):
        generation = timed_spawn([PY, HERE / "gen.py", "--workload", workload, "--seed", seed,
                                  "--out", out], work / "gen.out", work / "gen.err")
        result = last_json(work / "gen.out")
        if generation.code != 0 or result is None:
            raise SystemExit(f"input generation failed: {(work / 'gen.err').read_text()[-2000:]}")
        generations.append(generation)
        digests.append(result["digest"])
    run.record("setup", [] if len(set(digests)) == 1 else ["same seed gave other inputs"])
    _, _, code = spawn([PY, HERE / "gen.py", "--workload", workload, "--seed", seed + 1,
                        "--digest-only"], work / "gen.out", work / "gen.err")
    other = last_json(work / "gen.out")
    run.record("determinism", [] if code == 0 and other and other["digest"] != digests[0]
               else ["another seed gave the same inputs"])
    return out, generations


def prune_unpacked(work: Path, inputs: Path) -> None:
    """Delete files that inputs of other sizes left in the unpack destination."""
    root, tree = work / "out" / "unpacked", inputs / "tree"
    if root.exists():
        for path in root.rglob("*"):
            name = path.relative_to(root)
            if path.is_file() and name.as_posix() != "manifest.xml" and not (tree / name).is_file():
                path.unlink()


def clear_outputs(out: Path) -> None:
    """Truncate every file under `out` to zero length, keeping its inode."""
    for dirpath, _, names in os.walk(out):
        for name in names:
            os.truncate(os.path.join(dirpath, name), 0)


def cycle(work: Path, inputs: Path, run: Run, traced: bool,
          pack_sha: list, samples: dict) -> list[dict]:
    """One command cycle and one edit session.

    Appends a Timed per operation to `samples`; returns the trace
    summaries of the operations when traced.
    """
    out = work / "out"
    out.mkdir(exist_ok=True)

    def command(op: str, args: list) -> list:
        if not traced:
            return OMEX + args
        return [PY, HERE / "traced.py", "--summary", out / f"{op}.summary.json",
                "--spans", out / f"{op}.spans.json", "cli", *args]

    argvs = {
        "pack": command("pack", ["pack", "--no-stamp", "--ext", "omex",
                                 inputs / "tree", out / "pack"]),
        "list": command("list", ["list", "--json", out / "pack.omex"]),
        "validate": command("validate", ["validate", "--json", inputs / "variant.omex"]),
        "meta_set": command("meta_set", ["meta", out / "meta.omex", "set", "--touch",
                                         "--description", DESCRIPTION]),
        "unpack": command("unpack", ["unpack", out / "pack.omex", out / "unpacked"]),
        "edit": ([PY, HERE / "traced.py", "--summary", out / "edit.summary.json",
                  "--spans", out / "edit.spans.json", "edit", "--inputs", inputs]
                 if traced else [PY, HERE / "edit.py", "--inputs", inputs]),
    }
    clear_outputs(out)
    errors = {op: [] for op in CLI_OPS}
    for op in CLI_OPS:
        if op == "meta_set":
            # meta set rewrites its archive in place, so it gets a fresh copy.
            try:
                shutil.copyfile(out / "pack.omex", out / "meta.omex")
            except OSError:
                pass
        done = timed_spawn(argvs[op], out / f"{op}.out", out / f"{op}.err")
        samples[op].append(done)
        if done.code != EXPECTED_EXIT[op]:
            errors[op].append(f"exit code {done.code}, expected {EXPECTED_EXIT[op]}")

    # The edit session's body is timed inside its child: the archive
    # open/serialize part is scaled like a command, the mutations by the
    # pure-Python loop timed next to them.
    done = timed_spawn(argvs["edit"], out / "edit.out", out / "edit.err")
    edit_errors = [] if done.code == EXPECTED_EXIT["edit"] else [f"exit code {done.code}"]
    edited = last_json(out / "edit.out")
    if edited is None:
        edit_errors.append("edit session printed no result")
        samples["edit"].append(done)
    else:
        edit_errors += edited["errors"]
        scaled = (edited["bytes_ms"] * done.scale
                  + edited["mutate_ms"] * REFERENCE_LOOP_MS / edited["loop_ms"])
        samples["edit"].append(Timed(edited["edit_ms"], scaled / edited["edit_ms"],
                                     done.rss, done.code))
    run.record("edit", edit_errors)

    _, _, code = spawn([PY, HERE / "check.py", "--inputs", inputs, "--cycle", out,
                        "--description", DESCRIPTION], out / "check.out", out / "check.err")
    checked = last_json(out / "check.out")
    if code != 0 or checked is None:
        for op in CLI_OPS:
            errors[op].append("correctness check could not run")
    else:
        for op, messages in checked["errors"].items():
            errors[op] += messages
        pack_sha.append(checked["pack_sha256"])
        if checked["pack_sha256"] != pack_sha[0]:
            errors["pack"].append("pack output differs from the first cycle's")
    for op in CLI_OPS:
        run.record(op, errors[op])
    return [last_json(out / f"{op}.summary.json") or {} for op in OPS] if traced else []


def layer_metrics(summaries: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced cycle, summed over its operations."""
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for summary in summaries:
        for name, entry in summary.get("spans", {}).items():
            total = spans.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            for key in total:
                total[key] += entry[key]
        for name, value in summary.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def counter(name: str) -> float:
        return counters.get(name, 0)

    metrics = {}
    for name in ("container.open_container", "container.write_container", "container.copy",
                 "manifest.parse_manifest", "manifest.serialize_manifest",
                 "manifest.validate_manifest_against", "metadata.parse_metadata",
                 "metadata.serialize_metadata", "metadata.check_minimum_information",
                 "formats.classify_format", "formats.format_for_filename",
                 "formats.infer_extension", "report.sorted"):
        metrics[f"{name}.ms"] = span(name, "ms")
    for name in ("archive.open_archive", "archive.validate_archive", "archive.create_archive",
                 "archive.pack_directory", "archive.extract_all", "archive.mutate"):
        metrics[f"{name}.self_ms"] = span(name, "self_ms")
    metrics["cli.self_ms"] = span("cli.main", "self_ms")
    metrics["formats.classify_format.calls"] = span("formats.classify_format", "calls")
    for name in ("container.entries_read", "container.bytes_inflated",
                 "container.entries_written", "container.bytes_deflated",
                 "container.entries_copied", "manifest.check_location.calls",
                 "manifest.entries_parsed", "manifest.entries_serialized",
                 "metadata.blocks_parsed", "metadata.blocks_serialized",
                 "archive.files_written", "report.findings"):
        metrics[name] = counter(name)
    raw = counter("container.raw_bytes_written")
    metrics["container.deflate_ratio"] = counter("container.archive_bytes") / raw if raw else 0.0
    return metrics


def filesystem_of(path: Path) -> str:
    """The filesystem type of the mount holding `path`, read from mountinfo."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                fields = line.split()
                mount = fields[4]
                kind = fields[fields.index("-") + 1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, kind
    except (OSError, ValueError, IndexError):
        pass
    return fstype


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="omexarchive benchmark driver")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "omexarchive" / "cli.py").is_file():
        print(f"error: no omexarchive sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    # One CPU for the driver and, by inheritance, every child: the reference
    # runs then time the CPU the operation ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return measure(args, wanted, work)


def measure(args, wanted: list[dict], work: Path) -> int:
    run = Run()
    # Compile once so that no timed child pays for writing bytecode.
    subprocess.run([PY, "-m", "compileall", "-q", str(SRC), str(HERE)],
                   check=True, stdout=subprocess.DEVNULL)
    global REFERENCE
    REFERENCE = Reference(work)
    for _ in range(3):
        REFERENCE.take()  # warm-up: creates its files and fills the page cache
    floor = timed_spawn([PY, "-c", "pass"], work / "floor.out")
    inputs, generations = setup(work, args.workload, args.seed, run)
    prune_unpacked(work, inputs)

    startup = []
    if args.trace:
        for _ in range(5):
            done = timed_spawn([PY, "-c", "import omexarchive.cli"], work / "startup.out")
            run.record("startup", [] if done.code == 0 else [f"exit code {done.code}"])
            startup.append(done)

    plain = {op: [] for op in OPS}
    traced = {op: [] for op in OPS}
    summaries, pack_sha = [], []
    start = time.perf_counter()
    cycles = 0
    longest = 0.0
    while True:
        began = time.perf_counter()
        if args.trace and cycles % 2 == 1:
            summaries.append(cycle(work, inputs, run, True, pack_sha, traced))
        else:
            cycle(work, inputs, run, False, pack_sha, plain)
        cycles += 1
        longest = max(longest, time.perf_counter() - began)
        # Stop before a cycle that would not end within --seconds.
        enough = bool(summaries) or not args.trace
        if enough and time.perf_counter() - start + longest > args.seconds:
            break

    median = statistics.median
    metrics: dict[str, float] = {"setup_s": scaled_ms(generations) / 1000.0}
    for op in OPS:
        metrics[f"{op}_ms"] = scaled_ms(plain[op])
        metrics[f"{op}_rss_mib"] = median(t.rss for t in plain[op])
    if args.trace:
        per_cycle = [layer_metrics(s) for s in summaries]
        counts = [{k: v for k, v in m.items() if not k.endswith("ms") and "ratio" not in k}
                  for m in per_cycle]
        run.record("trace-counts", [] if all(c == counts[0] for c in counts)
                   else ["traced counts differ between cycles"])
        wall_plain = sum(metrics[f"{op}_ms"] for op in OPS)
        wall_traced = sum(scaled_ms(traced[op]) for op in OPS)
        metrics = {name: median(m[name] for m in per_cycle) for name in per_cycle[0]}
        metrics["cli.startup_ms"] = scaled_ms(startup)
        metrics["trace.overhead_pct"] = (wall_traced / wall_plain - 1.0) * 100.0

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": sorted(os.sched_getaffinity(0)),
        "reference_ms": REFERENCE_MS,
        "reference_samples_ms": {"count": len(REFERENCE.samples),
                                 "median": statistics.median(REFERENCE.samples),
                                 "min": min(REFERENCE.samples),
                                 "max": max(REFERENCE.samples)},
        "samples_ms": {op: [round(t.scaled_ms, 1) for t in plain[op]] for op in OPS},
        "wall_samples_ms": {op: [round(t.ms, 1) for t in plain[op]] for op in OPS},
        "traced_cycles": len(summaries),
        "setup_samples_s": [round(g.scaled_ms / 1000.0, 3) for g in generations],
        "setup_wall_samples_s": [round(g.ms / 1000.0, 3) for g in generations],
        "setup_repeats": SETUP_REPEATS,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "work_filesystem": filesystem_of(work),
        "tmpfs": filesystem_of(work) == "tmpfs",
        "git_sha": git_sha(),
        "python_floor": {"ms": floor.ms, "scaled_ms": floor.scaled_ms, "rss_mib": floor.rss},
        "failures": run.messages,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
