"""neuromap benchmark: one workload, end to end through the CLI, or traced.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--smoke] [--src DIR] [--out-dir DIR] [--digests FILE]

Set-up builds the workload's inputs from the seed. Timed runs follow one
after another (a closed loop with one client), each a fresh process that
imports neuromap and calls ``neuromap.cli.main(argv)`` with one BLAS thread.
Runs start until the next one is expected to end past ``--seconds``, and at
least one runs. Each run's outputs are counted and checked, and their
digest must equal the pinned one (default seed) or every other run's with
the same inputs. After timing, the workload's smoke configuration runs once
at the default seed against its pinned digests, so a change to its output
bytes fails the invocation whatever seed it timed. A run that exits non-zero or
fails a check is failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each
distinct run once untraced and once with spans recorded, and reports the
per-layer metrics (see layers.py) and the tracing overhead.

The last line of stdout is the result; the full record, with the host
record, per-run figures, quartiles and computed counts, goes to
``<out-dir>/results/``. Exits 0 when every run passed, 1 when a run failed
(after printing the result), 2 when there is no program to benchmark or
set-up failed (without a result).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import host
import layers
import tracer
from workloads import DEFAULT_SEED, SIZES, WORKLOADS, CheckError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BUDGET_S = 170.0  # the whole invocation, set-up included
PROVENANCE = ("tool: ", "invocation: ", "seed: ")
E2E_UNITS = {"items_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


class SetupError(Exception):
    """A set-up command failed; there is nothing to time."""


# --- output digests ------------------------------------------------------------------


def strip_provenance(name: str, text: str) -> str:
    """The file without the provenance the CLI embeds (it names the --out path).

    JSON documents and the one-line JSON header of dataset and model files
    lose their "provenance" key; "# tool:" style comment lines go. A file
    whose JSON does not re-serialise to its own bytes is kept whole, so a
    formatting change still changes the digest.
    """
    if name.endswith(".json"):
        doc = json.loads(text)
        if json.dumps(doc, indent=2, sort_keys=True) + "\n" != text:
            return text
        doc.pop("provenance", None)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = text.split("\n")
    if len(lines) > 1 and lines[1].startswith("{"):
        header = json.loads(lines[1])
        if json.dumps(header, sort_keys=True) == lines[1]:
            header.pop("provenance", None)
            lines[1] = json.dumps(header, sort_keys=True)
    return "\n".join(
        ln for ln in lines
        if not (ln.startswith("# ") and ln[2:].startswith(PROVENANCE))
        and not (ln.startswith("<!-- ") and ln[5:].startswith(PROVENANCE))
    )


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(strip_provenance(path.name, path.read_text(encoding="ascii")).encode() + b"\0")
    return h.hexdigest()


# --- running the program -------------------------------------------------------------


class Bench:
    """One invocation: spawns runs in ``workdir`` and checks their outputs."""

    def __init__(self, workload, seed, config, pins: dict, src: Path, workdir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.config = config
        self.sizes = SIZES[config]
        self.pins = pins  # digests pinned for this config
        self.src = src
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, **CHILD_ENV)

    def spawn(self, argv, trace: bool) -> dict:
        """Run one neuromap command in a fresh process; returns its record."""
        result = self.workdir / "child.json"
        log_path = self.workdir / "child.log"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), str(self.src), str(result),
               "1" if trace else "0", "--", *argv]
        with open(log_path, "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            # a blocking wait returns when the child exits; wait(timeout=)
            # polls with sleeps of up to 50 ms, which would quantise the wall
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                code = proc.wait()
            finally:
                killer.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - t0
        rec = json.loads(result.read_text()) if code == 0 else {}
        rec.update(wall_s=wall, exit=code)
        if code != 0:
            rec["problem"] = f"exit {code}: " + log_path.read_text()[-500:].strip()
        return rec

    def cli(self, argv) -> None:
        """A set-up command; raises SetupError when it fails."""
        rec = self.spawn(argv, trace=False)
        if rec["exit"] != 0:
            raise SetupError(f"neuromap {' '.join(argv)}: {rec['problem']}")

    def setup(self) -> tuple:
        times = []
        for _ in range(self.workload.setup_repeats):
            shutil.rmtree(self.workdir / "inputs", ignore_errors=True)
            t0 = time.perf_counter()
            runs = self.workload.setup(self)
            times.append(time.perf_counter() - t0)
        return runs, times

    def execute(self, run, trace: bool) -> dict:
        rec = self.spawn(run.argv, trace)
        rec["key"] = f"{self.config}:{run.key}"
        rec["pin"] = self.pins.get(run.key)
        out = self.workdir / "out"
        if "problem" not in rec:
            try:
                rec["items"] = self.workload.check(self, out)
                rec["digest"] = digest(out)
            except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
                rec["problem"] = f"output check: {exc}"
        shutil.rmtree(out, ignore_errors=True)
        return rec

    def timed(self, runs, seconds: float) -> list:
        records = []
        t0 = time.perf_counter()
        while True:
            records.append(self.execute(runs[len(records) % len(runs)], trace=False))
            typical = statistics.median(r["wall_s"] for r in records)
            if time.perf_counter() - t0 + typical > seconds or time.monotonic() + typical > self.deadline:
                return records


def reference_runs(workload, pins: dict, src: Path, workdir: Path, deadline: float) -> list:
    """The workload's smoke configuration at the default seed, run once untimed.

    Timed runs at an unpinned seed can only be compared with each other;
    these runs have pinned digests, so a change in output bytes fails the
    invocation whatever seed it timed.
    """
    bench = Bench(workload, DEFAULT_SEED, "smoke", pins, src, workdir, deadline)
    workdir.mkdir()
    try:
        runs = workload.setup(bench)
    except SetupError as exc:
        return [{"key": f"smoke:{workload.name}", "wall_s": 0.0, "problem": f"set-up: {exc}"}]
    return [bench.execute(run, trace=False) for run in runs]


def verify_digests(records) -> None:
    """Mark runs whose digest differs from the pin or from the first run with the same key."""
    first = {}
    for rec in records:
        if "problem" in rec:
            continue
        want = rec["pin"] or first.setdefault(rec["key"], rec["digest"])
        if rec["digest"] != want:
            source = "pinned" if rec["pin"] else "first run's"
            rec["problem"] = f"output digest {rec['digest'][:12]} differs from the {source} {want[:12]}"


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(records, setup_times) -> tuple:
    ok = [r for r in records if "problem" not in r]
    rates = [r["items"] / r["wall_s"] for r in ok] or [0.0]
    rss = [r["maxrss_kb"] / 1024 for r in ok] or [0.0]
    detail = {"setup_s": quartiles(setup_times), "items_per_s": quartiles(rates),
              "peak_rss_mb": quartiles(rss)}
    return {name: (detail[name]["median"], unit) for name, unit in E2E_UNITS.items()}, detail


def layer_metrics(workload, plain, traced, host_rec, record) -> dict:
    """Per-layer metrics of the traced runs; a mapped span without calls fails them."""
    span_runs = [r["spans"] for r in traced if "problem" not in r]
    values = {}
    if span_runs:
        values, record["computed"], summary = layers.compute(
            span_runs, sum(r["wall_s"] for r in traced), sum(r["wall_s"] for r in plain), host_rec)
        record["spans"] = {name: {k: v for k, v in s.items() if k != "durations"}
                           for name, s in summary.items()}
        try:
            tracer.check_calls(workload.name, summary)
        except tracer.TraceError as exc:
            for r in traced:
                r.setdefault("problem", str(exc))
    return {name: (values.get(name, 0.0), unit) for name, unit in layers.UNITS.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy sizes; runs in seconds")
    p.add_argument("--src", type=Path, default=ROOT / "src", help="tree holding the neuromap package")
    p.add_argument("--out-dir", type=Path, default=ROOT / ".perfbench_out")
    p.add_argument("--digests", type=Path, default=BENCH / "digests.json")
    args = p.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    # on SIGTERM, unwind through the finally blocks that kill the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = args.src.resolve()
    if not (src / "neuromap" / "cli.py").is_file():
        print(f"perfbench: no neuromap package under {src}", file=sys.stderr)
        return 2
    os.environ.update(CHILD_ENV)
    workload = WORKLOADS[args.workload]
    config = "smoke" if args.smoke else "full"
    pins = json.loads(args.digests.read_text())
    workdir = args.out_dir / f"work-{workload.name}-{os.getpid()}"
    results = args.out_dir / "results"
    workdir.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    bench = Bench(workload, args.seed, config, pins.get(config, {}), src, workdir, deadline)
    load_before = os.getloadavg()
    try:
        try:
            runs, setup_times = bench.setup()
        except SetupError as exc:
            print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
            return 2
        host_rec = host.record(CHILD_ENV["OPENBLAS_NUM_THREADS"])
        if args.trace:
            plain = [bench.execute(run, trace=False) for run in runs]
            traced = [bench.execute(run, trace=True) for run in runs]
            records = plain + traced
        else:
            records = bench.timed(runs, args.seconds)
        checks = reference_runs(workload, pins.get("smoke", {}), src, workdir / "reference", deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host_rec["loadavg_before"] = load_before
    host_rec["loadavg_after"] = os.getloadavg()
    verify_digests(records + checks)

    record = {"workload": workload.name, "seed": args.seed, "config": config,
              "seconds": args.seconds, "trace": args.trace, "host": host_rec,
              "setup_times_s": setup_times}
    if args.trace:
        metrics = layer_metrics(workload, plain, traced, host_rec, record)
        spans_file = results / f"{workload.name}-seed{args.seed}-{config}-spans.json"
        spans_file.write_text(json.dumps(
            [{"run_id": i, "key": r["key"], "spans": r.get("spans")} for i, r in enumerate(traced)]))
    else:
        metrics, record["end_to_end"] = end_to_end(records, setup_times)

    attempted = records + checks
    failed = sum("problem" in r for r in attempted)
    record["failed_ratio"] = {"value": failed / len(attempted), "failed": failed, "attempted": len(attempted)}
    record["runs"] = [{k: v for k, v in r.items() if k != "spans"} for r in records]
    record["reference_runs"] = checks
    (results / f"{workload.name}-seed{args.seed}-{config}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for r in attempted:
        status = r.get("problem", "ok")
        print(f"perfbench: {r['key']}: {r['wall_s']:.3f} s, {r.get('items', 0)} items: {status}",
              file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
