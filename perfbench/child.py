"""One timed run: import neuromap, call ``neuromap.cli.main(argv)``, report.

    python3 child.py SRC RESULT_JSON TRACE -- NEUROMAP_ARGV...

Writes one JSON object to RESULT_JSON: the exit code, import and main
seconds, peak resident memory (VmHWM) and, with TRACE=1, the recorded spans. A
missing wrapper target exits 70 without running the command.
"""

import json
import resource
import sys
import time


def peak_rss_kb() -> int:
    """Peak resident memory of this process image.

    ru_maxrss would do, but Linux carries it over from the parent across
    fork and exec, so a small child of a large parent reports the parent.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv) -> int:
    t0 = time.perf_counter()
    sep = argv.index("--")
    src, result_path, trace = argv[:sep]
    command = argv[sep + 1 :]
    sys.path.insert(0, src)
    import neuromap.cli  # noqa: PLC0415

    t_import = time.perf_counter()
    recorder = None
    if trace == "1":
        import tracer  # noqa: PLC0415

        recorder = tracer.Recorder()
        recorder.add("cli.import", t0, t_import)
        try:
            tracer.install(recorder)
        except tracer.TraceError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 70
    try:
        rc = neuromap.cli.main(command)
    except SystemExit as exc:  # argparse --version / --help
        rc = exc.code if isinstance(exc.code, int) else 1
    t_end = time.perf_counter()
    record = {
        "rc": rc,
        "import_s": t_import - t0,
        "main_s": t_end - t_import,
        "maxrss_kb": peak_rss_kb(),
        "spans": recorder.spans if recorder else None,
    }
    with open(result_path, "w", encoding="ascii") as f:
        json.dump(record, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
