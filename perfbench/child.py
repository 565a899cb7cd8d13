"""One measured process, started by ``run.py`` from a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC_JSON``.  The spec names the
package source directory, the CLI argument vector, the input files, the
monotonic time at which the parent started this process, the mode and the
path of the JSON result file to write.

The process imports ``coocnet.cli`` and reads the input files; the time
from the parent's start until then is the set-up time.  Mode ``setup``
stops there.  Mode ``plain`` makes one ``coocnet.cli.main`` call, timed.
Mode ``traced`` makes the same call traced by ``spans.py``.  Both report
the exit status and the process's peak resident set size.
"""

import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB.

    On Linux ``ru_maxrss`` keeps the launching process's peak across
    ``exec`` (a child started by fork or vfork inherits it), so the per-process
    high-water mark ``VmHWM`` is read instead where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import coocnet.cli

    for path in spec["inputs"]:
        Path(path).read_bytes()
    result = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - spec["spawned"]}

    if spec["mode"] == "plain":
        start = time.perf_counter()
        result["exit"] = coocnet.cli.main(spec["argv"])
        result["wall_s"] = time.perf_counter() - start
    elif spec["mode"] == "traced":
        import spans

        start = time.perf_counter()
        result["exit"], result["spans"], result["counters"] = spans.traced_main(spec["argv"])
        result["wall_s"] = time.perf_counter() - start
    if spec["mode"] != "setup":
        result["peak_rss_mb"] = peak_rss_mb()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
