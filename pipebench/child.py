"""Fresh-interpreter probe for one workload: set-up time, and optionally
one full run with its peak resident memory.

    python child.py SRC_DIR STAGE CONFIG_JSON OUT_DIR|-

Prints one JSON object: ``setup_s`` (from before ``import titeica.cli``
until a ``Pipeline`` for the config is built), the ``setup_scale`` that
``probe.HostProbe`` measured meanwhile, and, when OUT_DIR is given,
the run's exit ``code`` (the exception, as a string, if it raised) and
``peak_rss_mb``, the peak resident memory of this process.  The parent
checks the files the run left in OUT_DIR.
"""

import json
import resource
import sys
import time

from probe import HostProbe


def peak_rss_mb():
    """High-water resident set of this process image.  VmHWM is read in
    preference to ru_maxrss, which Linux carries over from the parent when
    a child is started by vfork and exec, as subprocess does."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv):
    src, stage, cfg_json, out_dir = argv
    cfg = json.loads(cfg_json)
    sys.path.insert(0, src)
    with HostProbe(numpy=False) as host:
        t0 = time.perf_counter()
        from titeica import cli
        cli.Pipeline(cfg)
        setup = time.perf_counter() - t0
    result = {"setup_s": setup, "setup_scale": host.scale()}
    if out_dir != "-":
        try:
            result["code"], _ = cli.run(cfg, stage, out_dir)
        except Exception as exc:  # reported as a failed run by the parent
            result["code"] = f"{type(exc).__name__}: {exc}"
        result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
