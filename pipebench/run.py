#!/usr/bin/env python3
"""Pipeline benchmark: runs fixed workloads through ``titeica.cli.run``.

    python3 pipebench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

One client, closed loop: each ``cli.run`` starts when the previous one has
finished, in this single process, with BLAS pinned to one thread.  Every
run is checked by ``check.problems``.

``--trace 0`` prints the end-to-end metrics:

* ``run_norm_s``: median over runs of the wall time of one ``cli.run``
  (config dict in, ``report.json`` and mesh on disk) scaled by
  ``probe.HostProbe``, sampled during that run, to a host of fixed speed,
  so that drift in the speed of a shared host cancels.  Runs follow one
  warm-up run of the same config on a 16x16 grid (every code path of a
  timed run, at a fraction of its cost); at least three runs, and runs
  until ``--seconds`` of wall time have passed.  The median raw wall
  time, ``run_s``, is printed with it and kept in the record line.
* ``setup_s``: median over fresh interpreters of the time from before
  ``import titeica.cli`` until a ``Pipeline`` for the config is built,
  scaled the same way by the interpreter-only probe; the raw times are
  kept in the record line.
* ``peak_rss_mb``: peak resident memory (VmHWM) of a fresh process
  running the workload once.

``fail_frac`` is ``failed / attempted`` of the result line.

``--trace 1`` alternates untraced and traced runs and prints the
per-layer metrics of ``tracer.Tracer``, plus ``proc.cpu_s`` (median CPU
time of an untraced run) and ``trace.overhead_s`` (median traced minus
median untraced wall time).  Counts come from the first traced run; the
benchmark notes any count that does not repeat exactly.

The last line of standard output is the JSON result; the line before it
is a JSON record of samples, notes and the machine.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_RUNS = 3
SETUP_SAMPLES = 3
WARMUP_SHAPE = [16, 16]
CHILD_TIMEOUT_S = 120
# set by main() before numpy is first imported, which is why check, tracer
# and titeica are imported inside functions
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info():
    import importlib.util

    import numpy as np
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


class Bench:
    """Runs one workload in this process and in fresh child processes."""

    def __init__(self, name, seed, work):
        from titeica import cli

        self.cli = cli
        self.name = name
        self.stage, self.cfg = make_config(name, seed)
        self.out = work / name
        self.work = work
        self.attempted = 0
        self.failures = []
        self.notes = []

    def _record(self, cfg, code, out):
        import check

        self.attempted += 1
        bad = ([f"raised {code}"] if isinstance(code, str)
               else check.problems(cfg, self.stage, code, out))
        if bad:
            self.failures.append(bad)

    def run_once(self, host=None):
        """One checked cli.run; returns (wall s, cpu s).  `host`, a
        probe.HostProbe, samples the host's speed during the run."""
        _fresh_dir(self.out)
        with host or contextlib.nullcontext():
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                code, _ = self.cli.run(self.cfg, self.stage, self.out)
            except Exception as exc:  # a crash is a failed run, not a crash here
                code = f"{type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self._record(self.cfg, code, self.out)
        return wall, cpu

    def warm_up(self):
        cfg = json.loads(json.dumps(self.cfg))
        cfg["domain"]["shape"] = WARMUP_SHAPE
        out = self.work / "warmup"
        _fresh_dir(out)
        try:
            self.cli.run(cfg, self.stage, out)
        except Exception as exc:
            self.notes.append(f"warm-up raised {type(exc).__name__}: {exc}")

    def child(self, full):
        """Run child.py; full=True also runs the workload there."""
        out = self.work / "child"
        if full:
            _fresh_dir(out)
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC), self.stage,
               json.dumps(self.cfg), str(out) if full else "-"]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"child failed ({proc.returncode}): "
                               f"{proc.stderr.strip()[-2000:]}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if full:
            self._record(self.cfg, res["code"], out)
        return res

    def end_to_end(self, seconds):
        from probe import HostProbe

        def setup_sample(res):
            raw_setup.append(res["setup_s"])
            setup.append(res["setup_s"] * res["setup_scale"])

        fresh = self.child(full=True)
        raw_setup, setup = [], []
        setup_sample(fresh)
        self.warm_up()
        host = HostProbe()
        runs, scales, norm = [], [], []
        deadline = time.perf_counter() + seconds
        while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
            wall = self.run_once(host)[0]
            runs.append(wall)
            scales.append(host.scale())
            norm.append(wall * scales[-1])
            if len(setup) < SETUP_SAMPLES:
                setup_sample(self.child(full=False))
        while len(setup) < SETUP_SAMPLES:
            setup_sample(self.child(full=False))
        metrics = {
            "run_norm_s": {"value": statistics.median(norm), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": fresh["peak_rss_mb"], "unit": "MiB"},
        }
        samples = {"run_norm_s": norm, "run_s": runs, "host_scale": scales,
                   "setup_s": setup, "setup_raw_s": raw_setup,
                   "peak_rss_mb": [fresh["peak_rss_mb"]]}
        return metrics, samples

    def per_layer(self, seconds):
        import tracer

        self.warm_up()
        plain, plain_cpu, traced, layer_runs = [], [], [], []
        while not traced or sum(plain) + sum(traced) < seconds:
            wall, cpu = self.run_once()
            plain.append(wall)
            plain_cpu.append(cpu)
            with tracer.Tracer() as tr:
                traced.append(self.run_once()[0])
            layer_runs.append(tr.metrics())
            if tr.missing:
                self.notes.extend(m for m in tr.missing if m not in self.notes)
        metrics = {}
        for key, unit in tracer.UNITS.items():
            values = [r[key] for r in layer_runs]
            absent = next((v for v in values if isinstance(v, tracer.Absent)), None)
            if absent is not None:
                # the value stays a number; the entry is marked absent
                metrics[key] = {"value": 0, "unit": unit, "absent": str(absent)}
                continue
            if unit == "count":
                if len(set(values)) > 1:
                    self.notes.append(f"{key} differs between runs: {values}")
                value = values[0]
            else:
                value = statistics.median(values)
            metrics[key] = {"value": value, "unit": unit}
        outputs = self.cfg.get("outputs", {})
        mesh = outputs.get("mesh")
        report = self.out / outputs.get("report", "report.json")
        metrics["cli.export_bytes"] = {
            "value": (self.out / mesh).stat().st_size
            if mesh and (self.out / mesh).is_file() else 0, "unit": "B"}
        metrics["cli.report_bytes"] = {
            "value": report.stat().st_size if report.is_file() else 0,
            "unit": "B"}
        med = statistics.median
        metrics["proc.cpu_s"] = {"value": med(plain_cpu), "unit": "s"}
        metrics["trace.overhead_s"] = {"value": med(traced) - med(plain),
                                       "unit": "s"}
        samples = {"run_s": plain, "run_s_traced": traced, "proc.cpu_s": plain_cpu}
        return metrics, samples

    def measure(self, seconds, trace):
        metrics, samples = (self.per_layer(seconds) if trace
                            else self.end_to_end(seconds))
        failed = len(self.failures)
        result = {"correct": failed == 0, "attempted": self.attempted,
                  "failed": failed, "metrics": metrics}
        detail = {"workload": self.name, "stage": self.stage,
                  "samples": samples, "fail_frac": failed / self.attempted,
                  "failures": self.failures[:5], "notes": self.notes}
        return result, detail


def _summary(name, result, detail):
    m, s = result["metrics"], detail["samples"]
    parts = [f"{name:17s}"]
    if "run_norm_s" in m:
        parts.append(f"run_s {statistics.median(s['run_s']):.4g} s "
                     f"(n={len(s['run_s'])})")
    for key in ("run_norm_s", "setup_s", "peak_rss_mb"):
        if key in m:
            parts.append(f"{key} {m[key]['value']:.4g} {m[key]['unit']} "
                         f"(n={len(s.get(key, []))})")
    parts.append(f"fail_frac {detail['fail_frac']:.3g} "
                 f"({result['failed']}/{result['attempted']} runs)")
    return "  ".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "titeica" / "cli.py").is_file():
        print(f"error: no titeica sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import titeica

    if SRC not in Path(titeica.__file__).resolve().parents:
        print(f"error: titeica imported from {titeica.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    machine = machine_info()
    work = Path(tempfile.mkdtemp(prefix=".pipebench-", dir=ROOT))
    results, details = {}, {}
    try:
        for name in names:
            bench = Bench(name, args.seed, work)
            results[name], details[name] = bench.measure(args.seconds, args.trace)
            print(_summary(name, results[name], details[name]), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "machine": machine,
                      "details": details}))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
