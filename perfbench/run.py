"""Cold-process benchmark of the npdisclab recipe runner.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

With ``--trace 0`` every recipe runs the way a researcher runs it: as its
own ``python -m npdisclab <recipe> ... --reproducible`` process, one child
at a time (a closed loop with one client), so import is paid on every
run.  ``--seconds`` fixes the number of passes (workloads.pass_count), so
every commit runs the same work.  The end-to-end metrics listed in
BENCHMARK.json are reported; the known-defect probes count only in
failed_frac.  With ``--trace 1`` the workload runs in this process
instead, once untraced and once with every library function wrapped in a
span, and the per-layer metrics are reported (see layers.py).

Every output is checked by value (checks.py).  The metric table and a run
record go to stdout and to ``.perfbench/``; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from checks import check_invocation, check_repeat
from workloads import WORKLOADS, pass_count, probes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: fresh imports timed per run for setup_s
SETUP_SAMPLES = 3
#: a run stops its children and gives up after this many seconds
RUN_LIMIT_S = 170.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    max_rss_mib: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args, env, deadline: float) -> Child:
    """Run ``python <args>`` to completion; wall, CPU and peak memory of that child."""
    out_path, err_path = WORK / "child.stdout", WORK / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                cwd=ROOT, env=env)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Child(proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"),
                 err_path.read_text(encoding="utf-8", errors="replace"),
                 wall, cpu, usage.ru_maxrss / 1024.0)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Fresh-process passes over the workload; the seven end-to-end metrics."""
    from npdisclab.csvio import read_rows

    env = child_env()
    timed = WORKLOADS[workload](seed)
    probe_list = probes(workload, seed, f".perfbench/missing-{seed}.csv")

    setup = []
    for _ in range(SETUP_SAMPLES):
        child = run_child(["-c", "import npdisclab.cli"], env, deadline)
        if child.code != 0:
            raise RunError(f"import npdisclab.cli failed: {child.stderr.strip()[-300:]}")
        setup.append(child.wall_s)

    walls, pass_walls, pass_cpus, pass_rss = [], [], [], []
    attempted = failed = 0
    problems, probe_log, invocation_log = [], [], []
    digests = {}

    def attempt(inv, child, key=None) -> bool:
        nonlocal attempted, failed
        outcome = check_invocation(inv, child.code, child.stdout, child.stderr, read_rows)
        if key is not None:
            check_repeat(digests, key, outcome)
        attempted += 1
        failed += not outcome.ok
        if inv.defect is None and not outcome.ok:
            problems.append(f"{inv.label}: {'; '.join(outcome.problems)}")
        return outcome.ok

    passes = pass_count(workload, seconds)
    for _ in range(passes):
        runs = []
        for number, inv in enumerate(timed):
            child = run_child(["-m", "npdisclab", *inv.argv], env, deadline)
            attempt(inv, child, number)
            runs.append(child)
            invocation_log.append({"argv": inv.label, "wall_s": child.wall_s,
                                   "cpu_s": child.cpu_s, "max_rss_mib": child.max_rss_mib})
        walls.extend(c.wall_s for c in runs)
        pass_walls.append(sum(c.wall_s for c in runs))
        pass_cpus.append(sum(c.cpu_s for c in runs))
        pass_rss.append(max(c.max_rss_mib for c in runs))
    if passes == 1:
        # a second run of the fastest invocation: same seed, same parsed values
        number = min(range(len(timed)), key=lambda i: runs[i].wall_s)
        attempt(timed[number], run_child(["-m", "npdisclab", *timed[number].argv], env,
                                         deadline), number)
    for inv in probe_list:
        child = run_child(["-m", "npdisclab", *inv.argv], env, deadline)
        ok = attempt(inv, child)
        probe_log.append({"argv": inv.label, "defect": inv.defect, "exit": child.code,
                          "passed": ok, "stderr": child.stderr.strip()[-200:]})

    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(pass_walls),
        "recipe_p50_s": percentile(walls, 50),
        "recipe_p90_s": percentile(walls, 90),
        "pass_cpu_s": statistics.median(pass_cpus),
        "peak_rss_mib": statistics.median(pass_rss),
        "failed_frac": failed / attempted,
    }
    samples = {"setup_s": len(setup), "pass_s": passes, "recipe_p50_s": len(walls),
               "recipe_p90_s": len(walls), "pass_cpu_s": passes, "peak_rss_mib": passes,
               "failed_frac": attempted}
    known = json.loads((Path(__file__).parent / "interactions.json").read_text())
    record = {"passes": passes, "probes": probe_log, "known_defects": known["known_defects"],
              "invocations": invocation_log}
    return {"metrics": metrics, "samples": samples, "attempted": attempted,
            "failed": failed, "problems": problems, "record": record}


def traced(workload: str, seed: int, seconds: float) -> dict:
    import layers

    result = layers.traced_pass(ROOT, child_env(), SRC, WORKLOADS[workload](seed), seconds,
                                WORK / f"spans-{workload}.npz")
    passes = result["record"]["in_process_passes"]
    result["samples"] = {name: passes for name in result["metrics"]}
    for name in ("import.total_s", "import.scipy_signal_s", "import.scipy_linalg_s"):
        result["samples"][name] = layers.IMPORT_SAMPLES
    return result


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "commit": commit(),
    }


def report(spec_metrics: list, result: dict, record: dict) -> dict:
    """Select the BENCHMARK.json metrics and print them as a table."""
    missing = [m["name"] for m in spec_metrics if m["name"] not in result["metrics"]]
    if missing:
        raise RunError(f"metrics not computed: {missing}")
    chosen = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
              for m in spec_metrics}
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    for name, entry in chosen.items():
        n = result["samples"].get(name, "")
        print(f"  {name:44s} {entry['value']:>14.6g} {entry['unit']:6s} n={n}")
    for problem in result["problems"]:
        print(f"  FAILED CHECK {problem}")
    return chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "npdisclab" / "cli.py").is_file():
        print(f"error: no npdisclab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in names:
            if args.trace:
                result = traced(workload, args.seed, args.seconds)
            else:
                result = end_to_end(workload, args.seed, args.seconds,
                                    time.monotonic() + RUN_LIMIT_S)
            record = run_record(workload, args.seed, args.seconds, args.trace)
            record.update(result["record"], samples=result["samples"],
                          problems=result["problems"])
            chosen = report(spec_metrics, result, record)
            path = WORK / f"record-{workload}-trace{args.trace}.json"
            path.write_text(json.dumps({**record, "metrics": chosen}, indent=1))
            print(f"  record: {path.relative_to(ROOT)}")
            final["correct"] &= not result["problems"]
            final["attempted"] += result["attempted"]
            final["failed"] += result["failed"]
            prefix = "" if len(names) == 1 else f"{workload}."
            final["metrics"].update({prefix + k: v for k, v in chosen.items()})
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
