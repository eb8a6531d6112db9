"""The repository benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` replays the same seeded inputs with layer spans installed
and prints every per-layer metric instead.  Lines before the last are a
human-readable report; the last line is the JSON result.  The exit code
is 0 only when every output check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys

WORKLOADS = ("serve_read", "serve_mixed_durable", "discover_reduce",
             "reason_engines")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("error: no src/repro here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fp:
        declared = json.load(fp)

    from calibrate import Calibration
    from served import RunFailure, run_served  # needs src on the path
    from inproc import run_discover, run_engines

    work = os.path.join(root, ".perfbench_work",
                        f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    traced = bool(args.trace)
    # Pin the benchmark to one processor and the server to another, so
    # the scheduler cannot move the two ends of the loopback between
    # runs.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    server_cpu = cpus[1] if len(cpus) > 1 else None
    served = args.workload.startswith("serve_")
    calibration = Calibration(
        [cpus[0]] + ([server_cpu] if served and server_cpu is not None
                     else []))
    try:
        if served:
            run = asyncio.run(run_served(
                root, work, args.seed, args.seconds,
                mixed=args.workload == "serve_mixed_durable", traced=traced,
                server_cpu=server_cpu, calibration=calibration))
        elif args.workload == "discover_reduce":
            run = run_discover(work, args.seed, args.seconds, traced,
                               calibration)
        else:
            run = run_engines(work, args.seed, args.seconds, traced,
                              calibration)
    except RunFailure as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        log = os.path.join(work, "server.log")
        if os.path.exists(log):
            with open(log, encoding="utf-8", errors="replace") as fp:
                sys.stderr.write(fp.read()[-4000:])
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is using it

    wanted = declared["per_layer" if traced else "end_to_end"]
    metrics = {}
    for spec in wanted:
        value, unit = run.metrics.get(spec["name"], (0.0, spec["unit"]))
        if unit != spec["unit"]:
            raise AssertionError(f"{spec['name']}: unit {unit} is not "
                                 f"the declared {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": unit}
    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if traced else 'untraced'})")
    for name, (value, unit) in run.report.items():
        print(f"  {name:28s} {value} {unit}".rstrip())
    if traced:
        for name, entry in metrics.items():
            print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}")
    if run.failed:
        run.problems.append(f"{run.failed} of {run.attempted} operations "
                            f"failed")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
