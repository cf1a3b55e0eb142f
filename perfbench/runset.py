"""Run the benchmark on several seeds and report each metric's median and
quartile spread against the bound ``BENCHMARK.json`` gives it.

    python3 perfbench/runset.py --runs 10 [--workloads sim-paper ...] [--trace 0]

Runs are sequential, one process at a time, seeds 1..N. The spread is the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median. The ``paper.*`` fingerprint of every
``sim-paper`` run is compared as well: the simulator is seeded, so any
difference is a behaviour change, not noise. A summary is written to
``.perfbench_out/runset-<workload>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.measure import median, quartile_spread  # noqa: E402


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(final JSON line, the run's result file)."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".perfbench_out" / "results" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return last, detail


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    for wl in args.workloads:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        fingerprints, attempted, failed = set(), 0, 0
        for seed in range(1, args.runs + 1):
            last, detail = run_once(spec, wl, seed, args.trace)
            attempted += last["attempted"]
            failed += last["failed"]
            for name, m in last["metrics"].items():
                values[name].append(m["value"])
            if "fingerprint_crc" in detail:
                fingerprints.add(detail["fingerprint_crc"])
            print(f"{wl} seed={seed} correct={last['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in last["metrics"].items()
                             if bounds[k] is not None), flush=True)
        print(f"== {wl}: {args.runs} runs, failed {failed}/{attempted}"
              + (f", paper fingerprint identical: {len(fingerprints) == 1}"
                 if fingerprints else ""))
        summary = {}
        for name, vals in values.items():
            if bounds[name] is None:
                continue
            spread = quartile_spread(vals)
            summary[name] = {"median": median(vals), "spread": spread,
                             "bound": bounds[name], "values": vals}
            print(f"  {name:22s} median {median(vals):12.5g}  spread {spread:6.3f}  "
                  f"bound {bounds[name]:.2f}  spread/bound {spread / bounds[name]:.2f}")
        out = ROOT / ".perfbench_out" / f"runset-{wl}-trace{args.trace}.json"
        out.write_text(json.dumps({"failed": failed, "attempted": attempted,
                                   "fingerprints": sorted(fingerprints),
                                   "metrics": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
