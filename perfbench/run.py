"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Workloads:

* ``sim-paper`` — every E1–E6 experiment on the calibrated simulator;
* ``spark-join-iqre`` — Q2J and Q3 on Spark, single-shot and as 4-batch
  micro-batch IQRE.

With ``--trace 0`` the run measures end-to-end metrics with no tracing;
with ``--trace 1`` it also times calls into each layer and reads Spark's
event log, and prints the per-layer metrics. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch files go to
``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()  # before any heavy import: set-up starts here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sim-paper", "spark-join-iqre")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}" if abs(value) < 1e6 else f"{value:.0f}"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    if args.workload == "sim-paper":
        from perfbench import sim_paper

        oc = sim_paper.run(ROOT, args.seed, args.seconds, bool(args.trace))
    else:
        from perfbench import spark_plane

        oc = spark_plane.run(OUT, args.seed, args.seconds, bool(args.trace), T_START)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in oc.end_to_end]
    if missing:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    # A per-layer metric of a layer this workload does not drive reads 0.
    source = oc.per_layer if args.trace else oc.end_to_end
    metrics = {}
    for m in wanted:
        value, unit = source.get(m["name"], (0.0, m["unit"]))
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']}: measured in {unit}, declared in {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}

    fail_ratio = oc.failed / max(1, oc.attempted)
    print(f"== perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for line in oc.report:
        print(f"  {line}")
    for err in oc.errors:
        print(f"  FAILED: {err}")
    print(f"  fail_ratio: {fail_ratio:.4f} ({oc.failed}/{oc.attempted})")
    for name, (value, unit) in sorted(oc.end_to_end.items()):
        print(f"  {name}: {_fmt(value)} {unit}")
    if args.trace:
        unexercised = [m["name"] for m in wanted if m["name"] not in oc.per_layer]
        for name, (value, unit) in sorted(oc.per_layer.items()):
            print(f"  {name}: {_fmt(value)} {unit}")
        print(f"  not exercised by this workload (reported as 0): {len(unexercised)} metrics")

    results = OUT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "attempted": oc.attempted, "failed": oc.failed,
            "errors": oc.errors, "end_to_end": oc.end_to_end,
            "per_layer": oc.per_layer, **oc.extra,
        }, indent=1, default=str))
    print(json.dumps({
        "correct": oc.failed == 0,
        "attempted": oc.attempted,
        "failed": oc.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
