"""Run one workload of the diagsweep benchmark and print its metrics.

    python3 bench/run.py --workload sweep2d-const --seed 1 --seconds 25 --trace 0

Run from anywhere; the library is imported from `src/` of the checkout this
file lives in.  BLAS is capped at one thread before numpy is imported, so the
process uses a single core.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
of a traced run.  Times are in paced seconds (see pace.py).  The run record (seed, input digest, environment, every op
time) and, when traced, the spans are written under bench/out/.

Exit codes: 0 after a run (even one with failed ops: see "correct"),
2 when the library or the workload cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> bool:
    """Cap BLAS threads and put the checkout's `src/` first on the path.

    Must run before numpy is imported.  Returns False when the checkout has
    no library source.
    """
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "diagsweep" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not prepare():
        print(f"error: no diagsweep library under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    line, record, tracer = harness.run(workload, args.seed, args.seconds, bool(args.trace))

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        tracer.write(out / f"{stem}.spans.jsonl")

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{line['attempted']} ops, {line['failed']} failed, "
          f"fail_rate {record['fail_rate']:.4g}")
    pace = record["pace"]
    print(f"  pace: the reference work took "
          f"{pace['nominal_s'] / pace['scale']:.4g} s (median), nominal {pace['nominal_s']:.4g} s")
    for op, why in record["failures"].items():
        print(f"  op {op} failed: {why.strip()}")
    for name, m in line["metrics"].items():
        note = ""
        if name == "op_s_tail":
            note = (f"  (p{record['op_s_tail_percentile']:.1f} of "
                    f"{record['op_s_tail_samples']} ops)")
        print(f"  {name} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
