"""Run every workload untraced and traced at one seed; write the record.

    python3 perfbench/record.py [--seed 0] [--seconds 60]

Prints each workload's metrics by name with their units, checks that the
traced run's output hashes equal the untraced run's and that no op failed,
and writes the results with their environment, host-speed reference and
quality scores (test F1 per arm, the contrastive2 - baseline F1 margin,
retrieval phase agreement) to perfbench/record.json. The quality scores are
recorded, not gated. Exit code 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("arm-pair", "paper-shape", "cli-chain")


def _run(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    for line in lines[:-2]:
        print(line)
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    args = p.parse_args(argv)
    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        result, detail = _run(workload, args.seed, args.seconds, 0)
        layer_result, layer_detail = _run(workload, args.seed, args.seconds, 1)
        same = detail["output_sha256"] == layer_detail["output_sha256"]
        failed = result["failed"] + layer_result["failed"]
        ok = ok and same and failed == 0
        print(f"{workload}: failed ops {failed}; traced output hash "
              f"{'equals' if same else 'DIFFERS FROM'} untraced")
        record.setdefault("environment", detail["environment"])
        record["workloads"][workload] = {
            "attempted_ops": result["attempted"] + layer_result["attempted"],
            "failed_ops": failed,
            "output_sha256": detail["output_sha256"],
            "traced_output_sha256": layer_detail["output_sha256"],
            "quality": detail["quality"],
            "reference_s": [detail["reference_s"], layer_detail["reference_s"]],
            "end_to_end": detail["metric_stats"],
            "end_to_end_unscaled": detail["unscaled_stats"],
            "host_reference_s": detail["reference_stats"],
            "eval_frames_per_s_ungated": detail["eval_frames_per_s"],
            "per_layer": layer_result["metrics"],
            "trace_wall_s": layer_detail["wall_s"],
            "errors": detail["errors"] + layer_detail["errors"],
        }
    out = HERE / "record.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
