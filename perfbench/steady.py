"""Steadiness report: runs the benchmark several times per workload, each
with another seed, and prints each end-to-end metric's median and spread
(interquartile distance over median) against its bound, plus the pacing
regime of every service run.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1] [--out DIR]

Records are copied to DIR (default ``.bench_build/steady``), so two sets
can be compared with ``compare.py``. Exits 1 if any spread other than
``setup_s``'s exceeds its bound or a run was not correct.
"""

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import compare  # noqa: E402


def regimes(record):
    runs = record["detail"].get("runs", [])
    return "".join(r["regime"][0] for r in runs if isinstance(r, dict) and "regime" in r)


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = compare.load_spec(ROOT / "BENCHMARK.json")
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", default=str(ROOT / ".bench_build" / "steady"))
    args = p.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    records, ok = [], True
    for wl in args.workloads.split(","):
        for seed in range(args.first_seed, args.first_seed + args.runs):
            child = subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            try:
                stdout, stderr = child.communicate()
            finally:
                # run.py stops its measuring process on SIGTERM.
                if child.poll() is None:
                    child.terminate()
                    child.wait()
            if child.returncode != 0:
                print(f"{wl} seed {seed}: exit {child.returncode}\n{stderr[-2000:]}")
                ok = False
                continue
            record = json.loads(stdout.splitlines()[-2])
            (out / f"{wl}-seed{seed}-trace0.json").write_text(json.dumps(record) + "\n")
            records.append(record)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in record["metrics"].items())
            print(f"{wl} seed {seed}: correct={record['correct']} failed={record['failed']} "
                  f"regimes={regimes(record) or '-'} {vals}", flush=True)
            ok &= record["correct"]

    for wl, metrics in compare.summarize(records, spec).items():
        for m in spec["end_to_end"]:
            s = metrics[m["name"]]
            flag = ""
            if m["name"] != "setup_s" and s["spread"] > m["bound"]:
                flag, ok = "  OVER BOUND", False
            elif s["spread"] > m["bound"] / 3:
                flag = "  over a third of bound"
            print(f"{wl:12} {m['name']:14} median {s['median']:.6g} spread {s['spread']:.3f} "
                  f"bound {m['bound']}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
