"""The repository benchmark's command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the measuring program
(``perfbench/``, a cargo package of its own) into ``$CARGO_TARGET_DIR``
(default ``.bench_build``), runs one workload, checks that the program's
metrics match BENCHMARK.json, and prints two lines: the full record with
provenance, then the summary ``{"correct", "attempted", "failed",
"metrics"}``. Both are also written under ``<target dir>/perfbench-out/``,
with the spans of a traced run. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import compare  # noqa: E402

# The program must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    # Cargo's output goes to stderr: stdout carries only the result.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build failed")
    return target_dir / "release" / "perfbench"


def source_digest():
    """SHA-256 over the sources the benchmark builds, for runs outside a
    git checkout."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.suffix in (".rs", ".toml", ".lock", ".py") and p.is_file())
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def provenance(args):
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_rev": rev,
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    try:
        spec = compare.load_spec(ROOT / "BENCHMARK.json")
    except (OSError, ValueError) as e:
        fail(f"BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    if not 1 <= args.seconds <= 600 or args.seed < 0:
        fail("--seconds must be 1..600 and --seed non-negative")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    binary = build(target)
    out_dir = target / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--out", str(out_dir / f"{stem}.spans.json")]
    # A terminated runner stops its measuring process too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {child.returncode}")
    record = json.loads(lines[-1])

    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in group}
    got = {k: v["unit"] for k, v in record["metrics"].items()}
    if want != got:
        fail(f"metrics {sorted(set(want.items()) ^ set(got.items()))} disagree with BENCHMARK.json")

    record["provenance"] = provenance(args)
    summary = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    (out_dir / f"{stem}.json").write_text(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
