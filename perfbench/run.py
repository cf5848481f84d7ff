"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload extract_long --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload corpus_eval --seed 1 --seconds 15 --trace 1

Run from the root of a checkout.  The inputs are generated here, from the
seed, before the measured process starts and outside it; the measured
process (worker.py, single-threaded, one at a time) imports the package
from ``src/``.  ``--trace 0`` prints the end-to-end metrics of a timed run,
``--trace 1`` the per-layer metrics of a separate traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import check
import gen

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150

LONG_DOCS, LONG_PAGES = 4, 16
HIGHLIGHT_DOCS, HIGHLIGHT_PAGES = 3, 6



def inputs(workload: str, seed: int) -> list[gen.Doc]:
    if workload == "extract_long":
        return gen.long_docs(seed, LONG_DOCS, LONG_PAGES)
    if workload == "highlight_all":
        return [gen.build(gen.LONG_KIND, HIGHLIGHT_PAGES, seed * 1000 + i,
                          f"highlight_{i}") for i in range(HIGHLIGHT_DOCS)]
    return gen.corpus(seed)


def _serialize(doc: gen.Doc) -> dict:
    return {"name": doc.name, "html": doc.html, "css": doc.css,
            "gold": doc.gold, "expected_bt": doc.expected_bt,
            "removed": doc.removed, "naive": doc.naive,
            "bytes": len(doc.html.encode("utf-8")) + len(doc.css.encode("utf-8")),
            "expected_counts": check.counts(doc.expected_bt, doc.gold,
                                            doc.removed),
            "naive_counts": check.counts(doc.naive, doc.gold, doc.removed)}


def _env() -> dict:
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(env: dict) -> tuple[float, float]:
    """Median set-up time of several fresh processes, after one that may
    compile the package: (on the reference speed scale, raw)."""
    scaled, raw = [], []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                             env=env, capture_output=True, text=True,
                             check=True, timeout=60)
        seconds, factor = map(float, out.stdout.split())
        if i:
            scaled.append(seconds * factor)
            raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def run_worker(workload: str, path: Path, seconds: float, mode: str,
               env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--inputs", str(path), "--seconds", str(seconds), "--mode", mode],
        env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bodytext benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("extract_long", "highlight_all", "corpus_eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "bodytext" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/bodytext is "
              "missing", file=sys.stderr)
        return 2

    work = Path.cwd() / WORK_DIR
    work.mkdir(exist_ok=True)
    path = work / f"{args.workload}-{args.seed}-{os.getpid()}.json"
    path.write_text(json.dumps([_serialize(d) for d in
                                inputs(args.workload, args.seed)]),
                    encoding="utf-8")
    env = _env()
    try:
        if args.trace:
            out = run_worker(args.workload, path, args.seconds, "traced", env)
            metrics = out["metrics"]
        else:
            setup, raw_setup = setup_seconds(env)
            out = run_worker(args.workload, path, args.seconds, "timed", env)
            metrics = {"setup_s": (setup, "s"), **out["metrics"]}
            out["notes"]["raw_setup_s"] = raw_setup
    finally:
        path.unlink()

    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    for name, value in out["notes"].items():
        print(f"# {name}: {value:.6g}")
    for problem in out["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": out["failed"] == 0 and not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
