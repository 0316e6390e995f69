"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark's format rules, runs every
workload at the tiny size untraced and traced, and checks that the last
output line has exactly the keys correct, attempted, failed and metrics, that
all checks passed, and that the metric names and units are those of
BENCHMARK.json. Finally it checks that a copy holding only BENCHMARK.json and
the benchmark's own files fails without printing a result. Exits 1 on any
problem.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
TIMEOUT_S = 600


def check_spec(spec: dict, size: int) -> list[str]:
    errors = []

    def need(ok, message):
        if not ok:
            errors.append(message)

    need(size <= 64 * 1024, "BENCHMARK.json is larger than 64 KiB")
    need(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
         f"top-level keys are {sorted(spec)}")
    need(1 <= len(spec["paths"]) <= 16, "paths must hold 1 to 16 directories")
    for p in spec["paths"]:
        need(PATH.fullmatch(p) and not p.startswith("/") and ".." not in p.split("/"), f"bad path {p!r}")
    cmd = spec["command"]
    need(1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in cmd), "bad command")
    need(not any(c.startswith("/") or ".." in c.split("/") for c in cmd), "command leaves the checkout")
    need(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds not in 1..60")
    need(2 <= len(spec["workloads"]) <= 8, "need 2 to 8 workloads")
    need(1 <= len(spec["end_to_end"]) <= 16, "need 1 to 16 end-to-end metrics")
    need(1 <= len(spec["per_layer"]) <= 128, "need 1 to 128 per-layer metrics")
    names = []
    for w in spec["workloads"]:
        need(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        need(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']} is not one short line")
        names.append(w["name"])
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in spec[section]:
            need(set(m) == keys, f"{section} metric keys {sorted(m)}")
            need(UNIT.fullmatch(m["unit"]), f"bad unit {m['unit']!r}")
            need(m["better"] in ("higher", "lower"), f"bad 'better' for {m['name']}")
            if "bound" in keys:
                need(0 < m["bound"] <= 0.25, f"bound of {m['name']} not in (0, 0.25]")
            names.append(m["name"])
    for n in names:
        need(NAME.fullmatch(n), f"bad name {n!r}")
    need(len(names) == len(set(names)), "a name is used twice")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    setup = e2e.get("setup_s")
    need(setup is not None and setup["unit"] == "s" and setup["better"] == "lower", "setup_s missing or wrong")
    if setup is not None:
        need(setup["bound"] == max(m["bound"] for m in e2e.values()), "setup_s must have the largest bound")
    return errors


def check_output(stdout: str, spec: dict, section: str) -> list[str]:
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return ["last line is not JSON"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys are {sorted(result)}"]
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"correct={result['correct']} failed={result['failed']}: "
                      + "; ".join(ln for ln in lines if ln.startswith("check ") and " FAIL " in ln))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append("attempted must be a whole number >= 1")
    expected = {m["name"]: m["unit"] for m in spec[section]}
    got = result["metrics"]
    if set(got) != set(expected):
        errors.append(f"metric names differ: missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != expected.get(name):
            errors.append(f"{name}: {m} does not match unit {expected.get(name)!r}")
        elif not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            errors.append(f"{name}: value {m['value']!r} is not a finite number")
    return errors


def check_bare_copy(spec: dict) -> list[str]:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for p in spec["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    w = spec["workloads"][0]["name"]
    proc = subprocess.run([*spec["command"], "--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    spec = json.loads(raw)
    errors = check_spec(spec, len(raw))
    for w in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [*spec["command"], "--workload", w["name"], "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
            found = [f"exit {proc.returncode}: {proc.stderr[-500:]}"] if proc.returncode else \
                check_output(proc.stdout, spec, section)
            print(f"{w['name']} trace={trace}: {'ok' if not found else 'FAIL'}")
            errors += [f"{w['name']} trace={trace}: {e}" for e in found]
    errors += check_bare_copy(spec)
    for e in errors:
        print("error:", e)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
