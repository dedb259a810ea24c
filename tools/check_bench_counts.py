#!/usr/bin/env python3
"""Checks that every committed BENCH_*.json still matches the code.

For each BENCH_<name>.json at the repository root, runs
<bench-dir>/bench_<name> --json <tmp> and compares the regenerated file with
the committed one field by field. Strings, booleans and integers must match
exactly; floats and timing fields (seconds, speedup, per-second rates) are
skipped, because they depend on the host. Rows of a list are matched by
their string fields (model, engine, backend, ...). A committed avx2 row is
reported by name and skipped when the host produced no avx2 rows at all (no
AVX2). Exits 1 on any difference.

Usage: python3 tools/check_bench_counts.py --bench-dir build/bench
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

TIMING_WORDS = ("seconds", "speedup", "per_second")


def is_timing(key):
    return any(word in key for word in TIMING_WORDS)


def row_key(row):
    return tuple(sorted((k, v) for k, v in row.items() if isinstance(v, str)))


def row_name(row):
    return ",".join(f"{k}={v}" for k, v in row_key(row))


def compare(path, old, new, problems, notes):
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            where = f"{path}.{key}"
            if key not in new:
                problems.append(f"{where}: missing from the regenerated file")
            elif key not in old:
                problems.append(f"{where}: missing from the committed file")
            elif not is_timing(key):
                compare(where, old[key], new[key], problems, notes)
        return
    if isinstance(old, list) and isinstance(new, list):
        if not all(isinstance(r, dict) for r in old + new):
            if len(old) != len(new):
                problems.append(f"{path}: {len(old)} committed entries, "
                                f"{len(new)} regenerated")
            for i, (a, b) in enumerate(zip(old, new)):
                compare(f"{path}[{i}]", a, b, problems, notes)
            return
        regenerated = {}
        for row in new:
            if row_key(row) in regenerated:
                problems.append(f"{path}[{row_name(row)}]: two regenerated "
                                "rows share these string fields")
            regenerated[row_key(row)] = row
        host_has_avx2 = any(r.get("backend") == "avx2" for r in new)
        for row in old:
            where = f"{path}[{row_name(row)}]"
            if row_key(row) in regenerated:
                compare(where, row, regenerated.pop(row_key(row)), problems,
                        notes)
            elif row.get("backend") == "avx2" and not host_has_avx2:
                notes.append(f"{where}: not run (this host has no AVX2)")
            else:
                problems.append(f"{where}: row missing from the regenerated "
                                "file")
        for row in regenerated.values():
            problems.append(f"{path}[{row_name(row)}]: row missing from the "
                            "committed file")
        return
    if isinstance(old, float) or isinstance(new, float):
        return
    if old != new:
        problems.append(f"{path}: committed {json.dumps(old)}, regenerated "
                        f"{json.dumps(new)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-dir", required=True,
                        help="directory holding the bench_* binaries")
    parser.add_argument("--repo", default=".",
                        help="repository root holding BENCH_*.json")
    args = parser.parse_args()

    committed = sorted(pathlib.Path(args.repo).glob("BENCH_*.json"))
    if not committed:
        print("no BENCH_*.json found", file=sys.stderr)
        return 1
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for path in committed:
            name = path.stem[len("BENCH_"):]
            binary = pathlib.Path(args.bench_dir) / f"bench_{name}"
            out = pathlib.Path(tmp) / path.name
            run = subprocess.run([str(binary), "--json", str(out)],
                                 stdout=subprocess.DEVNULL, check=False)
            if run.returncode != 0:
                print(f"{path.name}: bench_{name} exited {run.returncode}")
                failed = True
                continue
            problems, notes = [], []
            compare(name, json.loads(path.read_text()),
                    json.loads(out.read_text()), problems, notes)
            for note in notes:
                print(f"{path.name}: note: {note}")
            for problem in problems:
                print(f"{path.name}: {problem}")
            print(f"{path.name}: {'STALE' if problems else 'ok'}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
