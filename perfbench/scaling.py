"""Scaling curve of `dcl check` on seeded registry instances of growing size.

    python3 perfbench/scaling.py [--limit 30] [--sizes 1,2,3,...]

Each size runs in its own child process under a time limit: the child
writes a valid registry instance of that many drivers, then times
`dcl.cli.main(["check", ...])` in-process. By default sizes go 1, 2, 3, ...
until one exceeds the limit, then 10, 100 and 1000. A size marked
``timeout`` did not finish within the limit; ``exit 3`` means dcl refused
the input as malformed. One JSON line per size goes to standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
LARGE_SIZES = (10, 100, 1000)
SEED = 1


def child(drivers: int) -> None:
    sys.path.insert(0, str(SRC))
    from registry_gen import instance_json, registry_records

    from dcl import cli

    records = registry_records(random.Random(SEED * 1_000_003 + drivers), drivers, "valid")
    path = instance_path(drivers)
    path.write_text(json.dumps(instance_json(records)))
    sketch = str(Path(cli.__file__).parent / "data" / "registry-sketch.json")
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["check", sketch, str(path)])
    elapsed = time.perf_counter() - start
    print(json.dumps({"exit": code, "check_s": elapsed, "stderr": err.getvalue().strip()}))


def instance_path(drivers: int) -> Path:
    return OUT / f"scaling-n{drivers}.json"


def measure(drivers: int, limit: float) -> dict:
    script = str(Path(__file__).resolve())
    argv = [sys.executable, script, "--child", str(drivers)]
    row = {"drivers": drivers}
    OUT.mkdir(exist_ok=True)
    try:
        # run() kills the child when the limit passes and waits for it
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return {**row, "status": "timeout", "limit_s": limit}
    finally:
        instance_path(drivers).unlink(missing_ok=True)
    if proc.returncode != 0:
        return {**row, "status": "error", "stderr": proc.stderr.strip()[-500:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    status = {0: "valid", 3: "exit 3"}.get(result["exit"], f"exit {result['exit']}")
    row.update(status=status, check_s=round(result["check_s"], 4))
    if result["stderr"]:
        row["stderr"] = result["stderr"]
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit", type=float, default=30.0, help="seconds per size")
    parser.add_argument("--sizes", help="comma-separated driver counts (default: see above)")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "dcl" / "__init__.py").is_file():
        print(f"error: the dcl sources are missing ({SRC / 'dcl'})", file=sys.stderr)
        return 2
    if args.child is not None:
        child(args.child)
        return 0
    def report(n: int) -> dict:
        row = measure(n, args.limit)
        print(json.dumps(row), flush=True)
        return row

    if args.sizes:
        for n in args.sizes.split(","):
            report(int(n))
        return 0
    n = 1
    while report(n)["status"] == "valid":
        n += 1
    for n in LARGE_SIZES:
        report(n)
    return 0

if __name__ == "__main__":
    sys.exit(main())
