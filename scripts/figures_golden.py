#!/usr/bin/env python3
"""Check (or regenerate) the golden digest of every figure's output.

Runs the `figures` driver at COP_BENCH_EPOCHS=300 into a temporary
results directory and digests, per entry, the stdout block that follows
its `==> <entry> <==` line and the `<entry>.json` it writes.
`figures.timing.json` holds wall times and is left out. The digests are
compared with a checked-in file, one `<kind> <entry> <sha256>` line per
output (kind `stdout` or `json`), and every entry that differs, is
missing or is new is named.

Usage:
  figures_golden.py FIGURES GOLDEN            compare; exit 1 on a mismatch
  figures_golden.py FIGURES GOLDEN --update   rewrite GOLDEN from this run

Regenerate the golden file only for a deliberate output change, and say
so in the change notes:
  cmake --build build --target figures
  python3 scripts/figures_golden.py build/bench/figures \\
      bench/golden/figures_300.txt --update
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile

EPOCHS = 300
HEADER = re.compile(r"^==> (\S+) <==$")
TIMING = "figures.timing.json"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_figures(figures, results):
    env = dict(os.environ)
    env["COP_BENCH_EPOCHS"] = str(EPOCHS)
    env["COP_BENCH_RESULTS"] = results
    env.pop("COP_TRACE_STATS", None)
    env.setdefault("COP_BENCH_JOBS", str(min(4, os.cpu_count() or 1)))
    proc = subprocess.run([figures], env=env, stdout=subprocess.PIPE,
                          check=False)
    if proc.returncode != 0:
        sys.exit(f"{figures} exited with {proc.returncode}")
    return proc.stdout


def digests(stdout, results):
    """Map (kind, entry) to the sha256 of that output."""
    out = {}
    entry, block = None, []

    def close():
        if entry is not None:
            out[("stdout", entry)] = sha256("".join(block).encode())

    for line in stdout.decode().splitlines(keepends=True):
        m = HEADER.match(line.rstrip("\n"))
        if m:
            close()
            entry, block = m.group(1), []
        elif entry is None:
            sys.exit(f"stdout before the first entry header: {line!r}")
        else:
            block.append(line)
    close()

    for name in sorted(os.listdir(results)):
        if not name.endswith(".json") or name == TIMING:
            continue
        with open(os.path.join(results, name), "rb") as f:
            out[("json", name[: -len(".json")])] = sha256(f.read())
    return out


def read_golden(path):
    golden = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 3 or fields[0] not in ("stdout", "json"):
                sys.exit(f"{path}:{lineno}: expected '<kind> <entry> <sha256>'")
            golden[(fields[0], fields[1])] = fields[2]
    return golden


def write_golden(path, got):
    with open(path, "w") as f:
        f.write(f"# Per-entry sha256 of `figures` output at "
                f"COP_BENCH_EPOCHS={EPOCHS}.\n")
        f.write("# Regenerate: scripts/figures_golden.py FIGURES "
                "bench/golden/figures_300.txt --update\n")
        for (kind, entry), digest in sorted(got.items(),
                                            key=lambda kv: (kv[0][1],
                                                            kv[0][0])):
            f.write(f"{kind} {entry} {digest}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("figures", help="path of the figures binary")
    ap.add_argument("golden", help="path of the golden digest file")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden file from this run")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="figures_golden_") as results:
        got = digests(run_figures(args.figures, results), results)

    if args.update:
        write_golden(args.golden, got)
        print(f"wrote {len(got)} digests to {args.golden}")
        return 0

    golden = read_golden(args.golden)
    bad = 0
    for key in sorted(set(golden) | set(got), key=lambda k: (k[1], k[0])):
        kind, entry = key
        if key not in got:
            print(f"MISSING {kind} {entry}: no such output in this run")
        elif key not in golden:
            print(f"NEW {kind} {entry}: not in {args.golden}")
        elif got[key] != golden[key]:
            print(f"CHANGED {kind} {entry}: {got[key]} != {golden[key]}")
        else:
            continue
        bad += 1
    if bad:
        print(f"{bad} of {len(golden)} figure outputs differ from "
              f"{args.golden}")
        return 1
    print(f"all {len(golden)} figure outputs match {args.golden}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
