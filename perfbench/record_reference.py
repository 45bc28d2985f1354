"""Record the reference outputs that out_drift and the digest check compare against.

    python3 perfbench/record_reference.py

Runs each workload once, requires it to pass its gate, and stores every
output file xz-compressed under perfbench/reference/<workload>/ with the
SHA-256 of the uncompressed file in digests.json.  The references in the
repository were recorded at the seed commit; recording them again moves the
baseline that ROADMAP's "byte-identical outputs" promise is measured from.
"""

import json
import lzma
import os
import shutil
import sys

import run
import gate


def main():
    sys.path.insert(0, run.SRC)
    from linkages import cli

    for name, wl in run.WORKLOADS.items():
        out_dir = os.path.join(run.OUT, "reference", name)
        shutil.rmtree(out_dir, ignore_errors=True)
        code = cli.main([*wl.argv, "--out", out_dir])
        problems = gate.GATES[name](out_dir) if code == 0 else [f"exit code {code}"]
        if problems:
            raise SystemExit(f"{name}: not recording a failing run: {problems}")
        dest = os.path.join(gate.REFERENCE_DIR, name)
        shutil.rmtree(dest, ignore_errors=True)
        os.makedirs(dest)
        digests = {}
        for fname in sorted(os.listdir(out_dir)):
            path = os.path.join(out_dir, fname)
            digests[fname] = gate.sha256(path)
            with open(path, "rb") as src, lzma.open(os.path.join(dest, fname + ".xz"), "wb", preset=9) as dst:
                shutil.copyfileobj(src, dst)
        with open(os.path.join(dest, "digests.json"), "w") as f:
            json.dump(digests, f, indent=1)
            f.write("\n")
        shutil.rmtree(out_dir)
        print(f"{name}: recorded {', '.join(digests)}")


if __name__ == "__main__":
    main()
