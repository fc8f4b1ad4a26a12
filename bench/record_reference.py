"""Record the reference stdout of every closed-form and casimir request the benchmark can draw.

Usage, from the repository root, on the commit whose outputs are the reference:

    python3 bench/record_reference.py

Writes bench/reference_outputs.json, mapping each argv (joined by spaces)
to its stdout.  The benchmark then requires byte-identical stdout.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    references = {}
    for argv in run.reference_argvs():
        code, out, err, _, _ = run._spawn(run.CLI + argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}: {err.decode().strip()}")
        references[" ".join(argv)] = out.decode()
    run.REFERENCE_FILE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(references)} reference outputs to {run.REFERENCE_FILE.name}")


if __name__ == "__main__":
    main()
