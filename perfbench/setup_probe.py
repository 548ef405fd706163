"""Time one set-up in a fresh interpreter: `import resilire`, then for a
generated workload the document's generation and writing, then
`model.load` and `model.build`.  Prints the seconds taken.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED DOCUMENT_PATH
"""

import sys
import time
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    workload, seed, path = argv[0], int(argv[1]), argv[2]
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from resilire import model
    if workload in inputs.GENERATED:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inputs.dumps(inputs.document(workload, ROOT, seed)))
    model.build(model.load(path))
    print(repr(time.perf_counter() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
