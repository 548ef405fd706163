"""The edge game: rebuild two directed length-2 paths, one each way.

Two fixed locations; the system may create a middle point wired from
both locations, duplicate an edge, or flip one, strictly alternating
with an environment that deletes one edge per turn.  Backward
saturation answers how many steps the system needs from the worst
post-environment state: thirteen.

Takes about two seconds.  Run:  python demos/path_game.py
"""

import time
from collections import Counter
from pathlib import Path

from resilire import engine, model

HERE = Path(__file__).resolve().parent.parent


def main():
    built = model.build(model.load(str(HERE / "fixtures" / "pathgame.json")))
    print("Rules:", ", ".join(r.name for r in built.backend.rules))
    print("Goal basis: %d graphs (shared middle point, or one per direction)"
          % len(built.safe))
    print("Worst bad state: both locations bare, environment just moved.")
    t0 = time.time()
    verdict = engine.min_recovery(built.instance(), keep_trace=True)
    print("\nSaturation rounds (basis size, split by control state):")
    for k, basis in enumerate(verdict.trace):
        split = Counter(built.backend.klass.control_of(g) for g in basis.elements)
        print("   round %2d: %3d elements  %s" % (k, len(basis), dict(split)))
    print("\nVerdict: %s, k_min = %s  (%.0fs)"
          % (verdict.kind, verdict.k_min, time.time() - t0))
    print("Reading: five point creations, two flips, and six forced")
    print("environment deletions fit exactly into thirteen alternating steps.")


if __name__ == "__main__":
    main()
