"""Two readings of "bad", and why they differ.

Adverse reading: bad states are those the environment has just
touched (observed through the control automaton or a marker).  Error
reading: bad states are everything outside the safety ideal.  A system
can be resilient under the first reading and hopeless under the second
when its own moves can wreck states the environment never reaches.

Run:  python demos/adverse_vs_error.py
"""

from dataclasses import replace
from pathlib import Path

from resilire import engine, model, negate

HERE = Path(__file__).resolve().parent.parent


def verdict_line(built):
    v = engine.min_recovery(built.instance())
    return "%s (k_min=%s)" % (v.kind, v.k_min)


def main():
    for name in ("adverse_vs_error.json", "adverse_vs_error_petri.json"):
        doc = model.load(str(HERE / "fixtures" / name))
        print("%s:" % name)
        print("   bad = after an environment move : %s"
              % verdict_line(model.build(doc)))
        print("   bad = outside the safety ideal  : %s"
              % verdict_line(model.build(replace(doc, bad=negate(doc.safety)))))
        print()
    print("The gap: right after an environment move a repair is always")
    print("available, but one wrong system move afterwards reaches a state")
    print("from which the safety pattern can never be rebuilt.")


if __name__ == "__main__":
    main()
