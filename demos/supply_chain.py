"""Walk through the supply-chain model step by step.

A production site feeds a warehouse which ships to two stores; the
environment buys stock or destroys it.  We ask: after any environment
interference, how many steps does the system need to be back "in
stock" (warehouse and both stores nonempty)?  The answer comes from
backward saturation: grow the safety ideal by one-step predecessors
until it swallows every reachable bad state.

Run:  python demos/supply_chain.py
"""

from pathlib import Path

from resilire import engine, model

HERE = Path(__file__).resolve().parent.parent


def main():
    built = model.build(model.load(str(HERE / "fixtures" / "supplychain.json")))

    print("Safety ideal basis (in stock, any control state):")
    for s in built.safe.elements[:3]:
        print("   tokens=%s at %s" % (s.tokens, s.state))
    print("   ... one copy per control state, %d total" % len(built.safe))

    print("\nMinimal reachable bad states (supplied with the model):")
    for s in built.reachable.elements:
        print("   tokens=%s at %s" % (s.tokens, s.state))

    verdict = engine.min_recovery(built.instance(), keep_trace=True)
    print("\nBackward saturation, bad-state slice per round:")
    for k, basis in enumerate(verdict.trace):
        row = sorted(s.tokens for s in basis.elements if built.bad.contains(s))
        print("   round %2d: %s" % (k, row))
    print("\nVerdict: %s, minimal recovery bound k_min = %s"
          % (verdict.kind, verdict.k_min))

    print("\nWithout the reachability basis we can still bound k_min:")
    for depth in (0, 4, 8, 12, 20):
        ku = engine.underapprox_bound(built.start, depth, built.bad,
                                      built.safe, built.backend)
        print("   states within %2d steps give a lower bound of %s" % (depth, ku))
    ko = engine.overapprox_bound(built.start, built.bad, built.safe, built.backend)
    print("   forward ideal saturation gives an upper bound of %s" % ko)


if __name__ == "__main__":
    main()
