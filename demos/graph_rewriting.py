"""Single-pushout rewriting in five minutes.

Rules are partial graph morphisms: unmapped left-hand items are
deleted (together with any edges left dangling), unmatched right-hand
items are created fresh.  The backward step inverts this: given a
target graph, it reconstructs the minimal graphs that can reach the
target's upward closure in one application.

Run:  python demos/graph_rewriting.py
"""

from resilire import (Graph, GraphClass, Rule, SubgraphOrder, apply_rule,
                      graph_of, matches, minimize, rule_predecessor_basis,
                      single_node, successors)


def show(tag, g):
    nodes = ", ".join("%s:%s" % (i, l) for i, l in sorted(g.nodes.items()))
    edges = ", ".join("%s->%s" % (s, t) for (s, t, _l) in sorted(g.edges.values()))
    print("   %-12s nodes {%s}  edges {%s}" % (tag, nodes, edges or "-"))


def main():
    print("A rule that moves a token from a P-place to a W-place:")
    move = Rule(
        "move", "sys",
        graph_of({"p": "P", "w": "W", "tok": "t"},
                 [("p", "w", "x"), ("p", "tok", "x")]),
        graph_of({"p": "P", "w": "W", "tok2": "t"},
                 [("p", "w", "x"), ("w", "tok2", "x")]),
        {"p": "p", "w": "w"}, {"e0": "e0"})
    host = graph_of({"P": "P", "W": "W", "tok": "t"},
                    [("P", "W", "x"), ("P", "tok", "x")])
    show("before", host)
    (m,) = matches(move, host)
    show("after", apply_rule(move, host, m))

    print("\nDeletion wins: removing a node drags its edges along.")
    drop = Rule("drop", "sys", single_node("a"), Graph({}, {}), {})
    host = graph_of({"n0": "a", "b": "b"}, [("n0", "b", "x")])
    show("before", host)
    (m,) = matches(drop, host)
    show("after", apply_rule(drop, host, m))

    print("\nBackward: which graphs reach 'an L with an edge to a point'")
    print("in one application of the edge-deleting rule?")
    sever = Rule(
        "sever", "env",
        graph_of({"l": "L", "p": "pt"}, [("l", "p", "x")]),
        graph_of({"l": "L", "p": "pt"}, []),
        {"l": "l", "p": "p"})
    klass = GraphClass(max_path=4)
    order = SubgraphOrder()
    target = graph_of({"l": "L", "p": "pt"}, [("l", "p", "x")])
    preds = minimize(rule_predecessor_basis(sever, target, klass), order)
    for g in preds:
        show("minimal", g)
    print("   (each one still contains the target after deleting some edge)")
    for g in preds:
        assert any(len(h.edges) >= 1 for h in successors(g, [sever], klass))

    print("\nEvery predecessor already contains the goal pattern --")
    print("deleting an edge never creates one -- so the goal's ideal is")
    print("closed under this rule's predecessors and saturation stops at once:")
    basis = minimize(list(preds) + [target], order)
    print("   minimize(predecessors + goal) =", len(basis),
          "element (the goal itself):", basis.elements[0] == target.canonical())


if __name__ == "__main__":
    main()
