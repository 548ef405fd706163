"""resilire: recovery-bound checking for well-structured models.

Decides, for a system under adverse interference, the least number of
steps k such that from every reachable bad state a safe state is again
reachable within k steps -- or reports that no such bound exists.  The
decision procedure is backward ideal saturation over a well-quasi-order;
backends cover Petri nets and single-pushout graph rewriting on graph
classes of bounded path length, both optionally synchronized with a
control automaton.
"""

from .control import (AutomatonEdge, ControlAutomaton, enrich_rules, mark_rules,
                      with_control)
from .constraints import (And, BadSet, Exists, NotExists, Or, VectorPattern,
                          anti_ideal_of, ideal_basis_of, negate, satisfies)
from .engine import (EXHAUSTED, FOUND, INFINITY, UNBOUNDED, ResilienceInstance,
                     Verdict, approx_bounds, backward_step, forward_states,
                     min_recovery, overapprox_bound, pre_star, recovery_bound,
                     underapprox_bound)
from .errors import (BackendMismatch, GuardExceeded, ModelError, ResilError,
                     SaturationExhausted)
from .graphs import (Graph, GraphClass, embeddings, exists_embedding, graph_of,
                     quotient_isolated, single_node)
from .limits import Limits
from .order import Basis, basis_subset, covers, minimize
from .petri import (ENVIRONMENT, MARKERS, Marking, PetriBackend, PetriNet,
                    ProductBackend, SYSTEM, Transition, VectorOrder, enabled,
                    fire, least_successor, make_net, min_enabling_cover)
from .rewriting import (GraphBackend, Rule, SubgraphOrder, apply_rule,
                        identity_rule, matches, overlaps, rule_predecessor_basis,
                        successors)

__version__ = "0.1.0"
