"""Labels living on a graph: aggregation in an arbitrary finite metric space.

Tasks are hidden nodes of a random connected graph (a uniform spanning tree
plus uniform extra edges); each labeler reports a node near the truth (closer for sharper labelers, in hop distance). The same
triplet machinery estimates per-labeler expected hop error from pairwise
disagreements only, and the weighted node vote beats the unweighted one when
labeler quality varies.

Run:  python3 demos/graph_metric_space.py
"""

import numpy as np

from uws import aggregate_dataset, learn_label_model
from uws import synthetic as syn

SEED = 3

for name, thetas in (("heterogeneous", (3.0, 2.0, 1.0, 0.3, 0.1)),
                     ("homogeneous", (1.0, 1.0, 1.0, 1.0, 1.0))):
    scenario = syn.GraphScenario(n_nodes=30, n_edges=60, n=400, thetas=thetas, seed=SEED)
    space, truth, data = syn.gen_graph_tasks(scenario)
    model = learn_label_model(data)
    print(f"== {name} labelers ==")
    print("true concentrations   :", thetas)
    print("learned mean hop error:", np.round(model.expected_distances, 2))
    picks = {}
    for rule, model_arg in (("mv", None), ("weighted", model)):
        picks[rule] = np.asarray(aggregate_dataset(data, rule=rule, model=model_arg, seed=SEED))
        acc = np.mean(picks[rule] == truth)
        print(f"{rule:>8}: node accuracy = {acc:.3f}")
    print(f"same node from both rules on {np.mean(picks['mv'] == picks['weighted']):.3f} of tasks")
    print()
print("with unequal labelers weighting wins; with equal ones the rules pick the same node on most tasks\n"
      "and part where the unweighted vote ties, which it breaks toward the lowest node index.")
