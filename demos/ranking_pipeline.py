"""End-to-end ranking walkthrough.

Eighteen labelers of wildly different quality each rank ten items per task.
Without ever seeing a true ranking, the label model recovers how good each
labeler is; weighting the Kemeny aggregation by those learned accuracies then
beats the one-labeler-one-vote baseline.

Run:  python3 demos/ranking_pipeline.py
"""

import numpy as np

from uws import aggregate_dataset, learn_label_model, mallows
from uws import permutations as perm
from uws import synthetic as syn

RHO = 10
N_TASKS = 250
SEED = 7

print("== generate ==")
thetas = syn.heterogeneous_thetas(seed=SEED)  # 10 noisy labelers, 8 sharp ones
scenario = syn.RankingScenario(n=N_TASKS, rho=RHO, thetas=thetas, seed=SEED)
truth, data = syn.gen_ranking_tasks(scenario)
print(f"{data.n_lfs} labelers x {data.n_tasks} tasks, rankings of {RHO} items")
print("true concentrations:", np.round(thetas, 2))

print("\n== learn accuracies without the truth ==")
model = learn_label_model(data)
print("learned concentrations:", np.round(model.thetas, 2))
print("learned mean Kendall distance to the (unseen) truth per labeler:")
print(np.round(model.expected_distances, 1))
closed_form = [mallows.expected_distance(max(t, 1e-6), RHO) for t in thetas]
print("closed-form values at the true concentrations:")
print(np.round(closed_form, 1))

print("\n== aggregate ==")
for rule, model_arg in (("mv", None), ("weighted", model)):
    labels = aggregate_dataset(data, rule=rule, model=model_arg, seed=SEED)
    mean_d = perm.kendall_tau_many(np.asarray(labels), truth).mean()
    print(f"{rule:>8}: mean Kendall distance to truth = {mean_d:.3f}")
print("\nweighting by learned accuracies filters the noisy majority out.")
