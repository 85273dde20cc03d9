#!/usr/bin/env python3
"""End to end on synthetic data: train, predict, aggregate, score.

Fits the full network on a small linearly-separable instance set, then
runs document-level prediction aggregation and the micro-averaged
exact-match scorer.
"""

from ksm.model import KSMModel, ModelConfig
from ksm.synthetic import separable_task
from ksm.train import (TrainConfig, aggregate_predictions, format_report,
                       micro_prf, predict_instances, prf_counts,
                       train_model, training_accuracy)

d = 16
instances, store, table = separable_task(n=40, d=d, seed=0)
n_pos = sum(1 for i in instances if i.label == "positive")
print(f"{len(instances)} instances ({n_pos} positive), "
      f"{len(store.entity_table)} KB entities\n")

config = ModelConfig(d=d, n_heads=2, n_blocks=2, dropout_rate=0.1)
model = KSMModel(config, table, seed=11)
tc = TrainConfig(batch_size=8, lr=0.02, max_epochs=50, patience=50,
                 seed=11, holdout_fraction=0.0)

result = train_model(instances, store, model, tc)
print("training loss by epoch (every 10th):")
for entry in result.log[::10]:
    print(f"  epoch {entry.epoch:2d}: {entry.train_loss:.4f}")
print(f"final training accuracy: "
      f"{training_accuracy(model, instances, store):.3f}\n")

preds = predict_instances(model, instances, store)
prediction_set = aggregate_predictions(preds)
print(f"document-level positives after aggregation: "
      f"{sum(len(v) for v in prediction_set.values())} pairs")

gold = {}
for inst in instances:
    if inst.label == "positive":
        gold.setdefault(inst.doc_id, set()).add(inst.pair)

counts = prf_counts(prediction_set, gold)
print(format_report(micro_prf(prediction_set, gold), counts))
