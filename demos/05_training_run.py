"""Small end-to-end training run on synthetic data, with evaluation.

Uses a reduced model so the demo finishes in about a minute, then prints
an ablation-style table comparing the full model with the filter removed.

Run:  python demos/05_training_run.py
"""

import dataclasses

from respden.config import RunConfig
from respden.report import render_ablation_table, variant_name
from respden.train import evaluate_split, prepare_data, train

# a RunConfig checks itself when built: a value out of range raises UsageError here
base = RunConfig(
    dim=32, heads=4, layers=1, mask_hidden=8,
    epochs=6, batch=8, lr=1e-3, weight_decay=0.0,
    dataset="synth", train_per_class=6, test_per_class=3,
    train_subjects=3, test_subjects=2, seed=11,
)

rows = []
# configs are frozen: the ablation variant is a checked copy with one flag changed
for cfg in (base, dataclasses.replace(base, no_aff=True)):
    result = train(cfg)
    data = prepare_data(cfg)
    report = evaluate_split(result.model, data, "test")
    name = variant_name(cfg.snapshot())
    print(f"{name}: final train loss {result.history[-1].train_loss:.3f}  "
          f"held-out Score {report.score:.3f}")
    rows.append((name, report.sp, report.se, report.score))

print()
print(render_ablation_table(rows))
