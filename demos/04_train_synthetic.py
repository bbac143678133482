#!/usr/bin/env python3
"""Train a scaled-down model on the bundled synthetic bearing dataset.

Ten classes: normal condition plus inner-race / outer-race / ball faults
at three severities each. Trains for 15 epochs (a couple of minutes on one
CPU), then prints the confusion matrix and the 4-mode collapse. Expect the
residual confusion to sit inside a fault mode (severity mix-ups), so the
collapsed accuracy is higher.
"""

import time

import numpy as np

from tst import analysis, data
from tst.model import TSTConfig, TSTModel
from tst.training import train

EPOCHS = 15

print("== data ==")
windows = data.generate_synthetic(data.default_synthetic_spec(), 120, seed=42, length=512)
split = data.split_train_test(windows, 933, 267, seed=1)   # 7:2 proportions
print(f"{len(windows)} windows -> {len(split.train)} train / {len(split.test)} test")

cfg = TSTConfig(L=512, ns=64, dim=32, dim_mlp=64, d_k=16, heads=2, depth=2,
                n_class=10, epochs=EPOCHS, batch_size=64, lr=1e-3)
model = TSTModel(cfg, seed=0)
cost = analysis.cost_report(cfg)
print(f"model: {cost.params_full:,} parameters ({cost.flops_m:.1f} MFLOPs/sample)")

print(f"\n== training {EPOCHS} epochs ==")
start = time.time()
report = train(model, split, cfg, seed=0)
print(f"{time.time() - start:.0f}s elapsed")
print("epoch  train_loss  test_loss  train_acc  test_acc")
for e in range(EPOCHS):
    print(f"{e:>5}  {report.train_loss[e]:>10.4f}  {report.test_loss[e]:>9.4f}"
          f"  {report.train_acc[e]:>9.3f}  {report.test_acc[e]:>8.3f}")

print("\n== confusion matrix (rows = true, columns = predicted) ==")
x, y = data.windows_to_arrays(split.test)
pred = np.concatenate([model.predict(x[i:i + 64]) for i in range(0, len(x), 64)])
matrix = analysis.confusion(y, pred, n_class=10)
names = ["NC", "IR1", "IR2", "IR3", "OR1", "OR2", "OR3", "RB1", "RB2", "RB3"]
print("      " + " ".join(f"{n:>4}" for n in names))
for i, row in enumerate(matrix):
    print(f"{names[i]:>4}  " + " ".join(f"{v:>4}" for v in row))

acc10 = analysis.accuracy_from_confusion(matrix)
m4 = analysis.collapse_to_4class(matrix)
acc4 = analysis.accuracy_from_confusion(m4)
print(f"\n10-class accuracy: {acc10:.1%}")
print("4-mode collapse (NC / IR / OR / RB):")
for i, row in enumerate(m4):
    print(f"{analysis.FOUR_CLASS_NAMES[i]:>4}  " + " ".join(f"{v:>5}" for v in row))
print(f"4-class accuracy: {acc4:.1%}  (never below the 10-class figure)")
