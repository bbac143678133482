#!/usr/bin/env python3
"""Watch the class token organize the classes, block by block.

Trains briefly, then t-SNE-embeds the raw windows (stage 0) and the class
token after each block (stages 1..depth). A nearest-centroid score per
stage quantifies what the pictures usually show: raw signals overlap
heavily, and separability improves with depth. Writes the coordinates to
embedding.csv (block_index,label,x,y) for plotting with any external tool.
"""

import time

import numpy as np

from tst import analysis, data
from tst.model import TSTConfig, TSTModel
from tst.training import train

print("== quick training run ==")
windows = data.generate_synthetic(data.default_synthetic_spec(), 80, seed=11, length=512)
split = data.split_train_test(windows, 650, 150, seed=2)
cfg = TSTConfig(L=512, ns=64, dim=32, dim_mlp=64, d_k=16, heads=2, depth=2,
                n_class=10, epochs=18, batch_size=64, lr=1e-3)
model = TSTModel(cfg, seed=0)
start = time.time()
report = train(model, split, cfg, seed=0)
print(f"{time.time() - start:.0f}s, test accuracy {report.final_test_acc:.1%}")

print("\n== per-stage t-SNE export ==")
start = time.time()
coords, labels = analysis.export_embeddings(model, split.test, "embedding.csv",
                                            perplexity=15, iterations=600, seed=0)
print(f"{time.time() - start:.0f}s, wrote {len(coords) * len(labels)} rows to embedding.csv "
      f"({cfg.depth + 1} stages x {len(split.test)} windows)")


def nearest_centroid_score(coords, labels):
    centroids = np.stack([coords[labels == c].mean(axis=0) for c in np.unique(labels)])
    d = np.linalg.norm(coords[:, None, :] - centroids[None, :, :], axis=2)
    return float(np.mean(np.unique(labels)[np.argmin(d, axis=1)] == labels))


print("\nstage                nearest-centroid accuracy in the 2-d embedding")
for stage in range(cfg.depth + 1):
    name = "raw windows" if stage == 0 else f"after block {stage}"
    print(f"{name:<20} {nearest_centroid_score(coords[stage], labels):.1%}")
