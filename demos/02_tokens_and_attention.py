#!/usr/bin/env python3
"""From a raw vibration window to a tokens sequence to attention maps.

Shows the tokenizer pipeline (split -> shared linear embedding -> class
token -> position table), then looks inside a transformer block: the
attention maps are row-stochastic, and without the position table the
class-token feature is a pure bag-of-subsequences readout.
"""

import numpy as np

from tst import data
from tst.model import TSTConfig, TSTModel
from tst.tensor import Tensor, layer_norm
from tst.tokenizer import TokenizerParams, tokenize
from tst.transformer import multi_head

rng = np.random.default_rng(0)

print("== tokenizing one synthetic window ==")
windows = data.generate_synthetic(data.default_synthetic_spec(), 1, seed=3, length=512)
x, y = data.windows_to_arrays(windows[:4])
print(f"4 windows of length 512, labels {y}")

# one config describes the whole model; the tokenizer reads L, ns, dim and
# pos_encoding from it
model_cfg = TSTConfig(L=512, ns=64, dim=32, dim_mlp=64, d_k=16, heads=2, depth=2,
                      n_class=10)
params = TokenizerParams.init(model_cfg, rng)
tokens = tokenize(Tensor(x), params)
print(f"tokens sequence: {tokens.shape}  (batch, 64 subsequences + 1 class slot, dim)")
print(f"slot 0 identical across inputs (class token is learned, not derived): "
      f"{np.allclose(tokens.data[0, 0] - params.pos_table.data[0], params.class_token.data[0])}")

print("\n== attention maps ==")
model = TSTModel(model_cfg, seed=0)
block = model.stack.blocks[0]
out = multi_head(tokens, block)   # the block's attention half: ln1, attention and w_o
# the maps the attention op softmaxes block by block, rebuilt here whole: normalize
# the tokens with ln1, split the heads, scale by 1/sqrt(d_k), then softmax each row
normed = layer_norm(tokens, block.ln1_gain, block.ln1_bias).data
d_k = block.w_q.shape[1] // block.heads
q, k = (np.einsum("bnd,dhk->bhnk", normed,
                  w.data.reshape(-1, block.heads, d_k)) for w in (block.w_q, block.w_k))
scores = q @ k.swapaxes(-1, -2) / d_k ** 0.5
weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
weights /= weights.sum(axis=-1, keepdims=True)
print(f"multi-head output {out.shape}; weight maps {weights.shape} (batch, heads, n, n)")
print(f"every attention row sums to 1: max |row sum - 1| = "
      f"{np.max(np.abs(weights.sum(axis=-1) - 1.0)):.2e}")
print(f"all weights nonnegative: {bool((weights >= 0).all())}")

print("\n== order sensitivity comes only from the position table ==")


def class_feature(pos_encoding, permute):
    cfg = TSTConfig(L=512, ns=64, dim=32, dim_mlp=64, d_k=16, heads=2, depth=2,
                    n_class=10, p_drop=0.0, pos_encoding=pos_encoding)
    m = TSTModel(cfg, seed=7)
    xx = x.copy()
    if permute:
        perm = np.random.default_rng(9).permutation(64)
        xx = xx.reshape(-1, 64, 8)[:, perm, :].reshape(-1, 512)
    return m.forward(xx).class_tokens[-1].data


for pos in ("none", "1d"):
    delta = np.max(np.abs(class_feature(pos, True) - class_feature(pos, False)))
    print(f"pos_encoding={pos:4s}: max feature change under subsequence shuffle = {delta:.2e}")
