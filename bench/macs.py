"""Per-layer multiply-accumulate counts, the denominators of the ``*.gflops`` metrics.

Every count is derived from the public ``analysis.cost_report`` by doubling
one config field and differencing, so there is no second copy of the
closed form here:

- doubling ``L`` at fixed ``ns`` doubles the subsequence length and adds
  exactly the embedding's ``L * dim``;
- doubling ``n_class`` adds exactly the head's ``dim * n_class``;
- doubling ``dim_mlp`` adds exactly the MLP's ``depth * n * 2 * dim * dim_mlp``;
- doubling ``d_k`` adds exactly the q/k/v/o projections' ``depth * n * 4 * dim * heads * d_k``.

The four linear parts must then add up to ``macs_linear``; attention's score
and value products are ``macs_attention`` itself. Counts are per window and
per forward pass. Convention: a backward pass costs 2x the forward MACs, and
one MAC is two floating-point operations.
"""

from __future__ import annotations

from dataclasses import replace

from tst.analysis import cost_report
from tst.model import TSTConfig

BACKWARD_FACTOR = 2


def layer_macs(config: TSTConfig) -> dict[str, int]:
    """Forward MACs per window for the embedding, attention, MLP and head."""
    base = cost_report(config)

    def added(field: str) -> int:
        doubled = replace(config, **{field: 2 * getattr(config, field)})
        return cost_report(doubled).macs_linear - base.macs_linear

    macs = {
        "embedding": added("L"),
        "attention": added("d_k") + base.macs_attention,
        "mlp": added("dim_mlp"),
        "head": added("n_class"),
    }
    if sum(macs.values()) != base.macs_linear + base.macs_attention:
        raise ValueError(f"per-layer MACs {macs} do not sum to cost_report's "
                         f"{base.macs_linear} + {base.macs_attention}")
    return macs
