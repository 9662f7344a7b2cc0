"""Vectorized twins of the pure split functions.

Each function here reproduces its scalar reference *bit for bit*:

* elementwise arithmetic (``share * n``, ``remaining * w / total``,
  floor/ceiling clamps) runs through numpy ufuncs, which perform the
  same single IEEE-754 operation per element the scalar loop does;
* **reductions stay sequential** — numpy's pairwise summation is
  faster but rounds differently, so totals are accumulated in the same
  left-to-right order as the scalar ``sum()`` over sorted names.

The Hypothesis suite (``tests/test_columnar_equivalence.py``) pins
element-for-element equality on random shapes; the manager and the
federation tier may therefore switch implementations by size without
changing a digest.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.federation.rebalance import (
    REL_EPS,
    site_allocation_total_w,
    validate_floors,
)
from repro.manager.policies.proportional import per_node_share


def _seq_sum(values) -> float:
    """Left-to-right float accumulation, matching the scalar ``sum()``."""
    total = 0.0
    for v in values:
        total += v
    return total


def per_node_share_np(budget_w, active_nodes, node_peak_w) -> np.ndarray:
    """Broadcasted ``min(peak, budget / active)`` — the paper's P_n rule
    applied elementwise over arrays of budgets/counts/peaks."""
    budget = np.asarray(budget_w, dtype=np.float64)
    active = np.asarray(active_nodes, dtype=np.float64)
    peak = np.asarray(node_peak_w, dtype=np.float64)
    if np.any(active <= 0):
        raise ValueError("active_nodes must be > 0")
    return np.where(active * peak <= budget, peak, budget / active)


def split_budget_np(
    budget_w: float, job_nodes: Mapping[int, int], node_peak_w: float
) -> Dict[int, float]:
    """Vectorized :func:`~repro.manager.policies.proportional.split_budget`.

    The node-count total is integer (exact in any order); the per-job
    multiply is one IEEE operation either way, so this is bitwise-equal
    to the scalar reference at every size.
    """
    if not job_nodes:
        return {}
    jobids = list(job_nodes)
    counts = np.fromiter(
        (job_nodes[j] for j in jobids), dtype=np.int64, count=len(jobids)
    )
    total = int(counts.sum())
    if total == 0:
        return {}
    share = per_node_share(budget_w, total, node_peak_w)
    shares = share * counts.astype(np.float64)
    return {jobid: float(shares[i]) for i, jobid in enumerate(jobids)}


def split_budget_weighted_np(
    budget_w: float,
    job_nodes: Mapping[int, int],
    node_peak_w: float,
    weights: Optional[Mapping[int, float]] = None,
) -> Dict[int, float]:
    """Vectorized :func:`~repro.tenancy.fairshare.split_budget_weighted`.

    The pin test and the rate computation are elementwise ufuncs (the
    same IEEE operations, in the same order, as the scalar loop); the
    weighted node total and the running ``remaining`` are accumulated
    sequentially in the scalar's free-list order, so the result is
    bitwise equal at every size.
    """
    if not job_nodes:
        return {}
    from repro.tenancy.fairshare import normalize_weights

    jobids = list(job_nodes)
    n = len(jobids)
    counts = np.fromiter(
        (float(job_nodes[j]) for j in jobids), np.float64, n
    )
    if np.any(counts < 0):
        bad = jobids[int(np.nonzero(counts < 0)[0][0])]
        raise ValueError(f"job {bad!r} node count must be >= 0")
    if not counts.any():
        return {}  # mirrors the scalar: no allocated nodes, no entries
    wn_map = normalize_weights(weights, jobids)
    wn = np.fromiter((wn_map[j] for j in jobids), np.float64, n)

    alloc = np.zeros(n, dtype=np.float64)
    free_mask = np.ones(n, dtype=bool)
    remaining = float(budget_w)
    terms = wn * counts  # elementwise wn_j · n_j, one op per job
    while free_mask.any():
        free = np.nonzero(free_mask)[0]
        total_wn = _seq_sum(terms[i] for i in free)
        if total_wn <= 0.0:
            alloc[free] = 0.0
            break
        pin = free_mask & (node_peak_w * total_wn <= remaining * wn)
        if pin.any():
            peak_alloc = node_peak_w * counts
            # Sequential remaining updates in the scalar's pin order
            # (ascending index == free-list insertion order).
            for i in np.nonzero(pin)[0]:
                alloc[i] = peak_alloc[i]
                remaining -= alloc[i]
            free_mask &= ~pin
            continue
        rate = remaining * wn / total_wn
        alloc[free] = (rate * counts)[free]
        break
    return {j: float(alloc[i]) for i, j in enumerate(jobids)}


def split_site_budget_np(
    site_budget_w: float,
    demands: Mapping[str, float],
    floors: Optional[Mapping[str, float]] = None,
    ceilings: Optional[Mapping[str, Optional[float]]] = None,
    weights: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Vectorized :func:`~repro.federation.rebalance.split_site_budget`.

    Same water-fill (distribute by demand weight, pin starved clusters
    at floors then overshooting clusters at ceilings, re-divide, then
    top up stranded budget), with the per-round membership tests and
    clamps done as array masks. Reductions are sequential in the
    scalar's order (sorted names for weights, pin order for pinned
    shares), matching its accumulators exactly.
    """
    names = sorted(demands)
    if not names:
        return {}
    n = len(names)
    lo_map = {c: float((floors or {}).get(c, 0.0) or 0.0) for c in names}
    hi_map = {c: (ceilings or {}).get(c) for c in names}
    validate_floors(site_budget_w, lo_map, hi_map)

    demand = np.fromiter((float(demands[c]) for c in names), np.float64, n)
    if np.any(demand < 0):
        bad = names[int(np.nonzero(demand < 0)[0][0])]
        raise ValueError(f"cluster {bad!r} demand must be >= 0")
    if weights is None:
        eff = demand
    else:
        from repro.tenancy.fairshare import normalize_weights

        wn_map = normalize_weights(weights, names)
        wn = np.fromiter((wn_map[c] for c in names), np.float64, n)
        eff = wn * demand  # elementwise, matching the scalar wn_c · d_c
    lo = np.fromiter((lo_map[c] for c in names), np.float64, n)
    has_hi = np.fromiter((hi_map[c] is not None for c in names), bool, n)
    hi = np.fromiter(
        (float(hi_map[c]) if hi_map[c] is not None else np.inf for c in names),
        np.float64,
        n,
    )

    share = np.zeros(n, dtype=np.float64)
    is_pinned = np.zeros(n, dtype=bool)
    # Pin order drives the scalar's dict-value accumulation order, so
    # replay it: sum pinned shares in the order they were pinned.
    pin_order: list = []

    def pinned_sum() -> float:
        return _seq_sum(share[i] for i in pin_order)

    while True:
        free = np.nonzero(~is_pinned)[0]
        if free.size == 0:
            break
        remaining = max(0.0, site_budget_w - pinned_sum())
        weight = eff[free]
        total_w = _seq_sum(weight)
        if total_w <= 0.0:
            prop = np.full(free.size, remaining / free.size)
        else:
            prop = remaining * weight / total_w
        starved = prop < lo[free] * (1.0 - REL_EPS) - REL_EPS
        if np.any(starved):
            idx = free[starved]
            share[idx] = lo[idx]
            is_pinned[idx] = True
            pin_order.extend(idx.tolist())
            continue
        over = has_hi[free] & (prop > hi[free] * (1.0 + REL_EPS) + REL_EPS)
        if np.any(over):
            idx = free[over]
            share[idx] = hi[idx]
            is_pinned[idx] = True
            pin_order.extend(idx.tolist())
            continue
        final = np.maximum(prop, lo[free])
        final = np.where(has_hi[free], np.minimum(final, hi[free]), final)
        share[free] = final
        is_pinned[free] = True
        pin_order.extend(free.tolist())
        break

    target = site_allocation_total_w(site_budget_w, demands, ceilings)
    tol = REL_EPS * max(1.0, target)
    # The scalar top-up sums pinned.values(), whose dict order is still
    # the order clusters were first pinned in (re-assigning a key keeps
    # its place), so keep summing in pin order.
    while target - pinned_sum() > tol:
        leftover = target - pinned_sum()
        open_mask = ~has_hi | (share < hi - tol)
        open_idx = np.nonzero(open_mask)[0]
        if open_idx.size == 0:  # pragma: no cover - target <= sum of ceilings
            break
        weight = eff[open_idx]
        total_w = _seq_sum(weight)
        add = leftover * weight / total_w if total_w > 0.0 else None
        if add is None or not add.any():
            # Idle site, or every weighted add underflowed to zero.
            add = np.full(open_idx.size, leftover / open_idx.size)
        new = share[open_idx] + add
        new = np.where(has_hi[open_idx], np.minimum(new, hi[open_idx]), new)
        moved = bool(np.any(new != share[open_idx]))
        share[open_idx] = new
        if not moved:
            break
    return {c: float(share[i]) for i, c in enumerate(names)}
