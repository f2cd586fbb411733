"""Per-slot capacity graph: feeder links, ring ISLs, serving-GS policy.

A slot graph holds the feeder-link capacity of every visible
satellite/station pair (rain already applied), the ISL capacity of every
ring-neighbor pair, and the bookkeeping the allocator needs: which
station each satellite downloads to under the active policy, which
stations are reachable through one ISL hop, and which satellites are
isolated (no feeder link and no neighbor with one) this slot.

Policies:
    best-capacity: each satellite keeps only its highest-capacity feeder
        link (ties broken toward the lowest station index); all other
        feeder edges are masked to zero.  This models one steerable
        gateway antenna per satellite.
    lp-fractional: every visible feeder edge stays; the optimizer may
        split a satellite's download across stations.

Ring neighbors are assumed mutually visible; line-of-sight occlusion
between satellites is not modeled.

`range_graphs` builds the graphs of a slot range at once: the link budgets
run over arrays of the visible (slot, satellite, station) entries and the
ring pairs, best-capacity is an argmax over the station axis, and one-hop
reachability is a boolean product of usable ISLs and lit feeder links.
`build_slot_graph` and `select_serving_gs` are its N = 1 case.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channel import (
    FeederLinkParams,
    IslParams,
    RainModelParams,
    fl_capacity_bps,
    isl_capacity_bps,
)
from .geometry import SlotGeometry, ring_neighbors

POLICY_BEST_CAPACITY = "best-capacity"
POLICY_LP_FRACTIONAL = "lp-fractional"
POLICIES = (POLICY_BEST_CAPACITY, POLICY_LP_FRACTIONAL)


@dataclass(frozen=True)
class SlotGraph:
    """Capacities and adjacency for one time slot.

    fl_capacity_bps: (K, I), zero where invisible or masked by policy.
    isl_capacity_bps: (K, K), zero off the ring or when ISLs are disabled.
    neighbors: ring adjacency per satellite.
    serving_gs: chosen station per satellite (None when the policy keeps
        all edges, or the satellite sees nothing).
    reachable_gs: stations reachable through exactly one ISL hop,
        destination for relayed traffic.
    isolated: satellites with no feeder link and no usable neighbor path.
    """

    slot_index: int
    fl_capacity_bps: np.ndarray
    isl_capacity_bps: np.ndarray
    neighbors: tuple[tuple[int, ...], ...]
    serving_gs: tuple[Optional[int], ...]
    reachable_gs: tuple[tuple[int, ...], ...]
    isolated: tuple[int, ...]

    @property
    def satellite_count(self) -> int:
        return self.fl_capacity_bps.shape[0]

    @property
    def station_count(self) -> int:
        return self.fl_capacity_bps.shape[1]


def _policy_graphs(slots: Sequence[int], fl: np.ndarray, isl: np.ndarray, neighbors, policy: str) -> list[SlotGraph]:
    """The serving policy over a slot range, from (N, K, I) feeder and (N, K, K) ISL capacities.

    best-capacity masks every non-serving feeder edge to zero; lp-fractional
    keeps every edge and leaves serving_gs at None.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    lit = fl > 0.0
    serves = lit.any(axis=2)
    serving = np.full(serves.shape, -1)
    if policy == POLICY_BEST_CAPACITY:
        best = fl.argmax(axis=2)[..., None]  # argmax takes the lowest index on ties
        kept = np.zeros_like(fl)
        np.put_along_axis(kept, best, np.take_along_axis(fl, best, axis=2), axis=2)
        fl = np.where(serves[..., None], kept, fl)
        lit = fl > 0.0
        serving = np.where(serves, best[..., 0], -1)
    ring = np.zeros(isl.shape[1:], dtype=bool)
    for s, nbrs in enumerate(neighbors):
        ring[s, list(nbrs)] = True
    reach = (ring & (isl > 0.0)) @ lit  # (N, K, I): stations one usable ISL hop away
    isolated = ~serves & ~reach.any(axis=2)
    graphs = []
    for n, slot in enumerate(slots):
        serving_gs = tuple(None if j < 0 else j for j in serving[n].tolist())
        reachable = tuple(tuple(np.flatnonzero(row).tolist()) for row in reach[n])
        graphs.append(SlotGraph(slot, fl[n], isl[n], neighbors, serving_gs, reachable, tuple(np.flatnonzero(isolated[n]).tolist())))
    return graphs


def select_serving_gs(graph: SlotGraph, policy: str = POLICY_BEST_CAPACITY) -> SlotGraph:
    """Apply the serving-station policy, re-deriving reachability.

    best-capacity masks every non-serving feeder edge to zero;
    lp-fractional returns the graph with serving_gs cleared.
    """
    fl, isl = graph.fl_capacity_bps[None], graph.isl_capacity_bps[None]
    return _policy_graphs([graph.slot_index], fl, isl, graph.neighbors, policy)[0]


def range_graphs(
    slots: Sequence[int], geometry: Sequence[np.ndarray], fl_params: FeederLinkParams, isl_params: IslParams,
    rain_model: RainModelParams, rain_rates_mm_h, gs_altitudes_km, policy: str, isl_enabled: bool
) -> list[SlotGraph]:
    """Capacity graphs of N slots at once, one per entry of `slots`.

    geometry: (distances_fl_km, elevations_deg, visible, distances_isl_km) of
    `range_geometry`, each with a leading slot axis.  rain_rates_mm_h is
    (N, I), one row per slot; gs_altitudes_km is (I,).  The other arguments
    are those of `build_slot_graph`.
    """
    dist_fl, elev, visible, dist_isl = geometry
    shape = dist_fl.shape
    rates = np.broadcast_to(np.asarray(rain_rates_mm_h, dtype=float)[:, None, :], shape)[visible]
    alts = np.broadcast_to(np.asarray(gs_altitudes_km, dtype=float), shape)[visible]
    fl = np.zeros(shape)
    fl[visible] = fl_capacity_bps(dist_fl[visible], elev[visible], rates, fl_params, rain_model, alts)

    neighbors = ring_neighbors(shape[1])
    isl = np.zeros(dist_isl.shape)
    if isl_enabled:
        src, dst = np.array([(s, n) for s, nbrs in enumerate(neighbors) for n in nbrs]).T
        isl[:, src, dst] = isl_capacity_bps(dist_isl[:, src, dst], isl_params)
    return _policy_graphs(slots, fl, isl, neighbors, policy)


def build_slot_graph(
    geometry: SlotGeometry,
    fl_params: FeederLinkParams,
    isl_params: IslParams,
    rain_model: RainModelParams,
    rain_rates_mm_h: Optional[Sequence[float]] = None,
    gs_altitudes_km: Optional[Sequence[float]] = None,
    policy: str = POLICY_BEST_CAPACITY,
    isl_enabled: bool = True,
) -> SlotGraph:
    """Capacity graph for one slot: `range_graphs` with N = 1.

    rain_rates_mm_h gives the rain rate over each station for this slot
    (0 = clear); gs_altitudes_km thins the rain layer per site.  With
    isl_enabled=False all ISL capacities are forced to zero, which is the
    no-ISL baseline arm.
    """
    i = geometry.distances_fl_km.shape[1]
    rates = np.zeros(i) if rain_rates_mm_h is None else np.asarray(rain_rates_mm_h, dtype=float)
    alts = np.zeros(i) if gs_altitudes_km is None else np.asarray(gs_altitudes_km, dtype=float)
    if rates.shape != (i,) or alts.shape != (i,):
        raise ValueError("per-station arrays must have one entry per station")
    arrays = (geometry.distances_fl_km, geometry.elevations_deg, geometry.visible, geometry.distances_isl_km)
    slot = [geometry.slot_index]
    return range_graphs(slot, [a[None] for a in arrays], fl_params, isl_params, rain_model, rates[None], alts, policy, isl_enabled)[0]
