"""HyperX-flavored interconnect delay model.

PIUMA connects cores within a die over a low-latency fabric and dies
over optical links in a HyperX topology (paper ref [8]), whose diameter
stays small (one inter-die hop in our flat single-dimension model).
Takeaway 3 of the paper is that SpMM at scale is *not* network-bound, so
the model charges realistic latencies but generous per-core injection
bandwidth; the bandwidth resource exists so ablations can artificially
choke it and verify the claim.

Under a :class:`~repro.piuma.degradation.DegradationModel` individual
links run at multiplied latency or go down entirely; down links reroute
through the cheapest healthy intermediate core.  A network's
degradation is fixed at construction, so latency is pure and the
per-pair memo never goes stale.
"""

from __future__ import annotations

from repro.piuma.degradation import DegradationModel
from repro.piuma.resources import FluidResource


class Network:
    """Latency and (optional) injection-bandwidth model between cores."""

    def __init__(self, config, degradation=None):
        self._config = config
        self._injection = [
            FluidResource(config.network_bandwidth_gbps, name=f"net{c}")
            for c in range(config.n_cores)
        ]
        # Latency is pure topology — memoize per (src, dst) pair.  The
        # simulator asks for the same few thousand pairs millions of
        # times per kernel, and the tier arithmetic (two integer
        # divisions over two derived-property lookups) was one of the
        # hottest lines of the DES before caching.
        self._latency_cache = {}
        self._mean_remote = None
        if degradation is None:
            degradation = DegradationModel.for_config(config)
        self._degradation = degradation

    def _tier_latency(self, src_core, dst_core):
        """Healthy tier latency: the pure-topology cost of a link."""
        if src_core == dst_core:
            return 0.0
        config = self._config
        per_die = config.cores_per_die
        per_node = config.cores_per_node
        if src_core // per_die == dst_core // per_die:
            return config.intra_die_latency_ns
        if src_core // per_node == dst_core // per_node:
            return config.inter_die_latency_ns
        return config.inter_node_latency_ns

    def latency(self, src_core, dst_core):
        """One-way latency in ns from ``src_core`` to ``dst_core``.

        Same core is free (local slice access); same die pays the
        intra-die fabric; different dies one optical HyperX hop;
        different nodes the node-to-node optical tier.  Degraded links
        pay their latency multiplier; down links the cheapest reroute.
        """
        key = (src_core, dst_core)
        cached = self._latency_cache.get(key)
        if cached is not None:
            return cached
        value = self._tier_latency(src_core, dst_core)
        if self._degradation is not None and src_core != dst_core:
            value = self._degradation.link_latency(
                src_core, dst_core, value, self._tier_latency
            )
        self._latency_cache[key] = value
        return value

    def transfer(self, now, src_core, dst_core, nbytes):
        """Inject ``nbytes`` at ``now``; returns arrival time at ``dst``.

        Local transfers bypass the network entirely.
        """
        if src_core == dst_core:
            return now
        _start, end = self._injection[src_core].reserve(now, nbytes)
        return end + self.latency(src_core, dst_core)

    def mean_remote_latency(self):
        """Expected one-way latency from core 0 to a *uniformly random*
        destination core — the destination may be core 0 itself, whose
        local access is free, so the self term contributes latency 0 to
        the average.  That matches how the analytical checks use it: a
        random vertex lands on a random slice, including the local one.

        The value is pure topology (plus the static degradation state),
        so it is computed once and memoized.
        """
        if self._mean_remote is None:
            n = self._config.n_cores
            if n == 1:
                self._mean_remote = 0.0
            else:
                total = sum(self.latency(0, dst) for dst in range(n))
                self._mean_remote = total / n
        return self._mean_remote

    def injection_utilization(self, horizon):
        """Max per-core injection-port utilization over ``[0, horizon]``."""
        return max(r.utilization(horizon) for r in self._injection)
