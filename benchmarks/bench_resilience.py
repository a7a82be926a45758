"""Graceful-degradation characterization of the PIUMA DES.

Runs the Fig 5 medium point (``products`` window, K=256, 8 cores)
under the nested severity sweep that ``repro resilience`` exposes and
asserts the three promises of the degraded-fabric model (DESIGN.md,
"Degraded-fabric model"):

* **bit-identity under faults** — unchecked compiled replay (the
  default engine) and the reference loop with the level-1 invariant
  sanitizer armed agree on every observable at every severity (the
  sanitizer observes, it never perturbs; a checked run cannot replay,
  so this pairing is what holds replay to the sanitized loop);
* **monotone slowdown** — the degraded unit sets nest with severity
  (fixed per-unit hash vs a growing threshold), so simulated window
  time never decreases along the curve;
* **derated Eq.5 envelope** — DES throughput over the model evaluated
  at the *effective* (derated, stall-discounted) aggregate bandwidth
  stays inside the oracle's per-kernel envelope.

It also smoke-checks the structured-failure path: a fabric whose DMA
engines are all dead must raise ``HardwareExhausted`` (never hang or
silently fall back), and the ``compute`` preset must complete with
work redistributed onto the surviving cores.

The curve goes to ``benchmarks/out/BENCH_resilience.json`` — the CI
``resilience`` lane uploads it as an artifact.
"""

import json
import time

import pytest

from conftest import OUT_DIR, PRODUCTS_WINDOW

from repro.graphs.datasets import get_dataset
from repro.piuma import (
    DEGRADATION_PRESETS,
    effective_total_bandwidth,
    simulate_spmm,
    spmm_model,
)
from repro.piuma.config import PIUMAConfig
from repro.piuma.degradation import DegradationSpec
from repro.runtime.errors import HardwareExhausted
from repro.testing.oracle import ENVELOPES, result_signature

K = 256
N_CORES = 8
SEVERITIES = (0.0, 0.25, 0.5, 0.75, 1.0)


def _config(degradation, engine="fast", check_level=1):
    return PIUMAConfig(
        n_cores=N_CORES, engine=engine, check_level=check_level,
        degradation=degradation,
    )


def test_resilience(emit):
    adj = get_dataset("products").materialize(**PRODUCTS_WINDOW)
    started = time.perf_counter()

    curve = []
    previous = None
    low, high = ENVELOPES["dma"]
    for severity in SEVERITIES:
        spec = (DegradationSpec.at_severity(severity)
                if severity > 0.0 else None)
        fast = simulate_spmm(adj, K, _config(spec, check_level=0))
        reference = simulate_spmm(adj, K, _config(spec, engine="reference"))

        # Bit-identity under faults: replay vs the sanitized reference.
        assert result_signature(fast) == result_signature(reference), (
            f"engines diverged at severity {severity}"
        )

        config = _config(spec)
        bandwidth = effective_total_bandwidth(config)
        model = spmm_model(
            adj.n_rows, adj.nnz, K, config,
            read_bandwidth=bandwidth, write_bandwidth=bandwidth,
        )
        efficiency = fast.gflops / model.gflops
        assert low <= efficiency <= high, (
            f"severity {severity}: {efficiency:.3f} of the derated Eq.5 "
            f"model, outside [{low}, {high}]"
        )

        # Monotone graceful degradation: more broken fabric can only
        # slow the window down (nested fault sets + max-rule rerouting).
        if previous is not None:
            assert fast.sim_time_ns >= previous, (
                f"severity {severity} ran faster than the previous point "
                f"({fast.sim_time_ns} < {previous} ns)"
            )
        previous = fast.sim_time_ns

        curve.append({
            "severity": severity,
            "sim_time_ns": fast.sim_time_ns,
            "slowdown": fast.sim_time_ns / curve[0]["sim_time_ns"]
            if curve else 1.0,
            "effective_bandwidth_gbps": bandwidth,
            "gflops": fast.gflops,
            "derated_model_gflops": model.gflops,
            "derated_efficiency": efficiency,
            "events": fast.events,
        })

    # Dead compute redistributes; dead DMA is a structured failure.
    survivors = simulate_spmm(adj, K, _config(DEGRADATION_PRESETS["compute"]))
    assert survivors.sim_time_ns > 0
    with pytest.raises(HardwareExhausted):
        simulate_spmm(
            adj, K, _config(DegradationSpec(dead_dma_fraction=1.0))
        )

    wall = time.perf_counter() - started
    payload = {
        "point": {
            "dataset": "products",
            **PRODUCTS_WINDOW,
            "embedding_dim": K,
            "n_cores": N_CORES,
            "check_level": 1,
        },
        "curve": curve,
        "envelope": [low, high],
        "compute_preset_sim_time_ns": survivors.sim_time_ns,
        "bench_wall_s": wall,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "BENCH_resilience.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    emit(
        "resilience",
        "\n".join(
            [f"point: products {PRODUCTS_WINDOW} K={K} n_cores={N_CORES} "
             f"(replay vs reference at check_level=1 per severity)"]
            + [f"severity {p['severity']:.2f}: {p['sim_time_ns']:>9,.0f} ns "
               f"({p['slowdown']:.2f}x, bw {p['effective_bandwidth_gbps']:.0f}"
               f" GB/s, eff {p['derated_efficiency']:.2f})"
               for p in curve]
            + [f"[written to {path}]"]
        ),
    )
