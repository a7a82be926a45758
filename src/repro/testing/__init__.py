"""Differential conformance harness for the PIUMA DES.

The simulator ships two bit-identical main loops plus an analytical
model of the same kernel, which makes it unusually testable: any
seeded workload can be run through compiled replay (the default
engine, unchecked), the reference loop (with the invariant sanitizer
armed), and the Equation 5 model, and the three answers cross-checked
without hand-written expectations.  This package
packages that idea:

* :mod:`repro.testing.cases` — seeded RMAT/config case generation with
  greedy shrinking;
* :mod:`repro.testing.oracle` — the three-way differential oracle
  (replay vs reference bit-identity, both vs the Eq. 5 envelope);
* :mod:`repro.testing.metamorphic` — relations that must hold across
  config edits (more cores never slower beyond tolerance, more
  bandwidth never slower, vertex relabeling never changes throughput
  beyond tolerance);
* :mod:`repro.testing.mutations` — seeded accounting perturbations
  that the runtime invariant sanitizer (``repro.piuma.invariants``)
  must catch, each by a specific named invariant;
* :mod:`repro.testing.conformance` — the orchestration behind
  ``repro check`` and the CI ``conformance`` lane.
"""

from repro.testing.cases import ConformanceCase, generate_cases, shrink
from repro.testing.conformance import ConformanceReport, run_conformance
from repro.testing.mutations import MUTATIONS, run_mutation
from repro.testing.oracle import (
    differential_failures,
    run_case,
    run_sharded_case,
)

__all__ = [
    "ConformanceCase",
    "ConformanceReport",
    "MUTATIONS",
    "differential_failures",
    "generate_cases",
    "run_case",
    "run_conformance",
    "run_mutation",
    "run_sharded_case",
    "shrink",
]
