"""Conformance orchestration behind ``repro check`` and the CI lane.

One call runs the whole safety net over a seeded case population:

1. the three-way differential oracle on every case (unchecked replay
   vs the reference loop with the runtime invariant sanitizer armed at
   the requested ``check_level``, both vs the Eq. 5 envelope);
2. the metamorphic relations on every case;
3. the mutation smoke-checks — each seeded accounting perturbation
   must be caught by its named invariant.

The first failing case is greedily shrunk (same check, smaller
graph/config) and the shrunk reproduction — with every failure record
— can be written to a JSON artifact for CI upload.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field

from repro.testing.cases import generate_cases, shrink
from repro.testing.metamorphic import metamorphic_failures
from repro.testing.mutations import MUTATIONS, run_mutation
from repro.testing.oracle import differential_failures, run_case


@dataclass
class ConformanceReport:
    """Outcome of one :func:`run_conformance` call.

    ``failures`` holds oracle/metamorphic failure records
    (``{"case", "check", "detail"}``); ``mutation_failures`` holds
    safety-net failures (a mutation the sanitizer missed or
    misattributed); ``shrunk`` is the minimized reproduction of the
    first oracle failure, if any.
    """

    cases: int
    check_level: int
    failures: list = field(default_factory=list)
    mutation_failures: list = field(default_factory=list)
    mutations_run: int = 0
    shrunk: dict = None
    wall_s: float = 0.0

    @property
    def passed(self):
        return not self.failures and not self.mutation_failures

    def to_json(self):
        return {
            "passed": self.passed,
            "cases": self.cases,
            "check_level": self.check_level,
            "failures": self.failures,
            "mutation_failures": self.mutation_failures,
            "mutations_run": self.mutations_run,
            "shrunk": self.shrunk,
            "wall_s": self.wall_s,
        }

    def summary(self):
        verdict = "PASS" if self.passed else "FAIL"
        text = (
            f"[{verdict}] {self.cases} case(s), replay vs reference at "
            f"check_level={self.check_level}; "
            f"{self.mutations_run} mutation(s); "
            f"{len(self.failures)} oracle/metamorphic failure(s), "
            f"{len(self.mutation_failures)} sanitizer miss(es) "
            f"in {self.wall_s:.1f}s"
        )
        return text


def _shrink_failure(case, failure, check_level):
    """Minimize the case behind one oracle failure record."""
    check = failure["check"]

    def still_fails(candidate):
        found = differential_failures(candidate, check_level=check_level)
        return any(f["check"] == check for f in found)

    smallest = shrink(case, still_fails)
    return {"check": check, "case": smallest.to_json()}


def run_conformance(n_cases=25, seed=0, check_level=2, *,
                    metamorphic=True, mutations=True, cases=None,
                    artifact=None, out=None):
    """Run the full conformance suite; returns a :class:`ConformanceReport`.

    Parameters
    ----------
    n_cases / seed:
        Size and seed of the generated case population (ignored when
        an explicit ``cases`` list is given).
    check_level:
        Sanitizer level armed inside every differential run's
        reference leg (the replay leg runs unchecked; the metamorphic
        and mutation stages manage their own levels).
    metamorphic / mutations:
        Disable individual stages (the mutation stage patches engine
        classes, so e.g. a profiling run may want it off).
    cases:
        Explicit :class:`~repro.testing.cases.ConformanceCase` list —
        used to re-run a shrunk artifact.
    artifact:
        Path for the JSON report (written on failure *and* success;
        CI uploads it only when the lane fails).
    out:
        Progress callback (e.g. ``print``); ``None`` is silent.
    """
    if cases is None:
        cases = generate_cases(n_cases, seed=seed)
    emit = out if out is not None else (lambda _line: None)
    started = time.perf_counter()
    report = ConformanceReport(cases=len(cases), check_level=check_level)

    first_failure = None
    for case in cases:
        failures = differential_failures(case, check_level=check_level)
        if metamorphic and not failures and case.degradation is None:
            # Reuse the oracle's base run only implicitly (results are
            # deterministic); relations re-run the unmodified case at
            # level 0 to keep their comparisons sanitizer-free.
            failures = metamorphic_failures(case, base=run_case(case))
        if failures:
            emit(f"{case.name}: {len(failures)} failure(s) — "
                 f"{failures[0]['check']}")
            report.failures.extend(failures)
            if first_failure is None:
                first_failure = (case, failures[0])
        else:
            emit(f"{case.name}: ok")

    if mutations:
        for name, mutation in sorted(MUTATIONS.items()):
            report.mutations_run += 1
            error = run_mutation(name)
            if error is None:
                report.mutation_failures.append({
                    "mutation": name,
                    "detail": (
                        "sanitizer did not fire at check_level="
                        f"{mutation.level} ({mutation.description})"
                    ),
                })
            elif error.invariant != mutation.invariant:
                report.mutation_failures.append({
                    "mutation": name,
                    "detail": (
                        f"expected invariant {mutation.invariant!r} "
                        f"but {error.invariant!r} fired: {error}"
                    ),
                })
        emit(f"mutations: {report.mutations_run} run, "
             f"{len(report.mutation_failures)} missed")

    if first_failure is not None:
        case, failure = first_failure
        # Metamorphic failures are about *pairs* of runs; only the
        # differential checks shrink cleanly against a single case.
        if failure["check"].startswith(("emission", "invariant:",
                                        "engine-mismatch",
                                        "model-envelope:")):
            emit(f"shrinking {case.name} ({failure['check']})...")
            report.shrunk = _shrink_failure(case, failure, check_level)

    report.wall_s = time.perf_counter() - started
    if artifact is not None:
        path = pathlib.Path(artifact)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report.to_json(), indent=2) + "\n")
        emit(f"report written to {path}")
    return report
