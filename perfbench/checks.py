"""Output checks the benchmark runs on every run.

``trial_errors`` checks one trial as soon as its traced rebuild returns, so
the run keeps no per-trial intermediates; ``summary_errors`` compares a
run's totals with the values recorded for its workload and seed.
``count_feasible`` is an independent recount of the feasible set: it
shares no code with ``association.enumerate_feasible`` beyond the
closest-surface rule, so an enumeration that gains or loses a solution
fails here on any seed.
"""

import math

from irsloc.association import closest_irs_candidates, is_valid_solution
from irsloc.scene import distance


def count_feasible(sets, scene, tau: float, use_closest_irs: bool) -> int:
    """Number of consistency-feasible solutions, by plain depth-first count.

    The gap is evaluated in the same floating-point order as the package's
    gap grid, ``((via1 - direct1/2) - (via2 - direct2/2)) - (d1 - d2)`` with
    ``d_m`` the BS-to-surface distance, because quantized single-surface
    layouts put many gaps exactly on the ``tau`` boundary.
    """
    k = len(sets.direct[0])
    d1, d2 = sets.direct
    v1, v2 = sets.via_irs
    bi_gap = [distance(scene.bs[0], q) - distance(scene.bs[1], q) for q in scene.irs]
    levels = []
    for i in range(k):
        cands = []
        for j in range(k):
            if use_closest_irs:
                surfaces = sorted(closest_irs_candidates(scene, sets, i, j))
            else:
                surfaces = range(scene.n_irs)
            for a in range(k):
                a1 = v1[a] - 0.5 * d1[i]
                for b in range(k):
                    diff = a1 - (v2[b] - 0.5 * d2[j])
                    for g in surfaces:
                        if abs(diff - bi_gap[g]) < tau:
                            cands.append((1 << j, 1 << a, 1 << b))
        levels.append(cands)

    def walk(level: int, used_d2: int, used_v1: int, used_v2: int) -> int:
        if level == k:
            return 1
        total = 0
        for mj, ma, mb in levels[level]:
            if not (used_d2 & mj or used_v1 & ma or used_v2 & mb):
                total += walk(level + 1, used_d2 | mj, used_v1 | ma, used_v2 | mb)
        return total

    return walk(0, 0, 0, 0)


def trial_errors(workload, cfg, untraced, traced, parts) -> list[tuple[str, str]]:
    """``(check, message)`` pairs for every check one trial fails.

    * ``traced_reproduces_untraced``: the rebuild from layer calls gives the
      public entry point's outcome, field by field;
    * ``solutions_valid``: chosen and enumerated solutions pass
      ``is_valid_solution``;
    * ``feasible_counts_recounted``: feasible-set sizes equal
      ``count_feasible``;
    * ``failures_counted``: a failed trial scores every target as a miss.
    """
    errors = []
    if not workload.same_outcome(untraced, traced):
        errors.append(("traced_reproduces_untraced", "traced outcome differs"))

    sols = parts.solutions + ((traced.chosen,) if traced.chosen is not None else ())
    if not all(is_valid_solution(s, workload.k, workload.n_irs) for s in sols):
        errors.append(("solutions_valid", "a solution fails is_valid_solution"))

    if workload.kind == "count":
        want = (
            count_feasible(parts.sets, parts.scene, cfg.tau_m, False),
            count_feasible(parts.sets, parts.scene, cfg.tau_m, True),
        )
        got = (traced.n_feasible, traced.n_reduced)
    elif parts.truth is not None:
        closest = parts.scene.n_irs > 1
        want = (count_feasible(parts.sets, parts.scene, cfg.tau_m, closest),)
        got = (traced.n_feasible,)
    else:
        want = got = ()
    if got != want:
        errors.append(("feasible_counts_recounted", f"counts {got}, recount {want}"))

    for rec in (untraced, traced):
        if rec.failed and (
            rec.hits
            or rec.correct
            or len(rec.residuals) != workload.k
            or not all(math.isinf(r) for r in rec.residuals)
        ):
            errors.append(("failures_counted", "failed trial scored as a hit"))
    return errors


def summary_errors(summary: dict, reference: dict | None) -> list[str]:
    """Differences from the summary recorded for this workload and seed."""
    if reference is None:
        return []
    return [
        f"{key}: got {summary.get(key)!r}, recorded {want!r}"
        for key, want in reference.items()
        if summary.get(key) != want
    ]
