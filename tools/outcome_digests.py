"""SHA-256 digests of the package's experiment outputs, for identity checks.

Runs a fixed list of experiments and prints one JSON object that maps each
run's name to the SHA-256 digest of its outputs:

* every ``TrialOutcome`` field but ``wall_time_s`` of ``run_localization``
  (quantized geometry at K=4 with one and two surfaces and at K=6 with one,
  the oracle mode, and the waveform path at K=4: with three surfaces, with
  one and with two, with three and noise off, and with one at 24 dBm, where
  about half the trials end ``unbalanced`` because detection sits near its
  threshold) and of ``baseline_3bs`` (K 2-8, oracle and forced fallback for
  K 2-6), each at seeds 1 and 2029;
* the ``cardinality_experiment`` rows for one surface, K 2-6, and, at
  seeds 1 and 2029, for two surfaces, K 2-6, and three, K 2-8 (25 scenes
  each);
* the ``uniqueness_experiment(90)`` report at seeds 1 and 0, as the CLI
  writes it.

A change that must not move any output is checked by running this script
against the source tree before and after it and comparing the two files::

    PYTHONPATH=path/to/before/src python3 tools/outcome_digests.py > before.json
    PYTHONPATH=src python3 tools/outcome_digests.py > after.json
    diff before.json after.json

It takes about 16 s on one core and has no flags.
"""

import hashlib
import json
from dataclasses import replace

from irsloc.harness import (
    baseline_3bs,
    cardinality_experiment,
    default_config,
    run_localization,
    uniqueness_experiment,
)
from irsloc.locate import GnConfig

SEEDS = (1, 2029)
FORCED_FALLBACK = GnConfig(residual_threshold=1e-12)
# name: (surfaces, K, trials, skip_phase1, oracle, OFDM overrides)
LOCALIZATION = {
    "geo-k4-r1": (1, 4, 300, True, False, {}),
    "geo-k4-r2": (2, 4, 150, True, False, {}),
    "geo-k6-r1": (1, 6, 60, True, False, {}),
    "wave-k4-r3": (3, 4, 20, False, False, {}),
    "oracle-k4-r1": (1, 4, 100, True, True, {}),
    "wave-k4-r1": (1, 4, 40, False, False, {}),
    "wave-k4-r2": (2, 4, 40, False, False, {}),
    "wave-k4-r3-noiseless": (3, 4, 40, False, False, {"noise_psd_dbm_hz": None}),
    "wave-k4-r1-24dbm": (1, 4, 40, False, False, {"tx_power_dbm": 24.0}),
}

# (surfaces, largest K) of the closest-surface cardinality runs
CARDINALITY = ((2, 6), (3, 8))


def _outcomes_text(outcomes) -> str:
    return "\n".join(repr(replace(o, wall_time_s=0.0)) for o in outcomes)


def _runs():
    """``(name, text)`` for each run, computed as it is reached."""
    for seed in SEEDS:
        for name, (n_irs, k, trials, skip_phase1, oracle, ofdm) in LOCALIZATION.items():
            cfg = default_config(n_irs, k=k, trials=trials, seed=seed, skip_phase1=skip_phase1)
            cfg = replace(cfg, ofdm=replace(cfg.ofdm, **ofdm))
            yield f"localize {name} seed={seed}", _outcomes_text(
                run_localization(cfg, oracle=oracle)
            )
        for k in range(2, 9):
            modes = [("", False, GnConfig())]
            if k <= 6:
                modes += [(" oracle", True, GnConfig()), (" fallback", False, FORCED_FALLBACK)]
            for label, oracle, gn in modes:
                cfg = default_config(1, k=k, trials=10, seed=seed, gn=gn)
                yield f"baseline k={k}{label} seed={seed}", _outcomes_text(
                    baseline_3bs(cfg, oracle=oracle)
                )
    rows = cardinality_experiment(default_config(1, trials=25), range(2, 7))
    yield "cardinality r=1 k=2-6", json.dumps(rows)
    for n_irs, k_max in CARDINALITY:
        for seed in SEEDS:
            rows = cardinality_experiment(
                default_config(n_irs, trials=25, seed=seed), range(2, k_max + 1)
            )
            yield f"cardinality r={n_irs} k=2-{k_max} seed={seed}", json.dumps(rows)
    for seed in (1, 0):
        # the bytes the CLI writes to uniqueness.json
        report = uniqueness_experiment(90, seed=seed)
        yield f"uniqueness 90 seed={seed}", json.dumps(report, indent=2) + "\n"


def main() -> None:
    digests = {
        name: hashlib.sha256(text.encode()).hexdigest() for name, text in _runs()
    }
    print(json.dumps(digests, indent=1))


if __name__ == "__main__":
    main()
