#!/usr/bin/env python3
"""Adversary demo: regenerate the protocol × attacker survival matrix.

The paper's claim is that its ID-based GKA buys *authenticated* group keys;
this example checks the property mechanically.  Every protocol in the table is
driven through the same establish / leave / leave / join trace once per
attacker model — passive eavesdropping, message injection, replay,
man-in-the-middle modification, jamming, delivery delay, and long-term key
compromise — and each run is classified from its security-oracle verdicts:

* ``clean``     — nothing attacked anything (the script fails if an active
  attacker never fired);
* ``resisted``  — attacks absorbed, everyone still agrees on the key;
* ``detected``  — the protocol caught the attack and aborted;
* ``broken``    — inconsistent keys, nobody noticed (plain BD's fate, and —
  because its implicit authentication covers only Round 1 — the SSN
  baseline's as well);
* ``leaked``    — the adversary derived the group key (never happens here).

The rendered matrix is the table in README.md's "Adversary & security
evaluation" section (CI checks the two agree); it and the CSV/JSON exports
land in ``ATTACK_MATRIX_OUT`` (default: ``examples/out``).

Run with:  PYTHONPATH=src python examples/attack_matrix.py
"""

from __future__ import annotations

import os

from repro import SystemSetup
from repro.adversary import AdversaryConfig, run_attack_matrix
from repro.sim import Scenario, ScenarioRunner, comparison_table

#: One attacked comparison, spelled out, before the full survey: the same
#: scenario under injection for the headline three protocols.
HEADLINE_PROTOCOLS = ["proposed-gka", "bd-unauthenticated", "bd-ecdsa"]


def main() -> None:
    setup = SystemSetup.from_param_sets("test-256", "gq-test-256")
    out_dir = os.environ.get("ATTACK_MATRIX_OUT") or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "out"
    )
    os.makedirs(out_dir, exist_ok=True)

    # ------------------------------------------------- one attacked comparison
    scenario = Scenario(
        name="injection-demo",
        initial_size=6,
        seed="attack-demo",
        adversary=AdversaryConfig.preset("inject"),
    )
    runner = ScenarioRunner(setup, check_agreement=False)
    reports = runner.run_all(list(HEADLINE_PROTOCOLS), scenario)
    print(comparison_table(reports))
    print()

    # --------------------------------------------------------- the full matrix
    matrix = run_attack_matrix(setup)
    print(matrix.summary())

    table_path = os.path.join(out_dir, "attack_matrix.txt")
    csv_path = os.path.join(out_dir, "attack_matrix.csv")
    json_path = os.path.join(out_dir, "attack_matrix.json")
    with open(table_path, "w", encoding="utf-8") as handle:
        handle.write(matrix.matrix_table() + "\n")
    matrix.to_csv(csv_path)
    matrix.to_json(json_path)
    print()
    print(f"exported: {table_path}, {csv_path}, {json_path}")

    # The repository's headline security claims, asserted so CI smoke-runs of
    # this example double as an end-to-end check.
    assert matrix.verdict("bd-unauthenticated", "inject") == "broken"
    assert matrix.verdict("proposed-gka", "inject") == "detected"
    for attacker in matrix.attackers:
        assert matrix.verdict("proposed-gka", attacker) in ("clean", "resisted", "detected")
        for protocol in matrix.protocols:
            assert matrix.verdict(protocol, "eavesdrop") == "clean"
            # An active attacker that never fired measured nothing.
            if attacker not in ("baseline", "eavesdrop"):
                attacks = matrix.outcome(protocol, attacker).attacks
                assert attacks > 0, f"{attacker} never fired on {protocol}"


if __name__ == "__main__":
    main()
