"""Certificate corpus: every family of the four benchmark sweeps.

``certificates.json`` holds, per sweep and per family, the SHA-256 digest of
the family's record: ``describe()``, ``unique``, ``slo_match``, the
``margin`` to 12 decimals (``inf`` for a one-class family), the winner's
canonical code, and every (canonical code, lambda to 12 decimals) row in
certificate order. Twelve printed decimals, not ``float.hex()``,
because LAPACK builds may differ in the last bits. One digest per family
names the family on a mismatch, and the failure prints the recomputed
record of each family that differs.

After a change meant to alter certificates, regenerate the corpus from a
checkout with

    PYTHONPATH=src python3 tests/test_corpus.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from supertrees import (
    fk1_sweep,
    fk2_sweep,
    spectral,
    verify_fk_theorem1,
    verify_fk_theorem2,
)

CORPUS = Path(__file__).with_name("certificates.json")

SWEEPS = {
    "fk1_sweep(3,13)": lambda: fk1_sweep(3, 13),
    "fk1_sweep(2,10)": lambda: fk1_sweep(2, 10),
    "fk2_sweep(3,13,2)": lambda: fk2_sweep(3, 13, 2),
    "fk2_sweep(2,13,2)": lambda: fk2_sweep(2, 13, 2),
}


def record(cert) -> str:
    """The family's record as text, one row per line."""
    lines = [
        cert.family.describe(),
        f"unique={cert.unique} slo_match={cert.slo_match}",
        f"margin={cert.margin:.12f}",
        f"winner={cert.all_lambdas[0][0].decode()}",
    ]
    lines += [f"{code.decode()} {lam:.12f}" for code, lam in cert.all_lambdas]
    return "\n".join(lines) + "\n"


def records() -> dict[str, dict[str, str]]:
    """sweep name -> family description -> record, in sweep order."""
    return {
        name: {cert.family.describe(): record(cert) for cert in sweep()}
        for name, sweep in SWEEPS.items()
    }


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_sweeps_match_the_certificate_corpus():
    want = json.loads(CORPUS.read_text())
    got = records()
    assert list(got) == list(want)
    for name in want:
        assert list(got[name]) == list(want[name]), f"{name}: families differ"
        changed = [fam for fam, d in want[name].items() if digest(got[name][fam]) != d]
        assert not changed, f"{name}: records differ for {changed}, recomputed:\n" + (
            "".join(got[name][fam] for fam in changed))
    assert sum(map(len, want.values())) == 165


def test_single_family_certificates_equal_the_sweeps(monkeypatch):
    # every family of the four sweeps certified alone, class by class in
    # pure Python, gives its sweep's record, scored on stacked LAPACK
    sweeps = {name: sweep() for name, sweep in SWEEPS.items()}

    def stacked(trees):
        raise AssertionError("a single family was stacked on LAPACK")

    monkeypatch.setattr(spectral, "first_dirichlet_eigenvalues", stacked)
    for name, certs in sweeps.items():
        for cert in certs:
            fam = cert.family
            alone = (verify_fk_theorem1(fam.pi) if fam.kind == "pi"
                     else verify_fk_theorem2(fam.n, fam.n0, fam.k, fam.d))
            assert record(alone) == record(cert), f"{name}: {fam.describe()}"
    assert sum(map(len, sweeps.values())) == 165


if __name__ == "__main__":
    CORPUS.write_text(json.dumps({
        name: {fam: digest(text) for fam, text in fams.items()}
        for name, fams in records().items()
    }, indent=1) + "\n")
