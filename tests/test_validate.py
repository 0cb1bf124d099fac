"""The claim table of ``repro.experiments.validate``, row by row.

Every row must pass: the program has one model of each layer, so there
is no second configuration under which a row may be allowed to flip.
"""

from operator import lt

import pytest

from repro.experiments import validate
from repro.experiments.validate import CLAIMS, Check, Claim, Points

#: One memo for the whole table: rows share their points.
POINTS = Points()


@pytest.mark.parametrize(
    "claim", [pytest.param(claim, id=claim.id) for claim in CLAIMS]
)
def test_claim(claim):
    check = claim.check(POINTS)
    assert check.passed, f"{check.claim}: {check.detail}"


def test_claim_ids_are_unique():
    ids = [claim.id for claim in CLAIMS]
    assert len(set(ids)) == len(ids)


def test_validator_check_dataclass():
    claim = Claim("x", "the claim", lambda points: (1, 2), lt, "{} vs {}".format)
    assert claim.check(POINTS) == Check(
        id="x", claim="the claim", passed=True, detail="1 vs 2"
    )


def test_validator_main_smoke(capsys, monkeypatch):
    """``main`` prints one line per row and exits by the failure count."""
    rows = [claim for claim in CLAIMS if claim.id in ("hit-cost", "hit-cost-flat")]
    monkeypatch.setattr(validate, "CLAIMS", rows)
    assert validate.main() == 0
    out = capsys.readouterr().out
    assert "[PASS] hit-cost " in out
    assert "2/2 claims reproduced" in out
    assert "FAIL" not in out

    rows.append(
        Claim("broken", "never holds", lambda points: (2, 1), lt, "{} vs {}".format)
    )
    assert validate.main() == 1
    out = capsys.readouterr().out
    assert "[FAIL] broken" in out and "(2 vs 1)" in out
    assert "2/3 claims reproduced — 1 FAILED" in out
