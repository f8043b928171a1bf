"""The value records: fields, construction, equality, hashing and
immutability, as the dataclasses they replace had them."""

import pytest

from psirh import arith, champions, criteria, prime_engine, primorial, report
from psirh.constants import CONSTANTS, Constants, Decision

# (record, its fields in order); every record is frozen
RECORDS = [
    (Constants, "gamma e_gamma zeta2 e_gamma_over_zeta2"),
    (Decision, "claim first last passed cases_checked worst_margin witness "
               "failures"),
    (prime_engine.ThetaPoint, "index prime theta_hi theta_lo"),
    (primorial.PrimorialStats, "index prime theta_hi theta_lo "
                               "psi_ratio_log_hi psi_ratio_log_lo"),
    (report.RenderedReport, "command parameters columns rows footer"),
    (criteria.CriterionValue, "n kind ratio threshold value "
                              "precision_escalated"),
    (criteria.ExceptionReport, "kind lo hi exceptions values largest "
                               "escalations"),
    (arith.Factorization, "n factors"),
    (champions.ChampionNumber, "primorial_index multiplier value "
                               "psi_ratio_log"),
    (champions.RecordScanResult, "records limit"),
]


@pytest.mark.parametrize("cls, fields", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record(cls, fields):
    fields = fields.split()
    values = [(i, f"v{i}") for i in range(len(fields))]
    rec = cls(**dict(zip(fields, values)))
    assert cls._fields == tuple(fields)
    assert cls(*values) == rec
    assert [getattr(rec, f) for f in fields] == values
    assert repr(rec) == f"{cls.__name__}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    assert rec != cls(*values[:-1], (-1, "other"))
    assert not hasattr(rec, "__dict__")
    with pytest.raises(AttributeError):
        rec.no_such_field = 1
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values[1:], **{fields[0]: values[0], "no_such_field": 0})
    assert hash(rec) == hash(cls(*values))
    for f in fields:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(rec, f, 0)
        with pytest.raises(AttributeError):
            delattr(rec, f)
    assert [getattr(rec, f) for f in fields] == values


def test_defaults():
    assert Constants() == CONSTANTS
    assert repr(CONSTANTS) == (
        "Constants(gamma=0.5772156649015329, e_gamma=1.781072417990198, "
        "zeta2=1.6449340668482264, e_gamma_over_zeta2=1.0827621932609246)")
    first = report.RenderedReport(command="c", parameters={}, columns=[],
                                  rows=[])
    second = report.RenderedReport("c", {}, [], [])
    assert first.footer == second.footer == {}
    assert first.footer is not second.footer
    first.footer["runtime_s"] = 1.0
    assert second.footer == {}
    with pytest.raises(TypeError, match="'command'"):
        report.RenderedReport()
    # a decision has no case count, margin, witness or failure by default
    assert Decision("prop1", 2, 9, True) == Decision(
        "prop1", 2, 9, True, None, None, None, ())
    with pytest.raises(TypeError, match="'passed'"):
        Decision("prop1", 2, 9)


def test_subclass_compares_by_class():
    point = prime_engine.ThetaPoint(index=10, prime=29, theta_hi=1.0,
                                    theta_lo=0.0)
    stats = primorial.PrimorialStats(index=10, prime=29, theta_hi=1.0,
                                     theta_lo=0.0, psi_ratio_log_hi=0.5,
                                     psi_ratio_log_lo=0.0)
    assert isinstance(stats, prime_engine.ThetaPoint)
    assert stats.theta == point.theta == 1.0
    assert point != stats and stats != point
    assert point != (10, 29, 1.0, 0.0)
