"""Every accuracy contract of ``contracts.py``, one test per row.

Rows with an mpmath reference skip without mpmath; the rest, checked against
a general algorithm the library keeps, run everywhere.
"""

import pytest

from contracts import ROWS, Row, check, identity, residual, round_trip
from qcfun import ConvergenceError, QcfunError, mu, mu_inv


@pytest.mark.parametrize("name", ROWS)
def test_row(name):
    check(name)


def test_round_trip_allows_no_forward_error(monkeypatch):
    # a round-trip row allows its errors from the inverse alone: the same error from the forward map fails it
    def refuse(u):
        raise ConvergenceError("forward")
    row = Row(0, lambda rng: [(2.0,)], lambda y: round_trip(refuse, mu_inv(y)), identity, residual(1e-14),
              dps=None, errors=QcfunError)
    monkeypatch.setitem(ROWS, "probe", row)
    with pytest.raises(AssertionError):
        check("probe")
    monkeypatch.setitem(ROWS, "probe", row._replace(call=lambda y: round_trip(mu, mu_inv(y))))
    check("probe")
