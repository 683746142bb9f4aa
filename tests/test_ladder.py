"""The ladder gate: generation-derived e(3,8,n) values, run with
``pytest -m slow``.  Values come from one Bootstrap with a shared cache."""

import pytest

from ramsey3k import data
from ramsey3k.pipeline import Bootstrap


@pytest.mark.slow
def test_ladder_e38_up_to_24(tmp_path):
    grid = data.small_exact_table()
    flags = data.small_exact_flags()
    bs = Bootstrap(str(tmp_path / "ladder"))
    for n, want in ((22, 42), (23, 49), (24, 56)):
        assert flags[(8, n)] == "b" and grid.entry(8, n).value == want
        assert bs.value(8, n) == want, n
