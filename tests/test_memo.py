"""The bounded memo the protocols share computed values through."""

from __future__ import annotations

import pytest

from repro.mathutils import MEMO_LIMIT, Memo


class TestMemo:
    def test_computes_once_per_key(self):
        memo = Memo()
        calls = []

        def square(x):
            calls.append(x)
            return x * x

        results = [memo.compute(("sq", x), lambda x=x: square(x)) for x in (3, 4, 3, 3)]
        assert results == [9, 16, 9, 9] and calls == [3, 4]
        assert memo.get(("sq", 4)) == 16 and memo.get(("sq", 5)) is None

    def test_empties_at_its_bound(self):
        memo = Memo()
        for key in range(MEMO_LIMIT):
            memo.put(key, key)
        assert len(memo) == MEMO_LIMIT and memo.get(0) == 0
        memo.put("one more", True)
        assert len(memo) == 1 and memo.get(0) is None and memo.get("one more") is True

    def test_a_raising_computation_stores_nothing(self):
        memo = Memo()

        def fails():
            raise ValueError("no value")

        with pytest.raises(ValueError):
            memo.compute("key", fails)
        assert len(memo) == 0
        assert memo.compute("key", lambda: 7) == 7

    def test_clear_forgets_every_value(self):
        memo = Memo()
        memo.put("key", False)
        assert memo.get("key") is False
        memo.clear()
        assert len(memo) == 0 and memo.compute("key", lambda: True) is True
