"""MAC per-attempt failure probability: its clamp and its zero-load floor.

``Mac80211Dcf._attempt_failure_prob`` memoises one float per distinct
local load; these checks pin the two ends of that curve.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.mac import Mac80211Dcf
from repro.net.radio import RadioModel


def _mac(seed: int) -> Mac80211Dcf:
    return Mac80211Dcf(RadioModel(), np.random.default_rng(seed))


class TestPfailMemo:
    def test_cap_and_base_loss(self):
        mac = _mac(0)
        assert mac._attempt_failure_prob(0.0) == pytest.approx(
            mac.base_loss
        )
        assert mac._attempt_failure_prob(1e9) == 0.95
