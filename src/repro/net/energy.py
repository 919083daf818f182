"""Energy accounting (the paper's summary claim: ALERT has
"significantly lower energy consumption compared to AO2P and ALARM").

Energy is not simulated inline; it is an *accounting view* over
counters the substrate already keeps — radio airtime transmitted and
received, and crypto operations charged to the cost model — priced
with typical 802.11-era radio/CPU power draws (Feeney & Nilsson,
INFOCOM 2001 ballpark figures).
"""

from __future__ import annotations

from repro.crypto.cost_model import CryptoCostModel
from repro.net.network import Network


class EnergyModel:
    """Power-draw constants, watts, read through ``self`` when used.

    The paper claims lower energy use but gives no power figures, so
    the draws are Feeney & Nilsson's.
    """

    #: Radio draw while transmitting / receiving.
    tx_power_w = 1.4
    rx_power_w = 0.9
    #: Extra CPU draw while running cryptographic code; multiplied by
    #: the *simulated* time each operation costs (the same §5.2
    #: calibration the latency figures use).
    cpu_power_w = 0.8

    def radio_energy(self, network: Network) -> tuple[float, float]:
        """(tx joules, rx joules) from the network's airtime counters."""
        return (
            network.airtime_tx_s * self.tx_power_w,
            network.airtime_rx_s * self.rx_power_w,
        )

    def crypto_energy(self, cost: CryptoCostModel) -> float:
        """Joules burnt in cryptographic CPU time."""
        seconds = (
            cost.charges.get("symmetric_encrypt", 0) * cost.symmetric_encrypt_s
            + cost.charges.get("symmetric_decrypt", 0) * cost.symmetric_decrypt_s
            + cost.charges.get("pubkey_encrypt", 0) * cost.pubkey_encrypt_s
            + cost.charges.get("pubkey_decrypt", 0) * cost.pubkey_decrypt_s
            + cost.charges.get("sign", 0) * cost.sign_s
            + cost.charges.get("verify", 0) * cost.verify_s
            + cost.charges.get("hash", 0) * cost.hash_s
        )
        return seconds * self.cpu_power_w

    def breakdown(self, network: Network, cost: CryptoCostModel) -> dict[str, float]:
        """Named components, joules."""
        tx, rx = self.radio_energy(network)
        crypto = self.crypto_energy(cost)
        return {
            "radio_tx_j": tx,
            "radio_rx_j": rx,
            "crypto_j": crypto,
            "total_j": tx + rx + crypto,
        }
