"""Fixed-latency network links.

RobuSTore targets dedicated lambda networks where bandwidth is plentiful
(§6.2.2 "Virtual Filer"): the network is modelled as a link with a fixed
round-trip latency applied **per data request** (so adaptive schemes like
RRAID-A pay multiple RTTs per access), plus a byte counter for the I/O
overhead metric.  A client NIC cap is an access parameter
(``AccessConfig.client_bandwidth_bps``), not a link property.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Link:
    """A client <-> filer link.

    Attributes
    ----------
    rtt_s:
        Round-trip latency in seconds.
    """

    rtt_s: float = 0.001
    bytes_sent: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.rtt_s < 0:
            raise ValueError("rtt must be non-negative")

    @property
    def one_way_s(self) -> float:
        return self.rtt_s / 2.0

    def account(self, nbytes: int) -> None:
        """Record payload bytes crossing the link (I/O-overhead metric)."""
        self.bytes_sent += int(nbytes)
