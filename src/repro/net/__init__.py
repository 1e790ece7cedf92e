"""Network model: fixed-RTT links with plentiful bandwidth (§6.2.2)."""

from repro.net.link import Link

__all__ = ["Link"]
