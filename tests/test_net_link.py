"""Tests for the network model."""

import pytest

from repro.net import Link


def test_link_defaults():
    link = Link()
    assert link.rtt_s == 0.001
    assert link.one_way_s == 0.0005


def test_link_validation():
    with pytest.raises(ValueError):
        Link(rtt_s=-1)


def test_link_accounting():
    link = Link()
    link.account(100)
    link.account(50)
    assert link.bytes_sent == 150
