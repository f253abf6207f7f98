"""Cap plumbing: env parsing, scoped overrides, report echo."""

import threading

import pytest

from t0kit import caps
from t0kit.enumeration import all_spaces, continuous_maps_list
from t0kit.errors import CapExceeded
from t0kit.finite_space import FiniteSpace, antichain, chain


def test_defaults_visible_in_summary():
    s = caps.caps_summary()
    assert s["carrier_cap"] == caps.DEFAULTS["carrier"]
    assert s["product_cap"] == caps.DEFAULTS["product"]
    assert s["owf_opens_cap"] == caps.DEFAULTS["owf_opens"]
    assert s["enum_cap"] == caps.DEFAULTS["enum"]
    assert s["maps_cap"] == caps.DEFAULTS["maps"]
    assert s["truncate_cap"] == caps.DEFAULTS["truncate"]
    assert list(s) == ["carrier_cap", "product_cap", "owf_opens_cap",
                       "enum_cap", "maps_cap", "truncate_cap"]


def test_env_override(monkeypatch):
    monkeypatch.setenv("T0KIT_CAP", "20")
    assert caps.cap("carrier") == 20
    assert caps.cap("product") == caps.DEFAULTS["product"]
    monkeypatch.setenv("T0KIT_CAP", "20, 9000")
    assert caps.cap("carrier") == 20
    assert caps.cap("product") == 9000
    monkeypatch.setenv("T0KIT_CAP", "nope")
    with pytest.raises(CapExceeded):
        caps.cap("carrier")


def test_scoped_override_nests_and_restores():
    base = caps.cap("carrier")
    with caps.scoped(carrier=50):
        assert caps.cap("carrier") == 50
        assert caps.caps_summary()["carrier_cap"] == 50
        with caps.scoped(carrier=30, product=9999):
            assert caps.cap("carrier") == 30
            assert caps.cap("product") == 9999
        assert caps.cap("carrier") == 50
    assert caps.cap("carrier") == base


def test_scoped_is_per_thread():
    # thread A holds a raised carrier cap while thread B reads the default
    entered, release = threading.Event(), threading.Event()
    seen = []

    def hold():
        with caps.scoped(carrier=50):
            entered.set()
            release.wait(timeout=10)

    a = threading.Thread(target=hold)
    a.start()
    try:
        assert entered.wait(timeout=10)
        b = threading.Thread(target=lambda: seen.append(caps.cap("carrier")))
        b.start()
        b.join(timeout=10)
        assert not b.is_alive()
    finally:
        release.set()
        a.join(timeout=10)
    assert not a.is_alive()
    assert seen == [16]


def test_scoped_rejects_unknown_names():
    with pytest.raises(ValueError):
        with caps.scoped(bogus=3):
            pass


def test_scoped_allows_wide_carriers():
    with pytest.raises(CapExceeded):
        antichain(17)
    with caps.scoped(carrier=50):
        sp = antichain(40)
        assert sp.n == 40
    with pytest.raises(CapExceeded):
        antichain(17)


def test_guard_message_names_the_quantity():
    with pytest.raises(CapExceeded, match="widget count: 7 exceeds cap 3"):
        caps.guard(7, 3, "widget count")


def test_cached_all_spaces_respects_a_lower_enum_cap():
    assert len(all_spaces(5)) == 63
    with caps.scoped(enum=4):
        with pytest.raises(CapExceeded):
            all_spaces(5)
        assert len(all_spaces(4)) == 16


def test_cached_maps_list_respects_a_lower_maps_cap():
    dom, cod = chain(3), antichain(4)  # 4^3 = 64 candidate tables
    assert len(continuous_maps_list(dom, cod)) == 4
    with caps.scoped(maps=10):
        with pytest.raises(CapExceeded):
            continuous_maps_list(dom, cod)
