"""Cap plumbing: env parsing, scoped overrides, report echo."""

import threading

import pytest

from t0kit import caps, enumeration, finite_space
from t0kit.enumeration import all_spaces, continuous_maps_list
from t0kit.errors import BadParams, CapExceeded
from t0kit.finite_space import all_opens, antichain, chain


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


def test_env_is_read_at_every_call(monkeypatch):
    monkeypatch.setenv("T0KIT_CAP", "20")
    assert caps.cap("carrier") == 20
    monkeypatch.setenv("T0KIT_CAP", "9")
    assert caps.cap("carrier") == 9
    monkeypatch.setenv("T0KIT_CAP", "20")
    assert caps.cap("carrier") == 20
    monkeypatch.delenv("T0KIT_CAP")
    assert caps.cap("carrier") == caps.DEFAULTS["carrier"]


def test_malformed_env_raises_on_every_read(monkeypatch):
    monkeypatch.setenv("T0KIT_CAP", "8,nope")
    for _ in range(2):
        with pytest.raises(CapExceeded, match="cannot parse"):
            caps.cap("carrier")
    with pytest.raises(CapExceeded, match="cannot parse"):
        caps.caps_summary()


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
    with pytest.raises(BadParams):
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


def test_cached_all_opens_respects_a_lower_carrier_cap():
    sp = antichain(5)
    assert len(all_opens(sp)) == 32
    with caps.scoped(carrier=3):
        with pytest.raises(CapExceeded, match="open-set count exceeds 8"):
            all_opens(sp)
    assert len(all_opens(sp)) == 32


def _summary_from_cap():
    return {f"{name}_cap": caps.cap(name) for name in caps.DEFAULTS}


def test_summary_follows_cap_under_env_and_scopes(monkeypatch):
    monkeypatch.setenv("T0KIT_CAP", "20, 9000")
    assert caps.caps_summary() == _summary_from_cap()
    assert caps.caps_summary()["product_cap"] == 9000
    with caps.scoped(carrier=40, enum=3):
        assert caps.caps_summary() == _summary_from_cap()
        with caps.scoped(carrier=30, product=50):
            summary = caps.caps_summary()
            assert summary == _summary_from_cap()
            assert (summary["carrier_cap"], summary["product_cap"]) == (30, 50)
            assert summary["enum_cap"] == 3
        assert caps.caps_summary()["product_cap"] == 9000
    monkeypatch.setenv("T0KIT_CAP", "nope")
    with pytest.raises(CapExceeded):
        caps.caps_summary()


def test_cache_controls_stay_public():
    # the benchmark harness empties these caches and reads the opens hit ratio
    for cached in (finite_space.all_opens, enumeration.all_spaces,
                   enumeration.continuous_maps_list):
        cached.cache_clear()
    before = finite_space.all_opens.cache_info()
    all_opens(chain(3))
    all_opens(chain(3))
    after = finite_space.all_opens.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
