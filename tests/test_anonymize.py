import pytest

from fareaudit.anonymize import (
    DEFAULT_STRIP_POLICY,
    SALT_ENV_VAR,
    UnknownField,
    WeakSalt,
    anonymize,
    load_salt,
    pseudonym,
    pseudonymize,
    strip_fields,
)
from fareaudit.ingest import NormalizedBundle
from conftest import payment, trip

SALT = b"0123456789abcdef"


def stripped_values(bundle, policy):
    """The source values a strip policy removes; used to verify none survive."""
    for name in policy:
        records = bundle.payments if name == "memo" else bundle.trips
        yield from (value for value in (getattr(r, name) for r in records) if value)


def make_bundle(driver="d1"):
    return NormalizedBundle(
        driver_id=driver,
        trips=(trip(driver=driver, origin_tag="SECRET-A", dest_tag="SECRET-B", product="exec"),),
        payments=(payment(driver=driver, memo="SECRET-MEMO"),),
    )


def test_pseudonym_is_16_hex_and_deterministic():
    a = pseudonym("driver-1", SALT)
    assert len(a) == 16 and int(a, 16) >= 0
    assert pseudonym("driver-1", SALT) == a
    assert pseudonym("driver-2", SALT) != a
    assert pseudonym("driver-1", b"another-salt-16b") != a


def test_pseudonymize_rewrites_every_record():
    out = pseudonymize(make_bundle(), SALT)
    pid = pseudonym("d1", SALT)
    assert out.driver_id == pid
    assert out.trips[0].driver_id == pid
    assert out.payments[0].driver_id == pid
    # non-identity fields survive
    assert out.trips[0].origin_tag == "SECRET-A"


def test_strip_fields_blanks_policy_fields_only():
    out = strip_fields(make_bundle(), ("memo", "origin_tag"))
    assert out.payments[0].memo is None
    assert out.trips[0].origin_tag == ""
    assert out.trips[0].dest_tag == "SECRET-B"


def test_strip_unknown_field_rejected():
    with pytest.raises(UnknownField):
        strip_fields(make_bundle(), ("driver_id",))


def test_anonymize_default_policy_removes_all_markers():
    out = anonymize(make_bundle(), SALT)
    leftovers = [v for v in stripped_values(make_bundle(), DEFAULT_STRIP_POLICY)]
    assert leftovers  # sanity: the source really had values to strip
    from fareaudit.ingest import payment_row, trip_row

    serialized = "".join(
        "".join(trip_row(t)) for t in out.trips
    ) + "".join("".join(payment_row(p)) for p in out.payments)
    assert "SECRET" not in serialized


def test_load_salt_sources(tmp_path, monkeypatch):
    monkeypatch.delenv(SALT_ENV_VAR, raising=False)
    with pytest.raises(WeakSalt):
        load_salt(None)
    monkeypatch.setenv(SALT_ENV_VAR, "x" * 15)
    with pytest.raises(WeakSalt):
        load_salt(None)  # too short
    monkeypatch.setenv(SALT_ENV_VAR, "x" * 16)
    assert load_salt(None) == b"x" * 16
    key = tmp_path / "salt.key"
    key.write_bytes(b"k" * 32)
    assert load_salt(key) == b"k" * 32
    short = tmp_path / "short.key"
    short.write_bytes(b"k")
    with pytest.raises(WeakSalt):
        load_salt(short)
