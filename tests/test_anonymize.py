import hashlib
from dataclasses import replace

import pytest

from fareaudit.anonymize import (
    DEFAULT_STRIP_POLICY,
    SALT_ENV_VAR,
    WeakSalt,
    anonymize,
    load_salt,
    pseudonym,
    pseudonymize,
    strip_fields,
)
from fareaudit.cli import main
from fareaudit.ingest import NormalizedBundle
from fareaudit.synthgen import generate
from conftest import payment, trip
from test_synthgen import GOLDEN

SALT = b"0123456789abcdef"


def stripped_values(bundle, policy):
    """The source values a strip policy removes; used to verify none survive."""
    for name in policy:
        records = bundle.payments if name == "memo" else bundle.trips
        yield from (value for value in (getattr(r, name) for r in records) if value)


def make_bundle(driver="d1"):
    return NormalizedBundle(
        driver_id=driver,
        trips=(trip(origin_tag="SECRET-A", dest_tag="SECRET-B", product="exec"),),
        payments=(payment(memo="SECRET-MEMO"),),
    )


def test_pseudonym_is_16_hex_and_deterministic():
    a = pseudonym("driver-1", SALT)
    assert len(a) == 16 and int(a, 16) >= 0
    assert pseudonym("driver-1", SALT) == a
    assert pseudonym("driver-2", SALT) != a
    assert pseudonym("driver-1", b"another-salt-16b") != a


def test_pseudonymize_rewrites_every_record():
    out = pseudonymize(make_bundle(), SALT)
    assert out.driver_id == pseudonym("d1", SALT)
    # records carry no driver id, so the bundle's is the only one to rewrite;
    # every record and its non-identity fields survive as they were
    assert replace(out, driver_id="d1") == make_bundle()
    assert not any(hasattr(r, "driver_id") for r in (*out.trips, *out.payments))
    assert out.trips[0].origin_tag == "SECRET-A"


def test_strip_fields_blanks_policy_fields_only():
    out = strip_fields(make_bundle(), ("memo", "origin_tag"))
    assert out.payments[0].memo is None
    assert out.trips[0].origin_tag == ""
    assert out.trips[0].dest_tag == "SECRET-B"


def test_strip_unknown_field_rejected():
    # `anon --strip` checks names at parse time; the library looks each one up
    # in STRIPPABLE_FIELDS, so a name it has no field for is never ignored
    with pytest.raises(KeyError):
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


# `anon` output of the golden synth fleet under a fixed salt and the default
# policy. It holds no floating-point arithmetic, so the bytes are the same on
# every CPU, and any change to them must be deliberate.
ANON_GOLDEN_SHA256 = {
    "2a15790256f954ad/dispatches.csv": "8ccd506c58ef8df30326577fd73f63db59081fffdc2ace85780300c3d55022fd",
    "2a15790256f954ad/payments.csv": "18265aeab95bb48ddb3058dec1c8d51fc6f924e4aa650f0bcebaa58512f76d26",
    "2a15790256f954ad/profile.csv": "69bf96e39a2226a77a893d1c4bc73ba3b29e091939a6df551ccd5ba85cda20c2",
    "2a15790256f954ad/sessions.csv": "c9eb19e8ffa5ba801fa10c88805a65c0279cae5270fcb248ec474de29a307244",
    "2a15790256f954ad/trips.csv": "1da7fb39830b3e8f72be091341d175eb2d08ec1c6e60a1e01baa0f54d7abc1a9",
    "6aa17603512462ba/dispatches.csv": "f43e6d76b60cecdcc13e9d0c7784c6d8b2b59f1852626b6064c18095a328909e",
    "6aa17603512462ba/payments.csv": "20cea9c90eaccacdfdbd8f9463015228b61dff8bb800d8eeb1cb0c58cee660b9",
    "6aa17603512462ba/profile.csv": "f972d5b4ea21ac3245b345a81158f0d970e57558571fcd56f1d4752d7633ef5f",
    "6aa17603512462ba/sessions.csv": "2eba5d37fc5b526b10f179f62b1cc5508ac062d87de0c655e931295fc6ffcfcd",
    "6aa17603512462ba/trips.csv": "f2ba2de30d18358ba989a1f859cc550822fef85c76db5cf5a3d5fe9ae6063402",
    "e68152f79f286753/dispatches.csv": "961cd00a3278f9ea3ee140fa8dd8c2cebe5161b7d5dd87c43c330f8d98c45107",
    "e68152f79f286753/payments.csv": "ef00b149b4419cb5dc9026541d1aa443b100ec22525bc565c5c36026bcc58fb6",
    "e68152f79f286753/profile.csv": "b53beef963007c34f9354bb151b2e5fc001f68d7c3fbc03b8bada7bc42ca5174",
    "e68152f79f286753/sessions.csv": "20f857e042b84d6dd3ba14e35e5ef4d95b0bcd49c8b45b496ae5ae730fe8ffcd",
    "e68152f79f286753/trips.csv": "bcaae359484aa3ff52dc1c3795658475ad6134b9d8ed88159b2ec8bec67c9216",
}


def test_anon_files_keep_their_golden_digests(tmp_path):
    generate(GOLDEN, tmp_path / "fleet")
    salt = tmp_path / "salt"
    salt.write_bytes(b"golden-anon-salt-0123456789")
    out = tmp_path / "out"
    assert main(["anon", str(tmp_path / "fleet"), "--out", str(out), "--salt-file", str(salt)]) == 0
    got = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    assert got == ANON_GOLDEN_SHA256
