"""Pseudonymization and field minimization for bundles leaving trust boundaries.

Driver ids become keyed hashes (holders of the salt can re-identify, nobody
else can); free-text and location fields can be stripped outright. Identity
columns such as names, emails and licence plates are never parsed into the
data model in the first place, so stripping concerns the fields that remain.
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .ingest import NormalizedBundle
from .model import AuditError

SALT_ENV_VAR = "FAREAUDIT_SALT"
MIN_SALT_BYTES = 16
PSEUDONYM_HEX_CHARS = 16

# every strippable field, with the record type that carries it
STRIPPABLE_FIELDS = {
    "memo": "payments",
    "origin_tag": "trips",
    "dest_tag": "trips",
    "product": "trips",
}
DEFAULT_STRIP_POLICY = ("memo", "origin_tag", "dest_tag")


class WeakSalt(AuditError):
    pass


def pseudonym(driver_id: str, salt: bytes) -> str:
    """Keyed-hash pseudonym: same id and salt give the same output everywhere."""
    import hashlib  # loads OpenSSL, which only `anon` needs
    import hmac

    if len(salt) < MIN_SALT_BYTES:
        raise WeakSalt(f"salt must be at least {MIN_SALT_BYTES} bytes, got {len(salt)}")
    digest = hmac.new(salt, driver_id.encode("utf-8"), hashlib.sha256)
    return digest.hexdigest()[:PSEUDONYM_HEX_CHARS]


def pseudonymize(bundle: NormalizedBundle, salt: bytes) -> NormalizedBundle:
    """Replace the bundle's driver id, the only copy of it, with its pseudonym."""
    return replace(bundle, driver_id=pseudonym(bundle.driver_id, salt))


def strip_fields(
    bundle: NormalizedBundle, policy: Sequence[str] = DEFAULT_STRIP_POLICY
) -> NormalizedBundle:
    """Blank the listed fields on every record; each is a key of ``STRIPPABLE_FIELDS``.

    Stripped values never reach serialized output: text fields become empty
    strings (memos become None), so no substring of the source value survives.
    """
    blank = {name: "" for name in policy if STRIPPABLE_FIELDS[name] == "trips"}
    trips = tuple(replace(t, **blank) for t in bundle.trips) if blank else bundle.trips
    payments = bundle.payments
    if "memo" in policy:
        payments = tuple(replace(p, memo=None) for p in payments)
    return replace(bundle, trips=trips, payments=payments)


def anonymize(
    bundle: NormalizedBundle, salt: bytes, policy: Sequence[str] = DEFAULT_STRIP_POLICY
) -> NormalizedBundle:
    return strip_fields(pseudonymize(bundle, salt), policy)


def load_salt(key_file: str | Path | None = None) -> bytes:
    """Fetch the salt from a key file or the environment, never the command line."""
    if key_file is not None:
        salt = Path(key_file).read_bytes().strip()
    else:
        text = os.environ.get(SALT_ENV_VAR, "")
        salt = text.encode("utf-8")
    if len(salt) < MIN_SALT_BYTES:
        raise WeakSalt(
            f"no usable salt: provide >= {MIN_SALT_BYTES} bytes via "
            f"a key file or the {SALT_ENV_VAR} environment variable"
        )
    return salt

