"""A Likir-style identity layer.

Likir ("Layered Identity-based Kademlia-like Infrastructure", Aiello et al.,
P2P 2008 -- reference [12] of the DHARMA paper) hardens Kademlia by binding
every node identifier to a user identity certified by an off-line
Certification Service, and by attaching to every stored content a credential
that proves who published it.  This defeats Sybil-style id hijacking and lets
applications filter contents by publisher.

The reproduction keeps the *protocol shape* without a real PKI:

* a :class:`CertificationService` issues :class:`Identity` objects whose node
  id is the SHA-1 of the user name plus a service-chosen nonce, so a user
  cannot choose its own position in the id space;
* contents are wrapped in :class:`SignedValue` records carrying an HMAC
  computed with the publisher's identity secret; the storage side verifies the
  HMAC before accepting a STORE/APPEND (the shared-secret verification stands
  in for Likir's public-key signatures, preserving the interface while staying
  dependency-free).

The DHARMA layer uses identities for publish operations, so the overlay can
reject forged blocks; the evaluation experiments do not depend on this layer
beyond it existing on the write path (its cost is part of every PUT/APPEND).
"""

from __future__ import annotations

import hashlib
import hmac
import os
from dataclasses import dataclass
from typing import Any

from repro.core.codec import CodecError, encode_value
from repro.dht.node_id import NodeID

__all__ = [
    "LikirAuthError",
    "Identity",
    "SignedValue",
    "CertificationService",
]


def _canonical_form(value: Any) -> Any:
    """Order-independent rendering of *value* (dicts sorted, recursively).

    Two equal counter payloads whose ``entries`` dicts were built in
    different insertion orders (one merged, one appended-to) must serialise
    identically, or a legitimately merged-then-republished block would fail
    credential verification.
    """
    if isinstance(value, dict):
        return {key: _canonical_form(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_canonical_form(item) for item in value]
    return value


def _canonical_value_bytes(value: Any) -> bytes:
    try:
        return encode_value(_canonical_form(value))
    except (CodecError, TypeError):
        # Not a codec-able payload (exotic types, unsortable dict keys):
        # fall back to the repr rendering, which accepts anything.
        return repr(value).encode("utf-8")


class LikirAuthError(Exception):
    """A credential failed verification."""


@dataclass(frozen=True, slots=True)
class Identity:
    """A certified user identity.

    ``secret`` is the keying material shared with the certification service
    (per-identity); ``node_id`` is derived by the service, not chosen by the
    user.
    """

    user: str
    node_id: NodeID
    secret: bytes

    def sign(self, payload: bytes) -> bytes:
        """HMAC-SHA1 credential over *payload*."""
        return hmac.new(self.secret, payload, hashlib.sha1).digest()


@dataclass(frozen=True, slots=True)
class SignedValue:
    """A value wrapped with its publisher credential.

    The canonical byte serialisation covers the publisher name, the key and a
    deterministic rendering of the value, so replaying the credential over a
    different key or content fails verification.
    """

    publisher: str
    key_hex: str
    value: Any
    credential: bytes

    @staticmethod
    def canonical_bytes(publisher: str, key_hex: str, value: Any) -> bytes:
        """Order-independent serialisation the credential HMAC covers.

        Dict payloads are rendered with sorted keys through the binary value
        codec, so two equal payloads always produce the same bytes no matter
        their insertion history (the ``2|`` prefix names this form's version).
        """
        head = f"2|{publisher}|{key_hex}|".encode("utf-8")
        return head + _canonical_value_bytes(value)

    @classmethod
    def create(cls, identity: Identity, key: NodeID, value: Any) -> "SignedValue":
        key_hex = key.hex()
        payload = cls.canonical_bytes(identity.user, key_hex, value)
        return cls(
            publisher=identity.user,
            key_hex=key_hex,
            value=value,
            credential=identity.sign(payload),
        )

    def verify(self, service: "CertificationService") -> None:
        """Raise :class:`LikirAuthError` unless the credential is valid."""
        secret = service.secret_for(self.publisher)
        if secret is None:
            raise LikirAuthError(f"unknown publisher {self.publisher!r}")
        payload = self.canonical_bytes(self.publisher, self.key_hex, self.value)
        expected = hmac.new(secret, payload, hashlib.sha1).digest()
        if not hmac.compare_digest(expected, self.credential):
            raise LikirAuthError(f"invalid credential from {self.publisher!r}")


class CertificationService:
    """The off-line authority that certifies identities.

    In Likir this is a real service contacted once at registration time; here
    it is an in-process registry shared by the overlay so storage nodes can
    verify credentials.  Node ids are derived as ``SHA1(user | nonce)`` with a
    service-chosen nonce, preventing id targeting.

    Two deterministic issuance modes exist:

    * the default seeded mode derives key material from the *registration
      order* (``seed | issued | user``), which pins whole-cluster experiments
      bit-for-bit but means two processes only agree if they register the
      same users in the same order;
    * ``stateless=True`` derives from ``seed | user`` alone, so any process
      holding the shared seed derives the same identity for a user without
      coordination -- the mode ``dharma serve --verify --cert-seed`` uses to
      let independent OS processes verify each other's credentials.  In this
      mode possession of the seed is the trust root: :meth:`secret_for`
      derives identities on demand, so no publisher is ever "unknown"
      (forgeries are still rejected because the forger lacks the seed).
    """

    def __init__(self, seed: int | None = None, stateless: bool = False) -> None:
        if stateless and seed is None:
            raise ValueError("stateless issuance requires a shared seed")
        self._secrets: dict[str, bytes] = {}
        self._node_ids: dict[str, NodeID] = {}
        self._certified_ids: set[NodeID] = set()
        self._seed = seed
        self._stateless = stateless
        self._issued = 0

    @property
    def stateless(self) -> bool:
        return self._stateless

    def register(self, user: str) -> Identity:
        """Issue (or return the previously issued) identity for *user*."""
        if user in self._secrets:
            return Identity(user=user, node_id=self._node_ids[user], secret=self._secrets[user])
        if self._seed is None:
            nonce = os.urandom(8)
            secret = os.urandom(20)
        elif self._stateless:
            # Order-independent derivation: any process with the seed agrees.
            material = hashlib.sha256(f"{self._seed}|{user}".encode()).digest()
            nonce, secret = material[:8], material[8:28]
        else:
            # Deterministic issuance for reproducible experiments.
            material = hashlib.sha256(f"{self._seed}|{self._issued}|{user}".encode()).digest()
            nonce, secret = material[:8], material[8:28]
        node_id = NodeID.hash_of(user.encode("utf-8") + b"|" + nonce)
        self._secrets[user] = secret
        self._node_ids[user] = node_id
        self._certified_ids.add(node_id)
        self._issued += 1
        return Identity(user=user, node_id=node_id, secret=secret)

    def secret_for(self, user: str) -> bytes | None:
        if self._stateless and user not in self._secrets:
            return self.register(user).secret
        return self._secrets.get(user)

    def node_id_for(self, user: str) -> NodeID | None:
        if self._stateless and user not in self._node_ids:
            return self.register(user).node_id
        return self._node_ids.get(user)

    def is_certified_node_id(self, node_id: NodeID) -> bool:
        """True when *node_id* was issued by this service.

        The admission check Sybil defense builds on: a self-chosen node id
        (picked to crowd a victim key's region) was never derived through
        :meth:`register` and is refused routing-table admission by nodes
        running with ``certified_contacts``.
        """
        return node_id in self._certified_ids

    def is_registered(self, user: str) -> bool:
        return user in self._secrets

    def __len__(self) -> int:
        return len(self._secrets)
