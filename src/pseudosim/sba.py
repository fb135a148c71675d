"""Simulated 5G service-based core for vehicular credential management.

Models the control-plane actors a connected vehicle talks to before it may
broadcast: identity concealment toward the home network, enrolment with an
Enrolment Authority, OAuth2-style access tokens minted by the NF Repository
Function, token-verified service requests between network functions, and batch
provisioning of pseudonymous authorization tickets by an Authorization
Authority.

Everything is deterministic: key material and opaque identifiers derive from
the run seed, and no wall-clock time is consulted. Simulation time is a float
in seconds, supplied by the caller.
"""

from __future__ import annotations

import base64
import collections
import hashlib
import hmac as hmac_mod
import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Iterator, Optional, TypeVar, Union

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from .seeds import derive_bytes

SUPI_LEN = 16
X25519_PUBLIC_LEN = 32

SCHEME_MAC = "mac-shared-secret"
SCHEME_ASYMMETRIC = "asymmetric"

SERVICE_V2X_MESSAGING = "v2x-msg"
SERVICE_AT_PROVISION = "at-provision"


class AppScope(str, Enum):
    """Application an authorization ticket (and its pseudonym) is bound to."""

    CAM = "CAM"
    DENM = "DENM"


class NfType(str, Enum):
    NRF = "NRF"
    AMF = "AMF"
    V2X_AF = "V2X_AF"
    EA = "EA"
    AA = "AA"


# --- errors -----------------------------------------------------------------


class SbaError(Exception):
    """Base class; every instance carries a stable machine-readable reason."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


class ConcealmentError(SbaError):
    pass


class EnrollmentError(SbaError):
    pass


class RegistrationError(SbaError):
    pass


class AuthorizationError(SbaError):
    """Token grant refused by the repository function."""


class VerificationError(SbaError):
    """Producer-side token check failed.

    Reasons: ``malformed``, ``bad_signature``, ``expired``,
    ``audience_mismatch``, ``scope_mismatch``.
    """


class ProvisioningError(SbaError):
    pass


# --- shared credential primitives ------------------------------------------

_T = TypeVar("_T")


# The open :func:`shared_credentials` memo of Ed25519 and X25519 key loads,
# signatures and key exchanges, each keyed by algorithm, private key bytes and
# the exact input bytes, so a hit returns what the computation would. No
# verification has an entry: every check runs in every run.
_ACTIVE_SCOPE: ContextVar[Optional[dict]] = ContextVar("pseudosim_credential_scope", default=None)


def _once(memo: dict, key: tuple, compute: Callable[..., _T], *args) -> _T:
    """``compute(*args)``, computed once per ``key`` while ``memo`` lives."""
    if key not in memo:
        memo[key] = compute(*args)
    return memo[key]


@contextmanager
def shared_credentials() -> Iterator[None]:
    """Signers and keystores built inside share one credential memo.

    Open one per group of runs: the memo keeps every result until its last
    signer or keystore is gone.
    """
    token = _ACTIVE_SCOPE.set({})
    try:
        yield
    finally:
        _ACTIVE_SCOPE.reset(token)


def _current_scope() -> dict:
    """The open scope's memo, or a fresh one private to the caller."""
    memo = _ACTIVE_SCOPE.get()
    return {} if memo is None else memo  # not ``or``: an empty open memo is still shared


# --- subscriber identity ----------------------------------------------------


@dataclass(frozen=True)
class Supi:
    """Permanent subscription identifier. Never sent over the air in clear."""

    value: bytes

    def __post_init__(self):
        if len(self.value) != SUPI_LEN:
            raise ValueError(f"SUPI must be {SUPI_LEN} bytes")

    def digest(self) -> str:
        return hashlib.sha256(self.value).hexdigest()


@dataclass(frozen=True)
class Suci:
    """Concealed SUPI: ephemeral public key followed by the masked identifier."""

    ciphertext: bytes
    key_id: str


@dataclass(frozen=True)
class HomeKey:
    """Public handle to one home-network concealment key."""

    key_id: str
    public_bytes: bytes


class HomeNetworkKeystore:
    """Holds the home network's concealment key pairs.

    Concealment is ECIES-shaped: an ephemeral X25519 key (derived from the
    caller's nonce) is exchanged against the home public key and the shared
    secret keys an XOR stream over the SUPI. The ephemeral public key rides in
    front of the ciphertext so the home network can deconceal.
    """

    def __init__(self, seed: int):
        self._keys: dict[str, bytes] = {}  # key id -> X25519 private bytes
        self._seed = seed
        self._scope = _current_scope()

    def create_key(self, key_id: str) -> HomeKey:
        if key_id in self._keys:
            raise ConcealmentError("duplicate_key_id", key_id)
        self._keys[key_id] = derive_bytes(self._seed, f"home-key:{key_id}", 32)
        return self.public_key(key_id)

    def public_key(self, key_id: str) -> HomeKey:
        if key_id not in self._keys:
            raise ConcealmentError("unknown_key_id", key_id)
        raw = self._load(self._keys[key_id]).public_key().public_bytes(
            Encoding.Raw, PublicFormat.Raw
        )
        return HomeKey(key_id=key_id, public_bytes=raw)

    def _load(self, raw: bytes) -> X25519PrivateKey:
        return _once(self._scope, ("x25519", raw), X25519PrivateKey.from_private_bytes, raw)

    def _exchange(self, raw: bytes, peer_public: bytes) -> bytes:
        return _once(
            self._scope, ("x25519-exchange", raw, peer_public),
            lambda: self._load(raw).exchange(X25519PublicKey.from_public_bytes(peer_public)),
        )

    def conceal_supi(self, supi: Supi, home_key: HomeKey, nonce: bytes) -> Suci:
        """Conceal ``supi`` under ``home_key`` using a caller-chosen nonce.

        Reusing a nonce reuses the ephemeral key, which the enrolment replay
        ledger will reject downstream.
        """
        if home_key.key_id not in self._keys:
            raise ConcealmentError("unknown_key_id", home_key.key_id)
        if not nonce:
            raise ConcealmentError("empty_nonce")
        eph_raw = hashlib.sha256(b"ephemeral:" + nonce).digest()
        eph_pub = self._load(eph_raw).public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
        shared = self._exchange(eph_raw, home_key.public_bytes)
        stream = hashlib.sha256(shared + eph_pub).digest()[:SUPI_LEN]
        masked = bytes(a ^ b for a, b in zip(supi.value, stream))
        return Suci(ciphertext=eph_pub + masked, key_id=home_key.key_id)

    def deconceal_supi(self, suci: Suci) -> Supi:
        if suci.key_id not in self._keys:
            raise ConcealmentError("unknown_key_id", suci.key_id)
        if len(suci.ciphertext) != X25519_PUBLIC_LEN + SUPI_LEN:
            raise ConcealmentError("malformed_ciphertext")
        eph_pub = suci.ciphertext[:X25519_PUBLIC_LEN]
        masked = suci.ciphertext[X25519_PUBLIC_LEN:]
        shared = self._exchange(self._keys[suci.key_id], eph_pub)
        stream = hashlib.sha256(shared + eph_pub).digest()[:SUPI_LEN]
        return Supi(bytes(a ^ b for a, b in zip(masked, stream)))


# --- token signing ----------------------------------------------------------


class MacTokenSigner:
    """HMAC-SHA256 over the signing input; secret shared issuer/producers."""

    scheme = SCHEME_MAC

    def __init__(self, secret: bytes):
        self._secret = secret

    def sign(self, data: bytes) -> bytes:
        return hmac_mod.new(self._secret, data, hashlib.sha256).digest()

    def verify(self, data: bytes, signature: bytes) -> bool:
        return hmac_mod.compare_digest(self.sign(data), signature)


class AsymmetricTokenSigner:
    """Ed25519; producers only need the public half. Signing is memoized, verifying never.

    The AA's signer signs a ticket only when its ``issuer_signature`` is first
    read, so a run signs enrolment certificates, and tokens under
    ``sig_scheme: asymmetric``, but no ticket.
    """

    scheme = SCHEME_ASYMMETRIC

    def __init__(self, private_bytes: bytes):
        self._scope = _current_scope()
        self._raw = private_bytes
        self._priv = _once(self._scope, ("ed25519", private_bytes),
                           Ed25519PrivateKey.from_private_bytes, private_bytes)
        self._pub = self._priv.public_key()

    def sign(self, data: bytes) -> bytes:
        return _once(self._scope, ("ed25519-sign", self._raw, data), self._priv.sign, data)

    def verify(self, data: bytes, signature: bytes) -> bool:
        try:
            self._pub.verify(signature, data)
            return True
        except InvalidSignature:
            return False


TokenSigner = Union[MacTokenSigner, AsymmetricTokenSigner]

# every token scheme: its signer class, and the label its key derives from under the run seed
TOKEN_SCHEMES: dict[str, tuple[type, str]] = {
    SCHEME_MAC: (MacTokenSigner, "token-mac-secret"),
    SCHEME_ASYMMETRIC: (AsymmetricTokenSigner, "token-ed25519"),
}


# --- access tokens ----------------------------------------------------------


@dataclass(frozen=True)
class AdditionalScope:
    """Finer-grained grant: one resource and the operations allowed on it."""

    resource: str
    allowed_operations: tuple[str, ...]

    @staticmethod
    def from_obj(obj: dict) -> "AdditionalScope":
        return AdditionalScope(
            resource=obj["resource"],
            allowed_operations=tuple(obj["allowed_operations"]),
        )


@dataclass(frozen=True)
class TokenClaims:
    """Claim set carried by an access token.

    issuer      NRF instance that minted the token
    subject     consumer NF instance the token was granted to
    audience    NF type of the intended producer
    scope       service names the consumer may invoke
    expiration  absolute simulation time; token is dead at and after this
    additional_scope  optional resource-level grants
    """

    issuer: str
    subject: str
    audience: str
    scope: tuple[str, ...]
    expiration: float
    additional_scope: tuple[AdditionalScope, ...] = ()

    def to_json(self) -> str:
        """Every field (tuples as arrays), the additional scope only if any."""
        obj = dict(vars(self))
        if not self.additional_scope:
            del obj["additional_scope"]
        return json.dumps(obj, default=vars, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "TokenClaims":
        obj = json.loads(text)
        extra = tuple(
            AdditionalScope.from_obj(a) for a in obj.get("additional_scope", [])
        )
        return TokenClaims(
            issuer=obj["issuer"],
            subject=obj["subject"],
            audience=obj["audience"],
            scope=tuple(obj["scope"]),
            expiration=float(obj["expiration"]),
            additional_scope=extra,
        )


def _b64e(raw: bytes) -> str:
    return base64.urlsafe_b64encode(raw).rstrip(b"=").decode("ascii")


def _b64d(text: str) -> bytes:
    pad = "=" * (-len(text) % 4)
    return base64.urlsafe_b64decode(text + pad)


@dataclass(frozen=True)
class AccessToken:
    """A token is the bytes its signature covers, and that signature.

    ``signing_input`` is the ASCII of ``b64(header).b64(claims)``. ``claims``
    is parsed from those bytes on first read, so the claims a token carries
    are always the ones that were signed; a claims segment that does not
    parse raises ``VerificationError('malformed')``.
    """

    signature: bytes
    sig_scheme: str
    signing_input: bytes

    def serialize(self) -> str:
        return self.signing_input.decode("ascii") + "." + _b64e(self.signature)

    @cached_property
    def claims(self) -> TokenClaims:
        try:
            claims_b64 = self.signing_input.decode("ascii").split(".")[1]
            return TokenClaims.from_json(_b64d(claims_b64).decode("utf-8"))
        except Exception as exc:
            raise VerificationError("malformed", str(exc)) from exc


def issue_token(claims: TokenClaims, signer: TokenSigner) -> AccessToken:
    header = json.dumps({"alg": signer.scheme}, sort_keys=True, separators=(",", ":"))
    signing_input = (_b64e(header.encode()) + "." + _b64e(claims.to_json().encode())).encode(
        "ascii"
    )
    return AccessToken(
        signature=signer.sign(signing_input),
        sig_scheme=signer.scheme,
        signing_input=signing_input,
    )


def parse_token(wire: str) -> AccessToken:
    """Parse the three-segment wire form without trusting its contents.

    Only splits and base64-decodes; claim bytes are not interpreted until
    ``claims`` is read, which ``verify_access_token`` does only once the
    signature over them has been checked. Raises ``VerificationError
    ('malformed')`` for anything that is not three base64url segments.
    """
    parts = wire.split(".")
    if len(parts) != 3:
        raise VerificationError("malformed", "expected three segments")
    header_b64, claims_b64, sig_b64 = parts
    try:
        header = json.loads(_b64d(header_b64).decode("utf-8"))
        signature = _b64d(sig_b64)
    except Exception as exc:
        raise VerificationError("malformed", str(exc)) from exc
    # base64 leaves slack bits in the last char; without a canonical-form check
    # two different wire strings could decode to the same signature bytes
    if _b64e(signature) != sig_b64:
        raise VerificationError("malformed", "non-canonical signature encoding")
    scheme = header.get("alg") if isinstance(header, dict) else None
    if type(scheme) is not str or scheme not in TOKEN_SCHEMES:  # a list is unhashable
        raise VerificationError("malformed", f"unknown alg {scheme!r}")
    signing_input = (header_b64 + "." + claims_b64).encode("ascii")
    return AccessToken(signature=signature, sig_scheme=scheme, signing_input=signing_input)


@dataclass(frozen=True)
class NfProfile:
    """Registry entry for one network function instance."""

    nf_instance_id: str
    nf_type: NfType
    services: tuple[str, ...]


def verify_access_token(
    token: Union[AccessToken, str],
    producer: NfProfile,
    service: str,
    now: float,
    verifiers: dict[str, TokenSigner],
) -> TokenClaims:
    """Producer-side verification. Checks run strictly in this order:

    1. signature over the received header/claims bytes,
    2. expiration (``now`` at or past ``expiration`` is dead),
    3. audience against the producer's NF type,
    4. requested service against the token scope.

    Returns the verified claims, or raises ``VerificationError`` whose reason
    names the first check that failed.
    """
    if isinstance(token, str):
        token = parse_token(token)
    verifier = verifiers.get(token.sig_scheme)
    if verifier is None:
        raise VerificationError("bad_signature", "no key for scheme")
    if not verifier.verify(token.signing_input, token.signature):
        raise VerificationError("bad_signature")
    claims = token.claims  # signed-yet-unparseable (an issuer bug) is malformed
    if now >= claims.expiration:
        raise VerificationError("expired")
    if claims.audience != producer.nf_type.value:
        raise VerificationError("audience_mismatch")
    if service not in claims.scope:
        raise VerificationError("scope_mismatch")
    return claims


# Rejects a consumer recovers from by fetching a fresh token; a token for the
# wrong producer or service would only be refused again.
RENEWABLE = frozenset({"expired", "bad_signature", "malformed"})


# --- NF repository ----------------------------------------------------------


@dataclass(frozen=True)
class AccessPolicy:
    """One grant row: a consumer type may call services on a producer type."""

    consumer_type: NfType
    target_type: NfType
    services: tuple[str, ...]
    additional_scope: tuple[AdditionalScope, ...] = ()


class NetworkRepository:
    """NF registry plus OAuth2-style authorization server.

    Registration is taken to happen over a mutually authenticated transport;
    instances registered through :meth:`register_nf` are therefore eligible
    token subjects. An instance id registers once.
    """

    def __init__(
        self,
        instance_id: str,
        signer: TokenSigner,
        policies: list[AccessPolicy],
        token_ttl_s: float,
    ):
        self.instance_id = instance_id
        self._signer = signer
        self._policies = list(policies)
        self._token_ttl_s = float(token_ttl_s)
        self._profiles: dict[str, NfProfile] = {}

    def register_nf(self, profile: NfProfile) -> NfProfile:
        if profile.nf_instance_id in self._profiles:
            raise RegistrationError("duplicate_instance", profile.nf_instance_id)
        self._profiles[profile.nf_instance_id] = profile
        return profile

    def request_access_token(
        self,
        consumer_id: str,
        scope: list[str],
        target_nf_type: NfType,
        now: float,
    ) -> AccessToken:
        """Grant an access token or raise ``AuthorizationError``.

        Reasons: ``unknown_consumer``, ``empty_scope``, ``scope_not_granted``.
        """
        consumer = self._profiles.get(consumer_id)
        if consumer is None:
            raise AuthorizationError("unknown_consumer", consumer_id)
        if not scope:
            raise AuthorizationError("empty_scope")
        granted: set[str] = set()
        extra: tuple[AdditionalScope, ...] = ()
        for policy in self._policies:
            if (
                policy.consumer_type == consumer.nf_type
                and policy.target_type == target_nf_type
            ):
                granted.update(policy.services)
                if policy.additional_scope:
                    extra = policy.additional_scope
        missing = [s for s in scope if s not in granted]
        if missing:
            raise AuthorizationError("scope_not_granted", ",".join(missing))
        claims = TokenClaims(
            issuer=self.instance_id,
            subject=consumer_id,
            audience=target_nf_type.value,
            scope=tuple(dict.fromkeys(scope)),
            expiration=now + self._token_ttl_s,
            additional_scope=extra,
        )
        return issue_token(claims, self._signer)


# --- enrolment and ticket provisioning --------------------------------------


@dataclass(frozen=True)
class EnrollmentCertificate:
    """Long-lived credential binding a hashed SUPI to a certificate id."""

    ec_id: str
    subject_digest: str
    issued_at: float
    valid_until: float
    issuer_signature: bytes

    @staticmethod
    def payload(ec_id: str, subject_digest: str, issued_at: float, valid_until: float) -> bytes:
        """The bytes the EA signs, from the fields before there is a signature."""
        return f"{ec_id}|{subject_digest}|{issued_at:.6f}|{valid_until:.6f}".encode()

    def signed_payload(self) -> bytes:
        return self.payload(self.ec_id, self.subject_digest, self.issued_at, self.valid_until)


@dataclass(frozen=True)
class AuthorizationTicket:
    """Short-lived pseudonymous credential; at_id is the over-the-air handle.

    The AA's signature is made on the first read of ``issuer_signature``, not
    at issue: Ed25519 is deterministic, so it is the same bytes either way,
    and a run reads none. ``signer`` takes no part in equality, hashing or
    ``repr``, so none of them signs.
    """

    at_id: str
    app_permissions: tuple[str, ...]
    valid_from: float
    valid_until: float
    signer: AsymmetricTokenSigner = field(repr=False, compare=False)

    @staticmethod
    def payload(
        at_id: str, app_permissions: tuple[str, ...], valid_from: float, valid_until: float
    ) -> bytes:
        """The bytes the AA signs, from the fields before there is a signature."""
        perms = ",".join(app_permissions)
        return f"{at_id}|{perms}|{valid_from:.6f}|{valid_until:.6f}".encode()

    def signed_payload(self) -> bytes:
        return self.payload(self.at_id, self.app_permissions, self.valid_from, self.valid_until)

    @cached_property
    def issuer_signature(self) -> bytes:
        return self.signer.sign(self.signed_payload())

    def is_valid_at(self, now: float) -> bool:
        return self.valid_from <= now < self.valid_until


class EnrolmentAuthority:
    """Deconceals subscriber identity and issues enrolment certificates.

    Keeps a replay ledger of seen concealment ephemerals so a recorded SUCI
    cannot be enrolled twice, and no record of the certificates it issues.
    """

    def __init__(
        self,
        keystore: HomeNetworkKeystore,
        signer: AsymmetricTokenSigner,
        ec_lifetime_s: float,
    ):
        self._keystore = keystore
        self._signer = signer
        self._ec_lifetime_s = float(ec_lifetime_s)
        self._subscribers: set[str] = set()
        self._seen_ephemerals: set[bytes] = set()
        self._counter = 0

    def add_subscriber(self, supi: Supi) -> None:
        self._subscribers.add(supi.digest())

    def enroll(self, suci: Suci, now: float) -> EnrollmentCertificate:
        """Issue a certificate for a concealed identity.

        Raises ``EnrollmentError`` with reason ``unknown_subscriber`` or
        ``replayed_concealment``; concealment problems propagate as
        ``ConcealmentError``.
        """
        supi = self._keystore.deconceal_supi(suci)
        if supi.digest() not in self._subscribers:
            raise EnrollmentError("unknown_subscriber")
        ephemeral = suci.ciphertext[:X25519_PUBLIC_LEN]
        if ephemeral in self._seen_ephemerals:
            raise EnrollmentError("replayed_concealment")
        self._seen_ephemerals.add(ephemeral)
        self._counter += 1
        ec_id = f"ec-{self._counter:06d}"
        subject = hashlib.sha256(b"subject:" + supi.value).hexdigest()[:32]
        until = now + self._ec_lifetime_s
        signature = self._signer.sign(EnrollmentCertificate.payload(ec_id, subject, now, until))
        return EnrollmentCertificate(ec_id, subject, now, until, signature)


class AuthorizationAuthority:
    """Issues batches of authorization tickets against a valid certificate."""

    def __init__(
        self,
        ea_verifier: AsymmetricTokenSigner,
        signer: AsymmetricTokenSigner,
        id_salt: str,
        batch_cap: int,
        at_lifetime_s: float,
        at_stagger_s: float = 0.0,
    ):
        self._ea_verifier = ea_verifier
        self._signer = signer
        self._id_salt = id_salt
        self._batch_cap = int(batch_cap)
        self._at_lifetime_s = float(at_lifetime_s)
        self._at_stagger_s = float(at_stagger_s)
        self._counter = 0

    def _next_at_id(self) -> str:
        self._counter += 1
        raw = f"{self._id_salt}:at:{self._counter}".encode()
        return hashlib.sha256(raw).hexdigest()[:16]

    def provision_batch(
        self,
        cert: EnrollmentCertificate,
        count: int,
        app_permissions: tuple[str, ...],
        now: float,
    ) -> list[AuthorizationTicket]:
        """Mint ``count`` tickets bound to ``app_permissions``.

        Ticket ids are opaque (salted hashes) so over-the-air identifiers
        carry no issue order. All tickets start now; the i-th expires at
        ``now + lifetime + i*stagger``. Each ticket holds this AA's signer and
        is signed on the first read of its ``issuer_signature``.

        Raises ``ProvisioningError``: ``bad_certificate_signature``,
        ``certificate_expired``, ``invalid_count``, ``batch_cap_exceeded``,
        ``empty_permissions``.
        """
        if not self._ea_verifier.verify(cert.signed_payload(), cert.issuer_signature):
            raise ProvisioningError("bad_certificate_signature", cert.ec_id)
        if not (cert.issued_at <= now < cert.valid_until):
            raise ProvisioningError("certificate_expired", cert.ec_id)
        if count < 1:
            raise ProvisioningError("invalid_count", str(count))
        if count > self._batch_cap:
            raise ProvisioningError("batch_cap_exceeded", str(count))
        if not app_permissions:
            raise ProvisioningError("empty_permissions")
        perms = tuple(app_permissions)
        batch: list[AuthorizationTicket] = []
        for i in range(count):
            at_id = self._next_at_id()
            until = now + self._at_lifetime_s + i * self._at_stagger_s
            batch.append(AuthorizationTicket(at_id, perms, now, until, self._signer))
        return batch


# --- facade -----------------------------------------------------------------


@dataclass(frozen=True)
class SbaConfig:
    """Knobs for the simulated core; defaults mirror common deployments."""

    token_ttl_s: float = 300.0
    sig_scheme: str = SCHEME_MAC
    ec_lifetime_s: float = 86400.0
    at_lifetime_s: float = 600.0
    at_stagger_s: float = 0.0
    at_batch_cap: int = 64


class ServiceBasedCore:
    """Wires keystore, NRF, EA, AA and the V2X application function together.

    Every service call is verified and counted in one place, and it renews a
    V2X session token rejected for a ``RENEWABLE`` reason at the NRF. One
    instance per simulation run. All key material is derived from the run
    seed, so two cores built with the same seed and config behave identically.
    Its only state outside itself is the :func:`shared_credentials` scope open
    when it is built, which memoizes key loads, signatures and key exchanges
    (never a verification, a ledger or a counter); outside any scope it gets
    fresh memos of its own. It signs each enrolment certificate, and each
    token under ``sig_scheme: asymmetric``, when it issues it; a ticket is
    signed, through the same scope, on the first read of its
    ``issuer_signature``. It can be handed between threads, though its
    methods are not themselves thread-safe.
    """

    def __init__(self, seed: int, config: Optional[SbaConfig] = None):
        self.config = config or SbaConfig()
        self.counters: collections.Counter[str] = collections.Counter()

        signer_class, key_label = TOKEN_SCHEMES[self.config.sig_scheme]
        token_signer: TokenSigner = signer_class(derive_bytes(seed, key_label, 32))
        self.token_verifiers: dict[str, TokenSigner] = {token_signer.scheme: token_signer}

        policies = [
            AccessPolicy(
                consumer_type=NfType.AMF,
                target_type=NfType.V2X_AF,
                services=(SERVICE_V2X_MESSAGING,),
                additional_scope=(
                    AdditionalScope(
                        resource="v2x-sessions",
                        allowed_operations=("create", "notify"),
                    ),
                ),
            ),
            AccessPolicy(
                consumer_type=NfType.EA,
                target_type=NfType.AA,
                services=(SERVICE_AT_PROVISION,),
            ),
        ]
        self.nrf = NetworkRepository(
            instance_id="nrf-1",
            signer=token_signer,
            policies=policies,
            token_ttl_s=self.config.token_ttl_s,
        )

        self.keystore = HomeNetworkKeystore(seed)
        self.home_key = self.keystore.create_key("hk-1")
        ea_signer = AsymmetricTokenSigner(derive_bytes(seed, "ea-ed25519", 32))
        aa_signer = AsymmetricTokenSigner(derive_bytes(seed, "aa-ed25519", 32))
        self.ea = EnrolmentAuthority(
            self.keystore, ea_signer, self.config.ec_lifetime_s
        )
        self.aa = AuthorizationAuthority(
            ea_verifier=ea_signer,
            signer=aa_signer,
            id_salt=f"run-{seed}",
            batch_cap=self.config.at_batch_cap,
            at_lifetime_s=self.config.at_lifetime_s,
            at_stagger_s=self.config.at_stagger_s,
        )

        self.amf_profile = self.nrf.register_nf(
            NfProfile("amf-1", NfType.AMF, services=())
        )
        self.v2x_af_profile = self.nrf.register_nf(
            NfProfile("v2x-af-1", NfType.V2X_AF, services=(SERVICE_V2X_MESSAGING,))
        )
        self.ea_profile = self.nrf.register_nf(
            NfProfile("ea-1", NfType.EA, services=())
        )
        self.aa_profile = self.nrf.register_nf(
            NfProfile("aa-1", NfType.AA, services=(SERVICE_AT_PROVISION,))
        )

        self._ea_token: Optional[AccessToken] = None

    # - subscriber lifecycle -

    def add_subscriber(self, supi: Supi) -> None:
        self.ea.add_subscriber(supi)

    def enroll_vehicle(self, supi: Supi, nonce: bytes, now: float) -> EnrollmentCertificate:
        """Conceal, then enroll. Counts successes and each failure reason."""
        try:
            suci = self.keystore.conceal_supi(supi, self.home_key, nonce)
            cert = self.ea.enroll(suci, now)
        except SbaError as exc:
            self.counters[f"enroll_denied_{exc.reason}"] += 1
            raise
        self.counters["enrollments_ok"] += 1
        return cert

    # - token flows -

    def _fetch_token(self, consumer: NfProfile, service: str, target: NfType,
                     now: float) -> AccessToken:
        """A token from the NRF; counts it, or the refusal's reason before re-raising."""
        try:
            token = self.nrf.request_access_token(consumer.nf_instance_id, [service], target, now)
        except AuthorizationError as exc:
            self.counters[f"token_denied_{exc.reason}"] += 1
            raise
        self.counters["tokens_issued"] += 1
        return token

    def request_v2x_token(self, now: float) -> AccessToken:
        """AMF-side token for the V2X messaging service."""
        return self._fetch_token(self.amf_profile, SERVICE_V2X_MESSAGING, NfType.V2X_AF, now)

    def _authorize(
        self, token: Union[AccessToken, str], service: str, producer: NfProfile, now: float
    ) -> Optional[str]:
        """Gate one service call on its token; counts it and returns the reject reason."""
        try:
            verify_access_token(token, producer, service, now, self.token_verifiers)
        except VerificationError as exc:
            self.counters[f"service_reject_{exc.reason}"] += 1
            return exc.reason
        self.counters["service_accepts"] += 1
        return None

    def invoke_v2x_service(
        self, token: Union[AccessToken, str], now: float
    ) -> Union[AccessToken, str]:
        """Call the V2X messaging service and return the token to keep.

        A ``RENEWABLE`` reject fetches a fresh token and calls once more with
        it; if the NRF refuses the fresh token, the old one is kept.
        """
        if self._authorize(token, SERVICE_V2X_MESSAGING, self.v2x_af_profile, now) in RENEWABLE:
            try:
                token = self.request_v2x_token(now)
            except SbaError:
                self.counters["session_renewal_failed"] += 1
                return token
            self.counters["session_renewals"] += 1
            self._authorize(token, SERVICE_V2X_MESSAGING, self.v2x_af_profile, now)
        return token

    # - ticket provisioning (EA invokes AA under a token of its own) -

    def _ea_access_token(self, now: float) -> AccessToken:
        if self._ea_token is None or now >= self._ea_token.claims.expiration:
            self._ea_token = self._fetch_token(self.ea_profile, SERVICE_AT_PROVISION,
                                               NfType.AA, now)
        return self._ea_token

    def provision_ticket_batch(
        self,
        cert: EnrollmentCertificate,
        count: int,
        app_permissions: tuple[str, ...],
        now: float,
    ) -> list[AuthorizationTicket]:
        reason = self._authorize(self._ea_access_token(now), SERVICE_AT_PROVISION,
                                 self.aa_profile, now)
        if reason is not None:
            raise ProvisioningError("service_rejected", reason)
        try:
            batch = self.aa.provision_batch(cert, count, app_permissions, now)
        except ProvisioningError as exc:
            self.counters[f"provision_denied_{exc.reason}"] += 1
            raise
        self.counters["tickets_issued"] += len(batch)
        return batch
