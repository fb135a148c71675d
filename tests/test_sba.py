import dataclasses
import hashlib
import json

import pytest

from pseudosim import sba
from pseudosim.sba import (
    SCHEME_ASYMMETRIC,
    SCHEME_MAC,
    SERVICE_AT_PROVISION,
    SERVICE_V2X_MESSAGING,
    AccessPolicy,
    AdditionalScope,
    AppScope,
    AsymmetricTokenSigner,
    AuthorizationError,
    AuthorizationTicket,
    ConcealmentError,
    EnrollmentCertificate,
    EnrollmentError,
    HomeNetworkKeystore,
    MacTokenSigner,
    NetworkRepository,
    NfProfile,
    NfType,
    ProvisioningError,
    RegistrationError,
    SbaConfig,
    ServiceBasedCore,
    Supi,
    TokenClaims,
    VerificationError,
    _b64d,
    _b64e,
    issue_token,
    parse_token,
    shared_credentials,
    verify_access_token,
)
from pseudosim.strategy import SELECTION_NO_REUSE, PseudonymPool

_B64_ALPHABET = (
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
)


def make_supi(fill: int = 0x42) -> Supi:
    return Supi(bytes([fill]) * 16)


def make_claims(**over) -> TokenClaims:
    base = dict(
        issuer="nrf-1",
        subject="amf-1",
        audience="V2X_AF",
        scope=(SERVICE_V2X_MESSAGING,),
        expiration=300.0,
    )
    base.update(over)
    return TokenClaims(**base)


# --- concealment -------------------------------------------------------------


def test_supi_requires_16_bytes():
    with pytest.raises(ValueError):
        Supi(b"short")


def test_conceal_deconceal_roundtrip():
    ks = HomeNetworkKeystore(seed=1)
    key = ks.create_key("hk-1")
    supi = make_supi()
    suci = ks.conceal_supi(supi, key, b"nonce-1")
    assert ks.deconceal_supi(suci) == supi
    # concealed form never contains the raw identifier
    assert supi.value not in suci.ciphertext


def test_conceal_nonce_changes_ciphertext():
    ks = HomeNetworkKeystore(seed=1)
    key = ks.create_key("hk-1")
    supi = make_supi()
    a = ks.conceal_supi(supi, key, b"n1")
    b = ks.conceal_supi(supi, key, b"n2")
    assert a.ciphertext != b.ciphertext


def test_conceal_error_reasons():
    ks = HomeNetworkKeystore(seed=1)
    key = ks.create_key("hk-1")
    with pytest.raises(ConcealmentError) as err:
        ks.create_key("hk-1")
    assert err.value.reason == "duplicate_key_id"
    with pytest.raises(ConcealmentError) as err:
        ks.conceal_supi(make_supi(), key, b"")
    assert err.value.reason == "empty_nonce"

    # another keystore holds no "hk-1": it cannot deconceal, conceal or show the key
    other = HomeNetworkKeystore(seed=2)
    with pytest.raises(ConcealmentError) as err:
        other.deconceal_supi(ks.conceal_supi(make_supi(), key, b"n"))
    assert err.value.reason == "unknown_key_id"
    with pytest.raises(ConcealmentError) as err:
        other.conceal_supi(make_supi(), key, b"n")
    assert (err.value.reason, err.value.detail) == ("unknown_key_id", "hk-1")
    with pytest.raises(ConcealmentError) as err:
        other.public_key("hk-1")
    assert (err.value.reason, err.value.detail) == ("unknown_key_id", "hk-1")

    suci = ks.conceal_supi(make_supi(), key, b"n")
    truncated = type(suci)(ciphertext=suci.ciphertext[:-1], key_id=suci.key_id)
    with pytest.raises(ConcealmentError) as err:
        ks.deconceal_supi(truncated)
    assert err.value.reason == "malformed_ciphertext"


# --- token wire format and verification --------------------------------------


@pytest.mark.parametrize("scheme", [SCHEME_MAC, SCHEME_ASYMMETRIC])
def test_token_roundtrip(scheme):
    if scheme == SCHEME_MAC:
        signer = MacTokenSigner(b"k" * 32)
    else:
        signer = AsymmetricTokenSigner(b"s" * 32)
    claims = make_claims(
        additional_scope=(AdditionalScope("v2x-sessions", ("create", "notify")),)
    )
    token = issue_token(claims, signer)
    wire = token.serialize()
    assert wire.count(".") == 2

    producer = NfProfile("v2x-af-1", NfType.V2X_AF, services=(SERVICE_V2X_MESSAGING,))
    got = verify_access_token(
        wire, producer, SERVICE_V2X_MESSAGING, now=0.0, verifiers={scheme: signer}
    )
    assert got == claims


def test_claims_json_bytes_are_pinned():
    # the signed bytes: sorted keys, no spaces, no additional scope when empty
    assert make_claims().to_json() == (
        '{"audience":"V2X_AF","expiration":300.0,"issuer":"nrf-1",'
        '"scope":["v2x-msg"],"subject":"amf-1"}'
    )
    claims = make_claims(
        scope=(SERVICE_V2X_MESSAGING, "x"),
        expiration=-0.0,
        additional_scope=(
            AdditionalScope("v2x-sessions", ("create", "notify")),
            AdditionalScope("r", ()),
        ),
    )
    assert claims.to_json() == (
        '{"additional_scope":[{"allowed_operations":["create","notify"],'
        '"resource":"v2x-sessions"},{"allowed_operations":[],"resource":"r"}],'
        '"audience":"V2X_AF","expiration":-0.0,"issuer":"nrf-1",'
        '"scope":["v2x-msg","x"],"subject":"amf-1"}'
    )
    assert TokenClaims.from_json(claims.to_json()) == claims


def test_parse_token_segment_count():
    for wire in ("", "a", "a.b", "a.b.c.d"):
        with pytest.raises(VerificationError) as err:
            parse_token(wire)
        assert err.value.reason == "malformed"


def test_parse_token_unknown_alg():
    signer = MacTokenSigner(b"k" * 32)
    token = issue_token(make_claims(), signer)
    _, claims_b64, sig_b64 = token.serialize().split(".")
    bogus = _b64e(b'{"alg":"none"}')
    with pytest.raises(VerificationError) as err:
        parse_token(f"{bogus}.{claims_b64}.{sig_b64}")
    assert err.value.reason == "malformed"


# an unhashable alg is malformed too, not a TypeError from the scheme table's lookup
@pytest.mark.parametrize("alg", ["null", "1", '["asymmetric"]', '{"alg": "asymmetric"}'])
def test_parse_token_alg_that_is_not_a_string(alg):
    token = issue_token(make_claims(), MacTokenSigner(b"k" * 32))
    _, claims_b64, sig_b64 = token.serialize().split(".")
    bogus = _b64e(b'{"alg":' + alg.encode() + b"}")
    with pytest.raises(VerificationError) as err:
        parse_token(f"{bogus}.{claims_b64}.{sig_b64}")
    assert err.value.reason == "malformed"


def test_parse_token_rejects_signature_alias():
    # 32-byte MACs leave 2 slack bits in the final base64 char: a different
    # final char can decode to the same bytes. Canonical-form check must
    # refuse that wire even though the decoded signature would verify.
    signer = MacTokenSigner(b"k" * 32)
    token = issue_token(make_claims(), signer)
    head, claims_b64, sig_b64 = token.serialize().split(".")
    decoded = _b64d(sig_b64)
    alias = None
    for ch in _B64_ALPHABET:
        if ch == sig_b64[-1]:
            continue
        if _b64d(sig_b64[:-1] + ch) == decoded:
            alias = ch
            break
    assert alias is not None
    with pytest.raises(VerificationError) as err:
        parse_token(f"{head}.{claims_b64}.{sig_b64[:-1] + alias}")
    assert err.value.reason == "malformed"


def test_verify_checks_signature_before_claims():
    signer = MacTokenSigner(b"k" * 32)
    producer = NfProfile("v2x-af-1", NfType.V2X_AF, services=(SERVICE_V2X_MESSAGING,))
    # expired AND tampered: signature failure must win
    token = issue_token(make_claims(expiration=1.0), signer)
    head, claims_b64, sig_b64 = token.serialize().split(".")
    tampered = f"{head}.{claims_b64[:-1] + ('A' if claims_b64[-1] != 'A' else 'B')}.{sig_b64}"
    with pytest.raises(VerificationError) as err:
        verify_access_token(
            tampered, producer, SERVICE_V2X_MESSAGING, now=100.0,
            verifiers={SCHEME_MAC: signer},
        )
    assert err.value.reason == "bad_signature"


def test_verify_order_expired_audience_scope():
    signer = MacTokenSigner(b"k" * 32)
    verifiers = {SCHEME_MAC: signer}
    producer = NfProfile("v2x-af-1", NfType.V2X_AF, services=(SERVICE_V2X_MESSAGING,))

    # expired and wrong audience: expired wins
    token = issue_token(make_claims(audience="AA", expiration=1.0), signer)
    with pytest.raises(VerificationError) as err:
        verify_access_token(token, producer, SERVICE_V2X_MESSAGING, 5.0, verifiers)
    assert err.value.reason == "expired"

    # live, wrong audience and wrong scope: audience wins
    token = issue_token(make_claims(audience="AA", scope=("other",)), signer)
    with pytest.raises(VerificationError) as err:
        verify_access_token(token, producer, SERVICE_V2X_MESSAGING, 0.0, verifiers)
    assert err.value.reason == "audience_mismatch"

    token = issue_token(make_claims(scope=("other",)), signer)
    with pytest.raises(VerificationError) as err:
        verify_access_token(token, producer, SERVICE_V2X_MESSAGING, 0.0, verifiers)
    assert err.value.reason == "scope_mismatch"


def test_a_token_is_its_signed_bytes():
    core = ServiceBasedCore(1)
    token = core.request_v2x_token(now=0.0)
    claims = token.claims
    signed = TokenClaims.from_json(_b64d(token.signing_input.split(b".")[1].decode()))
    assert claims == signed and claims.audience == "V2X_AF"
    # no token carries claims other than the ones its signature covers
    for forged in (dataclasses.replace(claims, audience="AA", scope=(SERVICE_AT_PROVISION,)),
                   dataclasses.replace(claims, expiration=1e12)):
        with pytest.raises(TypeError):
            dataclasses.replace(token, claims=forged)
    got = verify_access_token(token, core.v2x_af_profile, SERVICE_V2X_MESSAGING, 1.0,
                              core.token_verifiers)
    assert got == signed
    for sent in (token, token.serialize()):
        with pytest.raises(VerificationError) as err:
            verify_access_token(sent, core.aa_profile, SERVICE_AT_PROVISION, 1.0,
                                core.token_verifiers)
        assert err.value.reason == "audience_mismatch"
    assert core.invoke_v2x_service(token, now=400.0) is not token
    assert core.counters["service_reject_expired"] == 1


def test_signed_claims_that_do_not_parse_are_malformed():
    signer = MacTokenSigner(b"k" * 32)
    producer = NfProfile("v2x-af-1", NfType.V2X_AF, services=(SERVICE_V2X_MESSAGING,))
    header = _b64e(json.dumps({"alg": SCHEME_MAC}).encode())
    signing_input = f"{header}.{_b64e(b'not json')}"
    wire = f"{signing_input}.{_b64e(signer.sign(signing_input.encode()))}"
    with pytest.raises(VerificationError) as err:
        verify_access_token(wire, producer, SERVICE_V2X_MESSAGING, 0.0, {SCHEME_MAC: signer})
    assert err.value.reason == "malformed"


def test_expiration_boundary_is_dead():
    signer = MacTokenSigner(b"k" * 32)
    producer = NfProfile("v2x-af-1", NfType.V2X_AF, services=(SERVICE_V2X_MESSAGING,))
    token = issue_token(make_claims(expiration=300.0), signer)
    verifiers = {SCHEME_MAC: signer}
    # one tick before is fine
    verify_access_token(token, producer, SERVICE_V2X_MESSAGING, 299.999, verifiers)
    with pytest.raises(VerificationError) as err:
        verify_access_token(token, producer, SERVICE_V2X_MESSAGING, 300.0, verifiers)
    assert err.value.reason == "expired"


def test_unknown_scheme_key_is_bad_signature():
    signer = AsymmetricTokenSigner(b"s" * 32)
    producer = NfProfile("v2x-af-1", NfType.V2X_AF, services=(SERVICE_V2X_MESSAGING,))
    token = issue_token(make_claims(), signer)
    with pytest.raises(VerificationError) as err:
        verify_access_token(
            token, producer, SERVICE_V2X_MESSAGING, 0.0,
            verifiers={SCHEME_MAC: MacTokenSigner(b"k" * 32)},
        )
    assert err.value.reason == "bad_signature"


@pytest.mark.parametrize("reason", ["expired", "bad_signature", "malformed"])
def test_a_renewable_reject_renews_the_session_token(reason):
    core = ServiceBasedCore(seed=13)
    if reason == "expired":
        token, now = core.request_v2x_token(now=0.0), core.config.token_ttl_s
    elif reason == "bad_signature":
        token, now = issue_token(make_claims(), MacTokenSigner(b"other" * 8)), 1.0
    else:
        token, now = "not-a-token", 1.0
    before = dict(core.counters)
    renewed = core.invoke_v2x_service(token, now)
    assert renewed is not token
    verify_access_token(renewed, core.v2x_af_profile, SERVICE_V2X_MESSAGING, now,
                        core.token_verifiers)
    gained = {key: n - before.get(key, 0) for key, n in core.counters.items()}
    assert gained == {f"service_reject_{reason}": 1, "session_renewals": 1,
                      "tokens_issued": 1, "service_accepts": 1}


@pytest.mark.parametrize("reason", ["audience_mismatch", "scope_mismatch"])
def test_a_mismatch_reject_keeps_the_token(reason):
    core = ServiceBasedCore(seed=13)
    if reason == "audience_mismatch":  # the EA's provisioning token
        token = core.nrf.request_access_token("ea-1", [SERVICE_AT_PROVISION], NfType.AA, 0.0)
    else:
        token = issue_token(make_claims(scope=("other",)), core.token_verifiers[SCHEME_MAC])
    assert core.invoke_v2x_service(token, 1.0) is token
    assert core.counters == {f"service_reject_{reason}": 1}


def test_a_refused_renewal_keeps_the_old_token(monkeypatch):
    core = ServiceBasedCore(seed=13)
    token = core.request_v2x_token(now=0.0)

    def refuse(*args, **kwargs):
        raise AuthorizationError("scope_not_granted")

    monkeypatch.setattr(core.nrf, "request_access_token", refuse)
    assert core.invoke_v2x_service(token, core.config.token_ttl_s) is token
    assert core.counters == {"tokens_issued": 1, "service_reject_expired": 1,
                             "token_denied_scope_not_granted": 1,
                             "session_renewal_failed": 1}


def test_a_refused_ea_token_is_counted_and_propagates(monkeypatch):
    core = ServiceBasedCore(seed=13)
    supi = make_supi()
    core.add_subscriber(supi)
    cert = core.enroll_vehicle(supi, b"n", now=0.0)

    def refuse(*args, **kwargs):
        raise AuthorizationError("unknown_consumer")

    monkeypatch.setattr(core.nrf, "request_access_token", refuse)
    with pytest.raises(AuthorizationError) as err:
        core.provision_ticket_batch(cert, 1, ("CAM",), now=0.0)
    assert err.value.reason == "unknown_consumer"
    # nothing issued is counted, and no service call was made
    assert core.counters == {"enrollments_ok": 1, "token_denied_unknown_consumer": 1}


def test_tokens_issued_counts_both_consumers_and_only_what_counted():
    core = ServiceBasedCore(seed=13)
    assert core.counters == {}  # a counter is absent until it has counted something
    supi = make_supi()
    core.add_subscriber(supi)
    cert = core.enroll_vehicle(supi, b"n", now=0.0)
    core.request_v2x_token(now=0.0)  # the AMF's
    core.provision_ticket_batch(cert, 2, ("CAM",), now=0.0)  # the EA's
    assert core.counters == {"enrollments_ok": 1, "tokens_issued": 2,
                             "service_accepts": 1, "tickets_issued": 2}


# --- NF repository ------------------------------------------------------------


def make_nrf(ttl=60.0):
    policies = [
        AccessPolicy(
            consumer_type=NfType.AMF,
            target_type=NfType.V2X_AF,
            services=(SERVICE_V2X_MESSAGING, "sessions"),
            additional_scope=(
                AdditionalScope("v2x-sessions", ("create", "notify")),
            ),
        ),
    ]
    return NetworkRepository("nrf-x", MacTokenSigner(b"k" * 32), policies, ttl)


def test_register_rejects_duplicate():
    nrf = make_nrf()
    nrf.register_nf(NfProfile("amf-1", NfType.AMF, services=()))
    with pytest.raises(RegistrationError) as err:
        nrf.register_nf(NfProfile("amf-1", NfType.AMF, services=(SERVICE_V2X_MESSAGING,)))
    assert err.value.reason == "duplicate_instance"


def test_token_grant_and_denials():
    nrf = make_nrf(ttl=60.0)
    nrf.register_nf(NfProfile("amf-1", NfType.AMF, services=()))

    with pytest.raises(AuthorizationError) as err:
        nrf.request_access_token("ghost", [SERVICE_V2X_MESSAGING], NfType.V2X_AF, 0.0)
    assert err.value.reason == "unknown_consumer"

    with pytest.raises(AuthorizationError) as err:
        nrf.request_access_token("amf-1", [], NfType.V2X_AF, 0.0)
    assert err.value.reason == "empty_scope"

    with pytest.raises(AuthorizationError) as err:
        nrf.request_access_token("amf-1", ["made-up"], NfType.V2X_AF, 0.0)
    assert err.value.reason == "scope_not_granted"

    token = nrf.request_access_token(
        "amf-1", [SERVICE_V2X_MESSAGING, "sessions", SERVICE_V2X_MESSAGING], NfType.V2X_AF, 10.0
    )
    c = token.claims
    assert c.issuer == "nrf-x"
    assert c.subject == "amf-1"
    assert c.audience == "V2X_AF"
    assert c.scope == (SERVICE_V2X_MESSAGING, "sessions")  # deduped, first order kept
    assert c.expiration == 70.0
    assert c.additional_scope == (
        AdditionalScope("v2x-sessions", ("create", "notify")),
    )


# --- enrolment and provisioning -----------------------------------------------


def test_enroll_and_replay_ledger():
    core = ServiceBasedCore(seed=3)
    supi = make_supi()
    core.add_subscriber(supi)
    cert = core.enroll_vehicle(supi, b"nonce-a", now=0.0)
    assert cert.ec_id == "ec-000001"
    assert cert.valid_until == core.config.ec_lifetime_s
    # the certificate never carries the raw or hashed SUPI
    assert cert.subject_digest != supi.digest()

    with pytest.raises(EnrollmentError) as err:
        core.enroll_vehicle(supi, b"nonce-a", now=1.0)
    assert err.value.reason == "replayed_concealment"
    assert core.counters["enroll_denied_replayed_concealment"] == 1

    core.enroll_vehicle(supi, b"nonce-b", now=1.0)  # fresh nonce is fine
    assert core.counters["enrollments_ok"] == 2


def test_enroll_unknown_subscriber():
    core = ServiceBasedCore(seed=3)
    with pytest.raises(EnrollmentError) as err:
        core.enroll_vehicle(make_supi(), b"n", now=0.0)
    assert err.value.reason == "unknown_subscriber"


def test_ticket_ids_are_salted_hashes():
    core = ServiceBasedCore(seed=5, config=SbaConfig(at_lifetime_s=100.0, at_stagger_s=2.0))
    supi = make_supi()
    core.add_subscriber(supi)
    cert = core.enroll_vehicle(supi, b"n", now=0.0)
    batch = core.provision_ticket_batch(cert, 3, ("CAM",), now=10.0)

    for i, ticket in enumerate(batch):
        expected = hashlib.sha256(f"run-5:at:{i + 1}".encode()).hexdigest()[:16]
        assert ticket.at_id == expected
        assert ticket.valid_from == 10.0
        assert ticket.valid_until == 10.0 + 100.0 + i * 2.0
        assert core.aa._signer.verify(ticket.signed_payload(), ticket.issuer_signature)

    # half-open validity window
    t0 = batch[0]
    assert t0.is_valid_at(10.0)
    assert t0.is_valid_at(109.999)
    assert not t0.is_valid_at(110.0)
    assert not t0.is_valid_at(9.999)


def test_same_seed_same_tickets():
    def first_ids(seed):
        core = ServiceBasedCore(seed=seed)
        supi = make_supi()
        core.add_subscriber(supi)
        cert = core.enroll_vehicle(supi, b"n", now=0.0)
        return [t.at_id for t in core.provision_ticket_batch(cert, 4, ("CAM",), 0.0)]

    assert first_ids(9) == first_ids(9)
    assert first_ids(9) != first_ids(10)


def provisioned_batch(count=3):
    core = ServiceBasedCore(seed=5, config=SbaConfig(at_lifetime_s=100.0, at_stagger_s=2.0))
    supi = make_supi()
    core.add_subscriber(supi)
    cert = core.enroll_vehicle(supi, b"n", now=0.0)
    return core, core.provision_ticket_batch(cert, count, ("CAM", "DENM"), now=10.0)


def test_fresh_batch_makes_no_signature(ed25519_calls):
    core, batch = provisioned_batch(count=4)
    assert len(batch) == 4 and core.counters["tickets_issued"] == 4
    assert ed25519_calls["sign"] == 1  # the enrolment certificate
    assert ed25519_calls["verify"] == 1  # the certificate check still runs


def test_ticket_signed_once_on_first_read(ed25519_calls):
    core, batch = provisioned_batch()
    ed25519_calls.clear()
    signatures = []
    for ticket in batch:
        signature = ticket.issuer_signature
        assert ed25519_calls["sign"] == 1
        assert ticket.issuer_signature is signature
        assert ed25519_calls["sign"] == 1
        ed25519_calls.clear()
        payload = AuthorizationTicket.payload(
            ticket.at_id, ("CAM", "DENM"), ticket.valid_from, ticket.valid_until
        )
        assert signature == core.aa._signer.sign(payload)
        assert core.aa._signer.verify(payload, signature)
        signatures.append(signature)
    # each ticket signs its own payload
    assert len(set(signatures)) == len(batch)
    assert ed25519_calls["sign"] == 0


def test_equality_hash_repr_and_pools_never_sign(ed25519_calls):
    core, batch = provisioned_batch(count=4)
    ed25519_calls.clear()
    first = batch[0]
    assert first == first and first != batch[1]
    assert first == dataclasses.replace(first, signer=core.ea._signer)
    assert len({hash(t) for t in batch}) == len(batch)
    assert first in batch and first in set(batch)
    assert "signer" not in repr(first) and first.at_id in repr(first)

    pool = PseudonymPool(SELECTION_NO_REUSE, 2, 4, [AppScope.CAM])
    pool.add_batch(AppScope.CAM, batch)
    assert pool.valid_tickets(AppScope.CAM, 20.0) == batch
    pool.activate(AppScope.CAM, pool.select_next(AppScope.CAM, 20.0))
    pool.activate(AppScope.CAM, pool.select_next(AppScope.CAM, 20.0))
    assert pool.active[AppScope.CAM] == batch[1]
    assert pool.valid_count(AppScope.CAM, 20.0) == 3

    assert ed25519_calls["sign"] == 0
    assert all("issuer_signature" not in vars(t) for t in batch)


def test_provision_batch_denials():
    core = ServiceBasedCore(seed=7, config=SbaConfig(at_batch_cap=4))
    supi = make_supi()
    core.add_subscriber(supi)
    cert = core.enroll_vehicle(supi, b"n", now=0.0)

    forged = EnrollmentCertificate(
        ec_id=cert.ec_id,
        subject_digest="f" * 32,
        issued_at=cert.issued_at,
        valid_until=cert.valid_until,
        issuer_signature=cert.issuer_signature,
    )
    with pytest.raises(ProvisioningError) as err:
        core.provision_ticket_batch(forged, 1, ("CAM",), now=0.0)
    assert err.value.reason == "bad_certificate_signature"

    with pytest.raises(ProvisioningError) as err:
        core.provision_ticket_batch(cert, 1, ("CAM",), now=cert.valid_until)
    assert err.value.reason == "certificate_expired"

    with pytest.raises(ProvisioningError) as err:
        core.provision_ticket_batch(cert, 0, ("CAM",), now=1.0)
    assert err.value.reason == "invalid_count"

    with pytest.raises(ProvisioningError) as err:
        core.provision_ticket_batch(cert, 5, ("CAM",), now=1.0)
    assert err.value.reason == "batch_cap_exceeded"

    with pytest.raises(ProvisioningError) as err:
        core.provision_ticket_batch(cert, 1, (), now=1.0)
    assert err.value.reason == "empty_permissions"


def test_an_empty_open_scope_is_still_shared():
    with shared_credentials():
        memo = sba._ACTIVE_SCOPE.get()
        assert memo == {}
        # built while the memo is empty, both still take it, not a fresh one
        keystore, signer = HomeNetworkKeystore(seed=1), AsymmetricTokenSigner(b"s" * 32)
        assert keystore._scope is memo and signer._scope is memo
        keystore.create_key("hk-1")
        assert {key[0] for key in memo} == {"ed25519", "x25519"}


def test_shared_scope_never_serves_a_verification():
    with shared_credentials():
        first = ServiceBasedCore(seed=7)
        second = ServiceBasedCore(seed=7)  # same keys, so it signs from the scope
        supi = make_supi()
        certs = []
        for core in (first, second):
            core.add_subscriber(supi)
            cert = core.enroll_vehicle(supi, b"n", now=0.0)
            core.provision_ticket_batch(cert, 1, ("CAM",), now=0.0)  # verifies
            certs.append(cert)
        assert certs[0] == certs[1]

        cert = certs[0]
        tampered = [
            EnrollmentCertificate(cert.ec_id, "f" * 32, cert.issued_at,
                                  cert.valid_until, cert.issuer_signature),
            EnrollmentCertificate(cert.ec_id, cert.subject_digest, cert.issued_at,
                                  cert.valid_until, bytes(64)),
        ]
        for core in (first, second):
            for forged in tampered:
                with pytest.raises(ProvisioningError) as err:
                    core.provision_ticket_batch(forged, 1, ("CAM",), now=0.0)
                assert err.value.reason == "bad_certificate_signature"


def test_ea_token_cached_and_refreshed():
    core = ServiceBasedCore(seed=11, config=SbaConfig(token_ttl_s=50.0))
    supi = make_supi()
    core.add_subscriber(supi)
    cert = core.enroll_vehicle(supi, b"n", now=0.0)

    core.provision_ticket_batch(cert, 1, ("CAM",), now=0.0)
    core.provision_ticket_batch(cert, 1, ("CAM",), now=10.0)
    assert core.counters["tokens_issued"] == 1  # cached within ttl

    # at ttl the cached token is dead; facade refreshes before invoking
    core.provision_ticket_batch(cert, 1, ("CAM",), now=50.0)
    assert core.counters["tokens_issued"] == 2
    assert core.counters.get("service_reject_expired") is None


def test_provisioning_under_a_dead_ea_token_is_rejected():
    # token_ttl_s <= 0 never passes load_scenario; a core built with it
    # issues EA tokens that are dead at issue
    core = ServiceBasedCore(seed=11, config=SbaConfig(token_ttl_s=0.0))
    supi = make_supi()
    core.add_subscriber(supi)
    cert = core.enroll_vehicle(supi, b"n", now=0.0)
    with pytest.raises(ProvisioningError) as err:
        core.provision_ticket_batch(cert, 1, ("CAM",), now=0.0)
    assert (err.value.reason, err.value.detail) == ("service_rejected", "expired")
    assert core.counters == {"enrollments_ok": 1, "tokens_issued": 1,
                             "service_reject_expired": 1}


def test_v2x_token_flow_and_counters():
    core = ServiceBasedCore(seed=13)
    token = core.request_v2x_token(now=0.0)
    assert token.claims.subject == "amf-1"
    assert token.claims.additional_scope[0].resource == "v2x-sessions"

    assert core.invoke_v2x_service(token, now=1.0) is token
    # wire form accepted as well as the object form
    wire = token.serialize()
    assert core.invoke_v2x_service(wire, now=1.0) is wire
    assert core.counters["service_accepts"] == 2

    # a dead wire token is renewed like a dead object one
    late = core.config.token_ttl_s + 1.0
    renewed = core.invoke_v2x_service(wire, now=late)
    assert renewed.claims.expiration == late + core.config.token_ttl_s
    assert core.counters["service_reject_expired"] == 1
    assert core.counters["session_renewals"] == 1
