"""Statement agreement: commit, agree, verify, and ledger-level privacy."""

import json
import random

import pytest

from porpay.crypto import Opening, commit, commit_verify
from porpay.ledger import Ledger, UnknownAddress, UnknownSession
from porpay.sap import sap_agree, sap_init, sap_verify


@pytest.fixture
def env():
    ledger = Ledger()
    client = ledger.create_account("client", 100)
    server = ledger.create_account("server", 100)
    return ledger, client, server


STATEMENT = b"the privately agreed statement"


class TestInit:
    def test_session_holds_client_commitment_only(self, env):
        ledger, client, server = env
        opening, sid = sap_init(ledger, client, server, STATEMENT, random.Random(0))
        session = ledger.session(sid)
        assert session.g_client == commit(STATEMENT, opening.randomness)
        assert session.g_server is None

    def test_returned_opening_opens_the_client_commitment(self, env):
        ledger, client, server = env
        opening, sid = sap_init(ledger, client, server, STATEMENT, random.Random(0))
        g_client = ledger.session(sid).g_client
        assert opening.statement == STATEMENT
        assert commit_verify(g_client, opening)
        assert not commit_verify(g_client, Opening(STATEMENT, bytes(16)))

    def test_fresh_randomness_gives_distinct_commitments(self, env):
        ledger, client, server = env
        rng = random.Random(0)
        _, sid1 = sap_init(ledger, client, server, STATEMENT, rng)
        _, sid2 = sap_init(ledger, client, server, STATEMENT, rng)
        assert ledger.session(sid1).g_client != ledger.session(sid2).g_client

    def test_randomness_length(self, env):
        ledger, client, server = env
        opening, _ = sap_init(ledger, client, server, STATEMENT, random.Random(0))
        assert len(opening.randomness) == 16

    def test_unknown_address(self, env):
        ledger, client, _ = env
        ghost = type(client)("ghost")
        with pytest.raises(UnknownAddress):
            sap_init(ledger, client, ghost, STATEMENT, random.Random(0))


class TestAgree:
    def test_honest_flow(self, env):
        ledger, client, server = env
        opening, sid = sap_init(ledger, client, server, STATEMENT, random.Random(0))
        assert sap_agree(ledger, opening, client, sid, server)
        assert ledger.session(sid).g_server == ledger.session(sid).g_client

    def test_tampered_statement_rejected(self, env):
        ledger, client, server = env
        opening, sid = sap_init(ledger, client, server, STATEMENT, random.Random(0))
        tampered = Opening(STATEMENT + b"!", opening.randomness)
        assert not sap_agree(ledger, tampered, client, sid, server)
        assert ledger.session(sid).g_server is None

    def test_wrong_attribution_rejected(self, env):
        ledger, client, server = env
        opening, sid = sap_init(ledger, client, server, STATEMENT, random.Random(0))
        assert not sap_agree(ledger, opening, server, sid, server)

    def test_session_of_another_server_rejected(self, env):
        ledger, client, server = env
        other = ledger.create_account("other", 0)
        opening, sid = sap_init(ledger, client, other, STATEMENT, random.Random(0))
        assert not sap_agree(ledger, opening, client, sid, server)
        assert ledger.session(sid).g_server is None

    def test_second_agreement_rejected(self, env):
        ledger, client, server = env
        opening, sid = sap_init(ledger, client, server, STATEMENT, random.Random(0))
        assert sap_agree(ledger, opening, client, sid, server)
        assert not sap_agree(ledger, opening, client, sid, server)
        assert ledger.session(sid).g_server == ledger.session(sid).g_client

    @pytest.mark.parametrize(
        "sid", [-1, 1, 2, pytest.param(False, id="bool"), pytest.param("0", id="str")]
    )
    def test_unknown_session_rejected(self, env, sid):
        # one session is registered, so only the int 0 names it
        ledger, client, server = env
        opening, _ = sap_init(ledger, client, server, STATEMENT, random.Random(0))
        with pytest.raises(UnknownSession):
            ledger.session(sid)
        assert not sap_agree(ledger, opening, client, sid, server)
        assert not sap_verify(opening, client, server, sid, ledger)


class TestVerify:
    def setup_session(self, env):
        ledger, client, server = env
        opening, sid = sap_init(ledger, client, server, STATEMENT, random.Random(0))
        sap_agree(ledger, opening, client, sid, server)
        return ledger, client, server, opening, sid

    def test_honest_opening_accepted(self, env):
        ledger, client, server, opening, sid = self.setup_session(env)
        assert sap_verify(opening, client, server, sid, ledger)

    def test_different_statement_rejected(self, env):
        ledger, client, server, opening, sid = self.setup_session(env)
        other = Opening(b"another", opening.randomness)
        assert not sap_verify(other, client, server, sid, ledger)

    def test_missing_server_commitment_rejected(self, env):
        ledger, client, server = env
        opening, sid = sap_init(ledger, client, server, STATEMENT, random.Random(0))
        assert not sap_verify(opening, client, server, sid, ledger)

    def test_swapped_addresses_rejected(self, env):
        ledger, client, server, opening, sid = self.setup_session(env)
        assert sap_verify(opening, client, server, sid, ledger)
        assert not sap_verify(opening, server, client, sid, ledger)
        assert not sap_verify(opening, client, client, sid, ledger)

    def test_binding_search(self, env):
        ledger, client, server, _, sid = self.setup_session(env)
        rng = random.Random(13)
        for _ in range(2**12):
            opening = Opening(rng.randbytes(12), rng.randbytes(16))
            assert not sap_verify(opening, client, server, sid, ledger)

    def test_verdict_fixed_after_agreement(self, env):
        # later ledger writes cannot change the outcome for a given opening
        ledger, client, server, opening, sid = self.setup_session(env)
        before = sap_verify(opening, client, server, sid, ledger)
        sap_init(ledger, client, server, b"unrelated statement", random.Random(9))
        ledger.create_account("bystander", 5)
        after = sap_verify(opening, client, server, sid, ledger)
        assert before == after == True  # noqa: E712


class TestPrivacy:
    def test_statement_bytes_absent_from_ledger_state(self, env):
        ledger, client, server = env
        rng = random.Random(3)
        secret = rng.randbytes(48)  # high-entropy statement
        opening, sid = sap_init(ledger, client, server, secret, rng)
        assert sap_agree(ledger, opening, client, sid, server)
        # what the ledger keeps of an agreement: its trace and two commitments
        session = ledger.session(sid)
        assert session.g_client == session.g_server
        trace = json.dumps(ledger.export_trace()).encode()
        state = trace + session.g_client + session.g_server
        for hidden in (secret, opening.randomness):
            assert hidden not in state
            assert hidden.hex().encode() not in state
