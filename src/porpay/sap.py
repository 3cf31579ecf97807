"""Statement agreement: two parties bind to a private statement through
matching hash commitments recorded on the ledger.

The initiating party commits to the statement under fresh randomness, posts
the commitment, and hands the opening to its counterparty out of band. The
counterparty re-commits under the same randomness iff the opening checks
out, leaving two equal commitments on the ledger. The session accepts each
commitment only from the address it names for that party, so its two
addresses are the commitments' attribution. From then on, anyone holding
the opening can verify the agreement against the session; the statement
itself never appears on the ledger until someone opens it.
"""

from __future__ import annotations

import random

from .crypto import Opening, commit, commit_verify, gen_commit_randomness
from .ledger import Address, Ledger, UnknownAddress, UnknownSession


class SapSession:
    """Ledger-hosted agreement session between one client and one server.

    It is deployed holding the client's commitment; ``sap_agree`` records
    the server's.
    """

    def __init__(self, addr_client: Address, addr_server: Address, g_client: bytes):
        self.addr_client = addr_client
        self.addr_server = addr_server
        self.g_client = g_client
        self.g_server: bytes | None = None


def sap_init(
    ledger: Ledger,
    addr_client: Address,
    addr_server: Address,
    statement: bytes,
    rng: random.Random,
) -> tuple[Opening, int]:
    """Deploy a session and post the client's commitment to ``statement``
    under fresh randomness.

    Returns (opening, session_id): the opening travels to the server out of
    band, and the commitment it opens is ``ledger.session(session_id).g_client``.
    """
    for addr in (addr_client, addr_server):
        if not ledger.has_address(addr):
            raise UnknownAddress(addr)
    opening = Opening(statement, gen_commit_randomness(rng))
    g_client = commit(statement, opening.randomness)
    session_id = ledger.register_session(SapSession(addr_client, addr_server, g_client))
    ledger.log_session_event("sap_commit_client", addr_client, g_client)
    return opening, session_id


def sap_agree(
    ledger: Ledger,
    opening: Opening,
    addr_client: Address,
    session_id: int,
    sender: Address,
) -> bool:
    """Server-side agreement step.

    Posts the matching commitment from ``sender`` iff the ledger holds the
    session, the session names ``addr_client`` as its client and ``sender``
    as its server, holds no server commitment yet, and ``opening`` opens the
    client commitment it records. The session id is the client's choice, so
    failure is returned as False, never raised.
    """
    try:
        session: SapSession = ledger.session(session_id)
    except UnknownSession:
        return False
    if (
        session.addr_client != addr_client
        or session.addr_server != sender
        or session.g_server is not None
        or not commit_verify(session.g_client, opening)
    ):
        return False
    session.g_server = commit(opening.statement, opening.randomness)
    ledger.log_session_event("sap_commit_server", sender, session.g_server)
    return True


def sap_verify(
    opening: Opening,
    addr_client: Address,
    addr_server: Address,
    session_id: int,
    ledger: Ledger,
) -> bool:
    """Verify an opening against both commitments the session records.

    True iff both commitments are recorded, the session names
    ``addr_client`` and ``addr_server`` (a commitment is recorded only from
    the address the session names for it), and the opening opens both.
    An id the ledger never registered is no agreement.
    """
    try:
        session: SapSession = ledger.session(session_id)
    except UnknownSession:
        return False
    if session.g_server is None:
        return False
    if session.addr_client != addr_client or session.addr_server != addr_server:
        return False
    return commit_verify(session.g_client, opening) and commit_verify(
        session.g_server, opening
    )
