"""The eDonkey client.

Second-tier node: shares a cache of files, publishes it to a server on
connect, answers browse requests (unless the user disabled browsing),
answers block requests, and downloads files block-by-block from multiple
sources with MD4 verification and *partial sharing* — a file is published as
soon as one block has been downloaded and verified (Section 2.1).

Block contents are not materialized; a block's checksum is derived from
``(file_id, block_index)`` with the same MD4 primitive on both sides, which
preserves the verify/corrupt/retry control flow without storing gigabytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.edonkey.hashing import num_blocks
from repro.edonkey.md4 import md4_digest
from repro.edonkey.messages import (
    BlockReply,
    BlockRequest,
    BrowseReply,
    BrowseRequest,
    CallbackRequest,
    ConnectRequest,
    FileDescription,
    FileStatusReply,
    FileStatusRequest,
    PublishFiles,
    Query,
    QuerySources,
    SearchRequest,
)


def block_checksum(file_id: str, block_index: int) -> bytes:
    """The simulated content checksum of one block."""
    return md4_digest(f"{file_id}:{block_index}".encode("utf-8"))


@dataclass
class SharedFile:
    """A (possibly partial) file in a client's cache."""

    description: FileDescription
    blocks_present: List[bool]

    @classmethod
    def complete(cls, description: FileDescription) -> "SharedFile":
        n = num_blocks(description.size)
        return cls(description=description, blocks_present=[True] * n)

    @classmethod
    def empty(cls, description: FileDescription) -> "SharedFile":
        n = num_blocks(description.size)
        return cls(description=description, blocks_present=[False] * n)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks_present)

    @property
    def is_complete(self) -> bool:
        return all(self.blocks_present)

    @property
    def is_shareable(self) -> bool:
        """Shared as soon as at least one block is verified."""
        return any(self.blocks_present)

    def missing_blocks(self) -> List[int]:
        return [i for i, present in enumerate(self.blocks_present) if not present]


@dataclass
class ClientConfig:
    """Client behaviour flags.

    ``firewalled`` models low-ID clients: inbound connections fail (the
    crawler cannot browse them).  ``browseable`` models the user-visible
    "allow others to view my shared files" switch.  ``corrupts_uploads``
    marks a malicious/broken source used to exercise corruption detection.
    """

    firewalled: bool = False
    browseable: bool = True
    corrupts_uploads: bool = False


class Client:
    """An eDonkey client node."""

    def __init__(
        self,
        client_id: int,
        nickname: str,
        config: Optional[ClientConfig] = None,
    ) -> None:
        self.client_id = client_id
        self.nickname = nickname
        self.config = config or ClientConfig()
        self.cache: Dict[str, SharedFile] = {}
        self.server_id: Optional[int] = None
        self.known_servers: Set[int] = set()
        self.download_failures = 0
        self.corruptions_detected = 0

    # ------------------------------------------------------------------
    # Cache management

    def share(self, description: FileDescription) -> None:
        """Add a complete file to the cache."""
        self.cache[description.file_id] = SharedFile.complete(description)

    def unshare(self, file_id: str) -> None:
        self.cache.pop(file_id, None)

    def shared_descriptions(self) -> List[FileDescription]:
        """Descriptions of shareable files (>= 1 verified block)."""
        return [
            shared.description
            for shared in self.cache.values()
            if True in shared.blocks_present
        ]

    def shared_file_ids(self) -> Set[str]:
        return {
            fid for fid, shared in self.cache.items() if shared.is_shareable
        }

    # ------------------------------------------------------------------
    # Server interaction

    def connect(self, transport, server_id: int) -> bool:
        """Connect to a server, publish the cache, learn the server list.

        ``transport`` is anything exposing the ``to_server`` /
        ``to_client`` / ``callback_to_client`` trio of the simulated
        :class:`~repro.edonkey.network.Network`.
        """
        reply = transport.to_server(
            server_id,
            ConnectRequest(
                client_id=self.client_id,
                nickname=self.nickname,
                firewalled=self.config.firewalled,
            ),
        )
        if reply is None or not reply.accepted:
            # None: the connect was lost in flight or the server is down.
            return False
        self.server_id = server_id
        self.known_servers.update(reply.server_list)
        self.publish(transport)
        return True

    def publish(self, transport) -> None:
        """(Re-)publish the current cache to the connected server."""
        if self.server_id is None:
            raise RuntimeError("publish before connect")
        transport.to_server(
            self.server_id,
            PublishFiles(
                client_id=self.client_id, files=self.shared_descriptions()
            ),
        )

    def find_sources(self, transport, file_id: str) -> List[int]:
        if self.server_id is None:
            raise RuntimeError("source query before connect")
        reply = transport.to_server(
            self.server_id, QuerySources(client_id=self.client_id, file_id=file_id)
        )
        if reply is None:
            return []
        return [s for s in reply.sources if s != self.client_id]

    def search(self, transport, query: Query, limit: int = 200) -> List[FileDescription]:
        """Keyword/range search on the connected server (TCP)."""
        if self.server_id is None:
            raise RuntimeError("search before connect")
        reply = transport.to_server(
            self.server_id,
            SearchRequest(client_id=self.client_id, query=query, limit=limit),
        )
        if reply is None:
            return []
        return list(reply.results)

    def _request_callback(self, transport, source_id: int) -> bool:
        """Ask known servers to force firewalled ``source_id`` to connect
        back; True if some server has it as a session.

        Two firewalled peers cannot reach each other at all: the callback
        connection must land on the *requester*, so a firewalled requester
        cannot use this channel."""
        if self.config.firewalled:
            return False
        for server_id in sorted(self.known_servers):
            granted = transport.to_server(
                server_id,
                CallbackRequest(
                    requester_id=self.client_id, target_id=source_id
                ),
            )
            if granted:
                return True
        return False

    def _send_to_source(self, transport, source_id: int, message, callbacks: set):
        """Send a client-to-client message, using the server-mediated
        callback channel for firewalled sources that granted one."""
        if source_id in callbacks:
            return transport.callback_to_client(source_id, message)
        reply = transport.to_client(source_id, message)
        if reply is not None:
            return reply
        # Direct connection failed (firewalled?): try the callback route.
        if self._request_callback(transport, source_id):
            callbacks.add(source_id)
            return transport.callback_to_client(source_id, message)
        return None

    # ------------------------------------------------------------------
    # Client-to-client handlers (invoked via the network router)

    def handle_browse(self, _msg: BrowseRequest) -> BrowseReply:
        if not self.config.browseable:
            return BrowseReply(allowed=False)
        return BrowseReply(allowed=True, files=self.shared_descriptions())

    def handle_file_status(self, msg: FileStatusRequest) -> FileStatusReply:
        shared = self.cache.get(msg.file_id)
        if shared is None or not shared.is_shareable:
            return FileStatusReply(available=False)
        return FileStatusReply(available=True, blocks=list(shared.blocks_present))

    def handle_block_request(self, msg: BlockRequest) -> BlockReply:
        shared = self.cache.get(msg.file_id)
        if shared is None:
            return BlockReply(ok=False)
        if not 0 <= msg.block_index < shared.num_blocks:
            return BlockReply(ok=False)
        if not shared.blocks_present[msg.block_index]:
            return BlockReply(ok=False)
        checksum = block_checksum(msg.file_id, msg.block_index)
        if self.config.corrupts_uploads:
            checksum = bytes(b ^ 0xFF for b in checksum)
        return BlockReply(ok=True, checksum=checksum)

    # ------------------------------------------------------------------
    # Downloading

    def download(
        self,
        transport,
        description: FileDescription,
        sources: Optional[List[int]] = None,
        republish: bool = True,
    ) -> bool:
        """Download a file, verifying every block; returns True on success.

        Sources are tried round-robin per block; a corrupted block is
        detected via its checksum and re-fetched from the next source.
        Partial progress is kept (and shared) even if the download stalls.
        """
        if sources is None:
            sources = self.find_sources(transport, description.file_id)
        if not sources:
            self.download_failures += 1
            return False

        shared = self.cache.get(description.file_id)
        if shared is None or not shared.blocks_present:
            shared = SharedFile.empty(description)
            self.cache[description.file_id] = shared

        callbacks: set = set()
        for block_index in shared.missing_blocks():
            fetched = False
            for source_id in sources:
                status = self._send_to_source(
                    transport,
                    source_id,
                    FileStatusRequest(file_id=description.file_id),
                    callbacks,
                )
                if status is None or not status.available:
                    continue
                if block_index >= len(status.blocks) or not status.blocks[block_index]:
                    continue
                reply = self._send_to_source(
                    transport,
                    source_id,
                    BlockRequest(
                        file_id=description.file_id, block_index=block_index
                    ),
                    callbacks,
                )
                if reply is None or not reply.ok:
                    continue
                expected = block_checksum(description.file_id, block_index)
                if reply.checksum != expected:
                    self.corruptions_detected += 1
                    continue
                shared.blocks_present[block_index] = True
                fetched = True
                break
            if not fetched:
                self.download_failures += 1
                if republish and self.server_id is not None and shared.is_shareable:
                    self.publish(transport)
                return False

        if republish and self.server_id is not None:
            self.publish(transport)
        return True
