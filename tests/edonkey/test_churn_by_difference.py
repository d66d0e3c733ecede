"""``Network.advance_day`` applies each sharer's churn by difference.

Every test builds two SMALL networks from one seed: the one under test,
and a twin whose day advance re-syncs every churned cache in full with
``_sync_client_cache``.  After each day the two must agree on every
client's cache (keys in order), on every session's published files, and
on each description being its own network's one object for that file.
"""

import pytest

from repro.edonkey.network import NetworkConfig, build_network
from repro.faults import FaultConfig
from repro.runtime.scale import Scale, workload_config

SEED = 5
DAYS = 4

CONFIGS = {
    "faults-off": {},
    "server-crash": {
        "faults": FaultConfig(server_crash_day=1, server_downtime_days=2),
    },
}


def _twins(**options):
    config = NetworkConfig(workload=workload_config(Scale.SMALL), **options)
    network = build_network(config, seed=SEED)
    full = build_network(config, seed=SEED)
    full._apply_churn = lambda client, _before, after: (
        full._sync_client_cache(client, after)
    )
    return network, full


def _record_full_syncs(network):
    """Client ids ``network`` syncs in full, in call order."""
    synced = []
    sync = network._sync_client_cache

    def recording(client, indices):
        synced.append(client.client_id)
        sync(client, indices)

    network._sync_client_cache = recording
    return synced


def _one_object_per_file(network):
    return {desc.file_id: desc for desc in network._descriptions.values()}


def assert_same_state(network, full):
    assert network.check_invariants() == []
    assert full.check_invariants() == []
    objects = _one_object_per_file(network)
    full_objects = _one_object_per_file(full)
    for client_id, client in network.clients.items():
        twin = full.clients[client_id]
        assert list(client.cache) == list(twin.cache), client_id
        assert client.server_id == twin.server_id
        for file_id, shared in client.cache.items():
            other = twin.cache[file_id]
            assert shared.description is objects[file_id]
            assert other.description is full_objects[file_id]
            assert shared.description == other.description
            assert shared.blocks_present == other.blocks_present
    for server_id, server in network.servers.items():
        sessions = full.servers[server_id]._sessions
        assert list(server._sessions) == list(sessions)
        for client_id, session in server._sessions.items():
            files = sessions[client_id].files
            assert list(session.files) == list(files), client_id
            assert list(session.files.values()) == list(files.values())
            for file_id, desc in session.files.items():
                assert desc is objects[file_id]


@pytest.mark.parametrize("options", CONFIGS.values(), ids=list(CONFIGS))
def test_every_day_matches_a_full_sync(options):
    network, full = _twins(**options)
    synced = _record_full_syncs(network)
    assert_same_state(network, full)
    changed = 0
    for _ in range(DAYS):
        before = {cid: list(c.cache) for cid, c in network.clients.items()}
        network.advance_day()
        full.advance_day()
        assert_same_state(network, full)
        changed += sum(
            1 for cid, c in network.clients.items() if list(c.cache) != before[cid]
        )
    # No cache was touched outside the network, so none needed the full
    # sync, and churn did move files.
    assert synced == []
    assert changed > 0
    if "faults" in options:
        assert network.faults.stats.server_crashes == 1
        assert network.faults.stats.clients_reassigned > 0


def _download_pair(network):
    """(downloader, source, index): two connected sharers, the
    source reachable, and a file index only the source caches."""
    caches = network._caches
    sharers = sorted(
        cid
        for cid, indices in caches.items()
        if indices and network.clients[cid].server_id is not None
    )
    for source_id in sharers:
        if network.clients[source_id].config.firewalled:
            continue
        for client_id in sharers:
            extra = sorted(caches[source_id] - caches[client_id])
            if client_id != source_id and extra:
                return client_id, source_id, extra[0]
    raise AssertionError("no download pair on this network")


def test_a_downloaded_file_takes_the_full_sync():
    network, full = _twins()
    network.advance_day()
    full.advance_day()
    client_id, source_id, index = _download_pair(network)
    for net in (network, full):
        desc = net._descriptions[index]
        assert net.clients[client_id].download(net, desc, sources=[source_id])
        assert desc.file_id in net.clients[client_id].cache
    synced = _record_full_syncs(network)
    network.advance_day()
    full.advance_day()
    assert synced == [client_id]
    assert_same_state(network, full)
    # The next day the cache is as the network left it again.
    del synced[:]
    network.advance_day()
    full.advance_day()
    assert synced == []
    assert_same_state(network, full)
