"""Seeded crawls pinned by the frozen digests in ``crawl.json``.

Every case builds the same small network (``WorkloadConfig().small()``
with 150 clients, 2,000 files and a mainstream pool of 80; 3 servers),
crawls it for 6 days with a browse budget falling from 400 to 300, and
reduces the result to four digests:

- ``trace``: every day's snapshots and the file and client metadata the
  crawler recorded;
- ``stats``: ``CrawlStats``, ``MessageStats`` and ``FaultStats``;
- ``index``: each server's canonical index (sessions with their files
  in publish order, sources, descriptions, keyword buckets, nickname
  trigrams), the down servers, and the server each client points at;
- ``invariants``: the list ``Network.check_invariants()`` returns.  It
  is pinned, not asserted empty: a lossy run may end with sessions a
  timed-out connect left behind.

The fault configs are crossed with no retries and with a
``RetryPolicy``.
"""

from __future__ import annotations

import dataclasses
import json
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict

from repro.edonkey.crawler import Crawler, CrawlerConfig
from repro.edonkey.network import Network, NetworkConfig, build_network
from repro.faults import FaultConfig, FaultSchedule, FaultWindow, RetryPolicy
from repro.workload.config import WorkloadConfig
from tests.golden.cases import digest

CRAWL_GOLDEN_PATH = Path(__file__).with_name("crawl.json")

SEED = 11
DAYS = 6
RETRIES = {"no-retry": None, "retry": RetryPolicy(max_retries=2)}


def _workload() -> WorkloadConfig:
    return dataclasses.replace(
        WorkloadConfig().small(),
        num_clients=150,
        num_files=2000,
        mainstream_pool_size=80,
    )


def _schedule() -> FaultSchedule:
    return FaultSchedule(
        windows=(
            FaultWindow(start=1, end=3, overrides={"loss_rate": 0.15}),
            FaultWindow(
                start=2,
                end=5,
                overrides={"server_crash_day": 2, "server_crash_id": 2},
            ),
            FaultWindow(start=4, overrides={"peer_downtime": 0.1}),
        )
    )


#: Network config of each case family, by name.
CONFIGS: Dict[str, Callable[[], NetworkConfig]] = {
    "faults-off": lambda: NetworkConfig(),
    "lossy": lambda: NetworkConfig(
        faults=FaultConfig(loss_rate=0.1, slow_rate=0.05, malformed_rate=0.05)
    ),
    "downtime-crash": lambda: NetworkConfig(
        faults=FaultConfig(
            peer_downtime=0.1,
            server_crash_day=2,
            server_crash_id=1,
            server_downtime_days=2,
        )
    ),
    "schedule": lambda: NetworkConfig(fault_schedule=_schedule()),
    "semantic": lambda: NetworkConfig(semantic_clients=True),
}

CASES = tuple(f"{config}/{retry}" for config in CONFIGS for retry in RETRIES)


def run_case(name: str):
    """Build and crawl case ``name``; returns ``(network, crawler, trace)``."""
    config_name, retry_name = name.split("/")
    config = dataclasses.replace(CONFIGS[config_name](), workload=_workload())
    network = build_network(config, seed=SEED)
    crawler = Crawler(
        network,
        CrawlerConfig(
            days=DAYS,
            browse_budget_start=400,
            browse_budget_end=300,
            retry=RETRIES[retry_name],
        ),
        seed=SEED,
    )
    trace = crawler.crawl()
    return network, crawler, trace


def server_index(server) -> dict:
    """A server's index, independent of dict and set iteration order
    except where order is served: a session's files, in publish order."""
    return {
        "sessions": [
            [
                client_id,
                session.nickname,
                session.firewalled,
                [[file_id, desc] for file_id, desc in session.files.items()],
            ]
            for client_id, session in sorted(server._sessions.items())
        ],
        "sources": server._sources,
        "descriptions": server._descriptions,
        "keywords": server._keywords,
        "trigrams": server._nick_trigrams,
        "known_servers": server.known_servers,
    }


def network_index(network: Network) -> dict:
    return {
        "servers": {sid: server_index(s) for sid, s in network.servers.items()},
        "down_servers": network.down_servers,
        # The digests were recorded with the network's offline set
        # (session churn, since deleted), empty in every remaining case.
        "offline": [],
        "client_servers": {
            cid: client.server_id for cid, client in network.clients.items()
        },
    }


def trace_payload(trace) -> dict:
    return {
        "days": {day: trace.snapshots_on(day) for day in trace.days()},
        "files": trace.files,
        "clients": trace.clients,
    }


def digests(name: str) -> Dict[str, object]:
    network, crawler, trace = run_case(name)
    problems = network.check_invariants()
    return {
        "snapshots": trace.num_snapshots,
        "trace": digest(trace_payload(trace)),
        "stats": digest(
            {
                "crawl": crawler.stats,
                "messages": network.stats.sent,
                "faults": network.faults.stats,
            }
        ),
        "index": digest(network_index(network)),
        "problems": len(problems),
        "invariants": digest(problems),
    }


@lru_cache(maxsize=None)
def golden() -> Dict[str, Dict[str, object]]:
    return json.loads(CRAWL_GOLDEN_PATH.read_text())["digests"]
