"""E20 — the multi-tenant serving layer.

This PR puts a long-running asyncio HTTP/JSON service in front of the
reasoning session: named tenants, per-tick request coalescing, and a
structural-hash LRU that lets identical tenants share one set of
compiled indexes copy-on-write.  Acceptance criteria, asserted against
real code in the same process:

* coalesced dispatch of the concurrent read-heavy phase must be
  **>=2x** faster than per-request dispatch of the identical request
  stream (same warm session, same targets, same verdicts);
* two structurally identical tenants must report **one shared
  compile**: the second adopts the first's artifacts (one artifact-LRU
  hit) and answers the whole target pool without recompiling.
"""

import asyncio

import pytest

from floor_workloads import serving_mixed, serving_workload
from repro.engine import ReasoningSession
from repro.serve import Coalescer, TenantRegistry


@pytest.mark.artifact("serving-coalescing")
def test_coalescing_beats_per_request_dispatch_2x():
    """Acceptance criterion: the recorded read-heavy phase, measured
    live — coalesced vs per-request dispatch on identical traffic."""
    meta = serving_mixed(repeats=3)
    assert meta["speedup_read_heavy"] >= 2.0, (
        f"coalescing must be >=2x per-request dispatch, got "
        f"{meta['speedup_read_heavy']:.2f}x "
        f"(direct {meta['direct_seconds']*1e3:.2f}ms vs coalesced "
        f"{meta['coalesced_seconds']*1e3:.2f}ms)"
    )
    # The mechanism, not just the clock: most requests were answered
    # from another request's decision.
    assert meta["read_deduplicated"] > meta["read_unique_decides"]
    assert meta["p50_ms"] <= meta["p95_ms"] <= meta["p99_ms"]


@pytest.mark.artifact("serving-coalescing")
def test_coalesced_verdicts_match_sequential():
    """Same traffic through the coalescer and via direct calls must
    produce identical verdicts (the speedup changes dispatch, never
    answers)."""
    schema, premises, pool = serving_workload()
    texts = [str(target) for target in pool]
    session = ReasoningSession(schema, premises)
    sequential = [session.implies(text).verdict for text in texts]

    async def coalesced():
        coalescer = Coalescer(session)
        answers = await asyncio.gather(
            *(coalescer.submit(text) for text in texts)
        )
        return [answer.verdict for answer in answers], coalescer

    verdicts, coalescer = asyncio.run(coalesced())
    assert verdicts == sequential
    assert coalescer.batches == 1  # one tick, one pass over the index


@pytest.mark.artifact("serving-lru")
def test_identical_tenants_share_one_compile():
    """Acceptance criterion: the second structurally identical tenant
    adopts the first's compiled artifacts — one LRU hit, zero new
    reach-index compiles for the whole pool."""
    schema, premises, pool = serving_workload()
    registry = TenantRegistry()
    first = registry.create("a", schema, premises)
    warm = first.session.implies_all(pool)
    compiles = first.session.index.reach_index.compiles
    assert compiles > 0

    second = registry.create("b", schema, premises)
    assert second.shared_artifacts
    assert registry.artifacts.stats()["hits"] == 1
    adopted = second.session.implies_all(pool)
    assert [a.verdict for a in adopted] == [a.verdict for a in warm]
    assert second.session.index.reach_index.compiles == compiles, (
        "the adoptee must serve the pool from the shared compile"
    )


@pytest.mark.artifact("serving-coalescing")
def test_timed_coalesced_read_phase(benchmark):
    """Timed artifact: one coalesced concurrent read burst."""
    schema, premises, pool = serving_workload()
    texts = [str(target) for target in pool]
    session = ReasoningSession(schema, premises)
    session.implies_all(pool)

    def burst():
        async def main():
            coalescer = Coalescer(session)

            async def client(offset):
                for i in range(10):
                    await coalescer.submit(texts[(offset + i) % len(texts)])

            await asyncio.gather(*(client(c) for c in range(16)))

        asyncio.run(main())

    benchmark(burst)
