"""Remote shard backend: workers that dial peers instead of forking.

:func:`stream_fabric` is the coordinator side of distributed serving.
It plans the corpus into one shard per peer (:func:`plan_peer_shards`)
and hands the plan to the *unchanged* :func:`~repro.serve.stream.
stream_shards` supervisor — but the :class:`~repro.serve.worker.
WorkerSpec` it builds carries ``peers``, so each worker process, rather
than rebuilding a local service, dials one of the listed ``repro
serve`` daemons (:func:`relay_shard`) and forwards the streamed
:class:`~repro.serve.protocol.FileResult` frames onto the supervisor
queue verbatim.

The relay translates *peer* failure into *worker* failure: a peer
that drops mid-stream or goes silent past the client timeout makes
the relay process exit nonzero without an ``("error", ...)`` message
— to the supervisor that is indistinguishable from a local worker
SIGKILL, so the whole PR-9 machinery (requeue onto a careful respawn,
bounded retries, per-file quarantine) applies unchanged.  Dialing
rotates: a shard starts at slot ``sid % len(peers)`` and a refused
connection moves to the next peer (:func:`_dial`), so losing one
daemon re-routes its files onto the survivors — at dial time
immediately, mid-stream via the supervisor's requeue respawning a
relay that then rotates past the corpse.  Only a fleet with *no*
reachable peer raises, which ``worker_main`` reports as a soft error:
when nobody answers, retrying is noise and the run must abort.

Results are byte-identical to the in-process path at every peer count:
peers serve byte-identically (the PR-5 invariant), and the relay never
touches a payload.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterator
from dataclasses import replace

from repro.client import ClientError, RetryPolicy, connect
from repro.serve import faults, protocol
from repro.serve.pipeline import ServeConfig, revive_for
from repro.serve.plan import plan_peer_shards
from repro.serve.stream import merge_results, stream_shards
from repro.serve.worker import WorkerSpec

#: connect attempts per relay incarnation — kept small because the
#: supervisor's retry/requeue loop is the real (per-lineage) budget
_RELAY_ATTEMPTS = 3


def _dial(spec: WorkerSpec, sid: int, *, client_id: str):
    """Connect to the first reachable peer, starting at ``sid``'s slot.

    Rotation is what turns a dead peer into a failover instead of a
    quarantine: the shard's home slot is ``sid % len(peers)``, and a
    refused connection moves one slot over rather than killing the
    relay — so a fleet keeps serving as long as *any* peer answers.
    Raises when none does; ``worker_main`` reports that as a soft
    error that aborts the run, because requeuing cannot conjure a
    reachable daemon.  Returns ``(client, bundle_name)`` with the
    bundle aligned to the peer that actually answered.
    """
    last_exc: Exception | None = None
    for attempt in range(len(spec.peers)):
        slot = (sid + attempt) % len(spec.peers)
        bundle = spec.peer_bundles[slot] if spec.peer_bundles else None
        try:
            client = connect(
                spec.peers[slot], timeout=spec.peer_timeout_s,
                retry=RetryPolicy(max_attempts=_RELAY_ATTEMPTS,
                                  seed=sid),
                client_id=client_id)
            return client, bundle
        except (ClientError, OSError) as exc:
            last_exc = exc
    raise ClientError(
        f"no reachable peer among {list(spec.peers)}: {last_exc}",
        code="no-peers")


def _request_for(spec: WorkerSpec, items,
                 bundle: str | None) -> protocol.SuggestRequest:
    return protocol.request_for(
        spec.mode, verify=spec.verify, bundle=bundle, ordered=False,
        sources=tuple((str(name), source) for name, source in items))


def _die(queue) -> None:
    """Exit as a *hard* worker death.

    Flushes messages already handed to the queue (delivered files must
    not be lost with the process), then exits without touching python
    exception handling — ``worker_main`` must not see this as a soft
    error, because a soft error aborts the whole run while a hard
    death is requeued.
    """
    try:
        queue.close()
        queue.join_thread()
    except Exception:
        pass
    os._exit(1)


def relay_shard(spec: WorkerSpec, shard, queue, heartbeat, *,
                careful: bool = False) -> None:
    """Worker-process body for a remote shard: dial, stream, forward.

    Speaks the exact queue contract of a local worker — ``file`` /
    ``claim`` / ``done`` messages plus the heartbeat ``worker_main``
    already started — so the supervisor cannot tell a peer relay from
    a forked pipeline.  Careful mode issues one request per file with
    a claim ahead of each, preserving per-file blame across the wire.
    """
    client, bundle = _dial(spec, shard.sid,
                           client_id=f"repro.fabric/shard{shard.sid}")
    files_done = 0

    def _emit(local_index: int, name: str, payload: dict) -> None:
        nonlocal files_done
        action = faults.on_worker_file(shard.sid, files_done, name)
        if action == "hang":
            heartbeat.stop()
            time.sleep(faults.HANG_S)
        elif action == "kill":
            queue.close()
            queue.join_thread()
            faults.kill_self()
        queue.put(("file", shard.sid, shard.indices[local_index],
                   name, payload))
        files_done += 1

    try:
        if careful:
            for local_index in range(len(shard.items)):
                queue.put(("claim", shard.sid,
                           shard.indices[local_index]))
                request = _request_for(
                    spec, [shard.items[local_index]], bundle)
                for frame in client.stream_request(request):
                    _emit(local_index, frame.name, frame.payload)
        else:
            request = _request_for(spec, shard.items, bundle)
            for frame in client.stream_request(request):
                _emit(frame.index, frame.name, frame.payload)
        queue.put(("done", shard.sid, {}))
    except (ClientError, OSError):
        _die(queue)
    finally:
        try:
            client.close()
        except Exception:
            pass


def iter_inline(spec: WorkerSpec, named_sources,
                revive) -> Iterator[tuple[int, object]]:
    """Process-free fallback: relay the whole corpus through one peer.

    Used when worker processes cannot spawn at all — remote shards do
    not need local processes to parallelize (the peers compute), so
    the sandboxed coordinator still serves, just without local fan-out.
    """
    client, bundle = _dial(spec, 0, client_id="repro.fabric/inline")
    try:
        request = _request_for(spec, list(named_sources), bundle)
        for frame in client.stream_request(request):
            yield frame.index, revive(frame.name, frame.payload)
    finally:
        client.close()


def stream_fabric(
    peers, named_sources, *, mode: str = "suggest", verify: bool = True,
    peer_bundles=(), ordered: bool = True,
    config: ServeConfig | None = None, timeout_s: float = 600.0,
) -> Iterator:
    """Fan ``(name, source)`` pairs out across remote peer daemons.

    Yields :class:`~repro.serve.pipeline.FileSuggestions` (or
    :class:`~repro.rewrite.FileRewrite` in ``mode="rewrite"``) exactly
    as the in-process ``stream_sources`` would — byte-identical
    results, same ordered / as-completed semantics — with the compute
    happening on the peers and peer loss handled by requeue.
    ``peer_bundles`` (from :func:`~repro.fabric.cas.provision_peers`)
    names the bundle each peer serves; empty means every peer's
    default.  ``config`` supplies the supervision knobs
    (``max_retries``, ``heartbeat_s``, ``retry_backoff_s``).
    """
    peers = tuple(peers)
    if not peers:
        raise ValueError("stream_fabric needs at least one peer")
    peer_bundles = tuple(peer_bundles)
    if peer_bundles and len(peer_bundles) != len(peers):
        raise ValueError("peer_bundles must align with peers")
    config = config if config is not None else ServeConfig()
    spec = WorkerSpec(config=replace(config, shards=1, workers=1),
                      mode=mode, verify=verify, peers=peers,
                      peer_bundles=peer_bundles,
                      peer_timeout_s=timeout_s)
    named = [(str(name), source) for name, source in named_sources]
    n_shards = plan_peer_shards(len(peers), named)
    return merge_results(
        stream_shards(spec, named, n_shards, revive=revive_for(mode)),
        ordered=ordered)
