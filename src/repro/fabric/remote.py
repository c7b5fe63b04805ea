"""Remote shard backend: coordinator threads that stream shards from peers.

:func:`stream_fabric` is the coordinator side of distributed serving.
It serves each distinct file content once, plans the distinct files
into one shard per peer (:func:`plan_peer_shards`), and hands the plan
to the :func:`~repro.serve.stream.stream_shards` supervisor with a
starter that runs each shard as a thread of this process
(:class:`_PeerShard`) instead of a forked worker.  The thread dials one
of the listed ``repro serve`` daemons and posts the streamed
:class:`~repro.serve.protocol.FileResult` payloads onto the supervisor
queue as the same ``claim`` / ``file`` / ``done`` messages a local
worker posts.

A peer that drops mid-stream or stays silent past ``timeout_s`` ends
its thread without ``done`` — to the supervisor that is a hard worker
death, so requeue onto a careful respawn, bounded retries and per-file
quarantine apply unchanged.  Dialing rotates: a shard starts at slot
``sid % len(peers)`` and a refused connection moves to the next peer
(:func:`_dial`), so losing one daemon re-routes its files onto the
survivors — at dial time immediately, mid-stream via the supervisor's
requeue starting a new thread that rotates past the corpse.  Only a
fleet with *no* reachable peer posts an ``error``, which aborts the
run: when nobody answers, retrying is noise.

Results are byte-identical to the in-process path at every peer count:
peers serve byte-identically (the daemon's invariant), and the
coordinator never touches a payload.
"""

from __future__ import annotations

import threading
import traceback
from collections.abc import Iterator
from functools import partial

from repro.client import ClientError, RetryPolicy, connect
from repro.serve import protocol
from repro.serve.pipeline import (
    ServeConfig,
    _distinct_contents,
    _fan_out,
    revive_for,
)
from repro.serve.plan import plan_peer_shards
from repro.serve.stream import merge_results, stream_shards
from repro.serve.worker import WorkerSpec

#: connect attempts per shard thread — kept small because the
#: supervisor's retry/requeue loop is the real (per-lineage) budget
_DIAL_ATTEMPTS = 3


def _dial(peers, bundles, sid: int, *, timeout_s: float):
    """Connect to the first reachable peer, starting at ``sid``'s slot.

    Rotation is what turns a dead peer into a failover instead of a
    quarantine: the shard's home slot is ``sid % len(peers)``, and a
    refused connection moves one slot over rather than ending the
    shard — so a fleet keeps serving as long as *any* peer answers.
    Raises ``ClientError`` (code ``no-peers``) when none does.
    Returns ``(client, bundle_name)`` with the bundle aligned to the
    peer that actually answered.
    """
    last_exc: Exception | None = None
    for attempt in range(len(peers)):
        slot = (sid + attempt) % len(peers)
        try:
            client = connect(
                peers[slot], timeout=timeout_s,
                retry=RetryPolicy(max_attempts=_DIAL_ATTEMPTS, seed=sid),
                client_id=f"repro.fabric/shard{sid}")
            return client, bundles[slot] if bundles else None
        except (ClientError, OSError) as exc:
            last_exc = exc
    raise ClientError(
        f"no reachable peer among {list(peers)}: {last_exc}",
        code="no-peers")


class _PeerShard:
    """One shard streamed from a peer by a thread of the coordinator.

    Process-shaped for the supervisor (``exitcode``, ``join``,
    ``terminate``) and speaks a local worker's queue contract.
    Careful mode issues one request per file with a claim ahead of
    each, preserving per-file blame across the wire.  ``beats`` is
    false: a peer computing silently is not hung, and the client's
    socket timeout already bounds its silence.
    """

    beats = False

    def __init__(self, spec: WorkerSpec, peers, bundles, timeout_s: float,
                 shard, queue, careful: bool) -> None:
        self._client = None
        self._stopped = False
        self._code = 1          # a thread that never posts done died
        self._thread = threading.Thread(
            target=self._run, daemon=True,
            args=(spec, peers, bundles, timeout_s, shard, queue, careful),
            name=f"repro.fabric/shard{shard.sid}")
        self._thread.start()

    @property
    def exitcode(self) -> int | None:
        return None if self._thread.is_alive() else self._code

    def join(self, timeout: float | None = None) -> None:
        self._thread.join(timeout)

    def terminate(self) -> None:
        # flag first, then look for a client; the thread publishes its
        # client first, then looks at the flag — one side sees the other
        self._stopped = True
        if self._client is not None:
            self._client.abort()

    def _run(self, spec, peers, bundles, timeout_s, shard, queue,
             careful) -> None:
        try:
            client, bundle = _dial(peers, bundles, shard.sid,
                                   timeout_s=timeout_s)
        except ClientError as exc:
            queue.put(("error", shard.sid, str(exc)))
            return
        self._client = client
        if self._stopped:
            client.close()
            return
        batches = ([[i] for i in range(len(shard.items))] if careful
                   else [range(len(shard.items))])
        try:
            for local in batches:
                if careful:
                    queue.put(("claim", shard.sid, shard.indices[local[0]]))
                request = protocol.request_for(
                    spec.mode, verify=spec.verify, bundle=bundle,
                    ordered=False,
                    sources=tuple(shard.items[i] for i in local))
                for frame in client.stream_request(request):
                    queue.put(("file", shard.sid,
                               shard.indices[local[frame.index]],
                               frame.name, frame.payload))
            queue.put(("done", shard.sid, {}))
            self._code = 0
        except (ClientError, OSError):
            pass                # peer lost: a hard death, requeued
        except Exception:
            queue.put(("error", shard.sid, traceback.format_exc()))
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
    happening on the peers and peer loss handled by requeue.  Files
    with identical content are shipped once and the result re-labelled
    with each copy's name.  ``peer_bundles`` (from
    :func:`~repro.fabric.cas.provision_peers`) names the bundle each
    peer serves; empty means every peer's default.  ``config`` supplies
    the supervision knobs (``max_retries``, ``retry_backoff_s``);
    ``timeout_s`` bounds how long a silent peer is waited on.  Closing
    the stream closes every peer connection and joins its thread.
    """
    peers = tuple(peers)
    if not peers:
        raise ValueError("stream_fabric needs at least one peer")
    peer_bundles = tuple(peer_bundles)
    if peer_bundles and len(peer_bundles) != len(peers):
        raise ValueError("peer_bundles must align with peers")
    config = config if config is not None else ServeConfig()
    spec = WorkerSpec(config=config, mode=mode, verify=verify)
    distinct, subscribers = _distinct_contents(
        (i, str(name), source) for i, (name, source) in
        enumerate(named_sources))
    results = stream_shards(
        spec, distinct, plan_peer_shards(len(peers), distinct),
        revive=revive_for(mode),
        start=partial(_PeerShard, spec, peers, peer_bundles, timeout_s))
    return merge_results(_fan_out(results, subscribers), ordered=ordered)
