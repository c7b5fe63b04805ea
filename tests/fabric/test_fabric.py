"""End-to-end tests of the distributed serving fabric.

The invariant everything here defends: results streamed through
remote peers are byte-identical to the in-process pipeline — at one
peer, at two peers, and with one peer dead mid-fleet (the supervisor
requeues its shard onto a survivor instead of aborting).
"""

import json
import multiprocessing
import socket
import struct
import threading

import numpy as np
import pytest

from repro.client import ClientError
from repro.fabric import NetworkStore, stream_fabric
from repro.serve import (
    ServeConfig,
    ServeError,
    SuggestionService,
    SuggestServer,
)
from repro.serve.plan import plan_shards

SOURCE_A = """
double a[100], b[100]; double s;
void kernel(void) {
    int i;
    for (i = 0; i < 100; i++) a[i] = b[i];
    for (i = 0; i < 100; i++) s += a[i];
}
"""

SOURCE_B = """
double c[50];
void scale(void) {
    int j;
    for (j = 0; j < 50; j++) c[j] = c[j] * 2.0;
}
"""

BAD_SOURCE = "void broken(void) { for (i = 0; i < ; }"

CORPUS = [("a.c", SOURCE_A), ("b.c", SOURCE_B), ("broken.c", BAD_SOURCE)]

#: six distinct files, so each of two shards holds several
WIDE_CORPUS = [
    (f"f{i}.c", SOURCE_A.replace("100", str(100 + i)) if i % 2
     else SOURCE_B.replace("50", str(50 + i)))
    for i in range(6)
]


class _StubModel:
    """Picklable fingerprinted stub following the suggester contract."""

    def __init__(self, value: int, name: str = "stub") -> None:
        self.value = value
        self.name = name

    def predict_samples(self, samples):
        return np.full(len(samples), self.value, dtype=int)

    def fingerprint(self) -> str:
        return f"stub:{self.name}:{self.value}"


def _service() -> SuggestionService:
    return SuggestionService(_StubModel(1),
                             {"reduction": _StubModel(0, "red")})


def _golden(corpus=CORPUS):
    """The in-process results every fabric topology must reproduce."""
    return _snap(_service().suggest_sources(corpus))


class _RecordingService(SuggestionService):
    """A peer's service that logs every ``(name, source)`` it is asked
    to serve, before its own content dedupe."""

    def __init__(self) -> None:
        super().__init__(_StubModel(1), {"reduction": _StubModel(0, "red")})
        self.seen: list[tuple[str, str]] = []

    def stream_tagged(self, named_sources, **kwargs):
        self.seen.extend(named_sources)
        return super().stream_tagged(named_sources, **kwargs)

    def iter_joint(self, workloads):
        for _, named in workloads:
            self.seen.extend(named)
        return super().iter_joint(workloads)


class _StallingService(_RecordingService):
    """A peer's service that streams one file of a request, then goes
    quiet until ``release`` is set."""

    def __init__(self) -> None:
        super().__init__()
        self.release = threading.Event()

    def stream_tagged(self, named_sources, **kwargs):
        results = super().stream_tagged(named_sources, **kwargs)
        for n, item in enumerate(results):
            if n == 1:
                self.release.wait(60)
            yield item


class _CutProxy:
    """TCP proxy in front of one peer that dies mid-stream.

    Relays the first connection both ways until the peer's first
    ``file`` frame has passed, then stops listening and shuts both
    sockets — so the coordinator loses the peer after one result, and
    every redial is refused.  ``passed`` names the files that got
    through.
    """

    def __init__(self, upstream: str) -> None:
        self._upstream = upstream
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self.passed: list[str] = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        try:
            down, _ = self._listener.accept()
        except OSError:
            return
        host, port = self._upstream.rsplit(":", 1)
        up = socket.create_connection((host, int(port)))
        pump = threading.Thread(target=self._pump, args=(down, up),
                                daemon=True)
        pump.start()
        try:
            with up.makefile("rb") as rfile:
                while True:
                    header = rfile.read(4)
                    if len(header) < 4:
                        break
                    body = rfile.read(struct.unpack(">I", header)[0])
                    down.sendall(header + body)
                    frame = json.loads(body)
                    if frame["kind"] == "file":
                        self.passed.append(frame["name"])
                        break
        finally:
            self._stop_listening()
            for sock in (down, up):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                sock.close()
            pump.join()

    @staticmethod
    def _pump(src: socket.socket, dst: socket.socket) -> None:
        try:
            while data := src.recv(65536):
                dst.sendall(data)
        except OSError:
            pass

    def _stop_listening(self) -> None:
        # shutdown, not just close: a forked process may hold a copy of
        # the listening socket, and close alone would leave it accepting
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()

    def close(self) -> None:
        self._stop_listening()
        self._thread.join(timeout=10)


def _snap(results):
    return [(r.name, r.to_payload()) for r in results]


def _dead_address() -> str:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return "127.0.0.1:%d" % probe.getsockname()[1]


@pytest.fixture
def fleet():
    """Two identical peer daemons, as a list of addresses."""
    servers = [SuggestServer({"default": _service()}).start()
               for _ in range(2)]
    yield [srv.address for srv in servers]
    for srv in servers:
        srv.shutdown()


class TestStreamFabric:
    def test_one_peer_byte_identical(self, fleet):
        results = list(stream_fabric(fleet[:1], CORPUS, ordered=True))
        assert _snap(results) == _golden()

    def test_two_peers_byte_identical(self, fleet):
        results = list(stream_fabric(fleet, CORPUS, ordered=True))
        assert _snap(results) == _golden()

    def test_unordered_is_the_same_set(self, fleet):
        results = list(stream_fabric(fleet, CORPUS, ordered=False))
        assert sorted(_snap(results)) == sorted(_golden())

    def test_dead_peer_requeues_onto_survivor(self, fleet):
        """Losing a peer re-routes its shard, it never aborts the run.

        The shard homed on the dead peer rotates past it at dial time
        and lands on the survivor — so the result is still
        byte-identical.
        """
        peers = [_dead_address(), fleet[0]]
        results = list(stream_fabric(peers, CORPUS, ordered=True,
                                     config=ServeConfig(max_retries=3)))
        assert _snap(results) == _golden()

    def test_peer_cut_mid_stream_requeues_onto_survivor(self):
        """A peer lost after its first streamed file: the result still
        equals the golden, no file arrives twice, and the survivor
        serves what the cut shard had left."""
        cut = SuggestServer({"default": _service()}).start()
        survivor_service = _RecordingService()
        survivor = SuggestServer({"default": survivor_service}).start()
        proxy = _CutProxy(cut.address)
        try:
            results = list(stream_fabric(
                [proxy.address, survivor.address], WIDE_CORPUS,
                ordered=False, config=ServeConfig(max_retries=3)))
        finally:
            proxy.close()
            cut.shutdown()
            survivor.shutdown()
        names = [r.name for r in results]
        assert len(names) == len(set(names)) == len(WIDE_CORPUS)
        assert sorted(_snap(results)) == sorted(_golden(WIDE_CORPUS))
        assert len(proxy.passed) == 1
        # sid 0 is the cut peer's home slot; its other files moved over
        cut_shard = {name for name, _ in plan_shards(WIDE_CORPUS, 2)[0].items}
        served = {name for name, _ in survivor_service.seen}
        assert cut_shard - set(proxy.passed) <= served
        assert proxy.passed[0] not in served

    def test_all_peers_dead_is_an_error(self):
        with pytest.raises(ServeError, match="no reachable peer"):
            list(stream_fabric([_dead_address()], CORPUS, ordered=True,
                               config=ServeConfig(max_retries=1)))

    def test_mirrored_files_are_shipped_once(self):
        """Copies of one content cross the wire once, in total over
        the fleet, and come back under every copy's own name."""
        services = [_RecordingService(), _RecordingService()]
        servers = [SuggestServer({"default": service}).start()
                   for service in services]
        # LPT puts each original and its copy on different shards
        mirrored = [("a.c", SOURCE_A), ("copy/a.c", SOURCE_A),
                    ("b.c", SOURCE_B), ("copy/b.c", SOURCE_B)]
        try:
            results = list(stream_fabric(
                [srv.address for srv in servers], mirrored, ordered=True))
        finally:
            for srv in servers:
                srv.shutdown()
        assert _snap(results) == _golden(mirrored)
        shipped = sorted(source for service in services
                         for _, source in service.seen)
        assert shipped == sorted([SOURCE_A, SOURCE_B])

    def test_rewrite_mode_byte_identical(self, fleet):
        golden = [(r.name, r.to_payload())
                  for r in _service().rewrite_sources(CORPUS)]
        results = list(stream_fabric(fleet, CORPUS, mode="rewrite",
                                     ordered=True))
        assert [(r.name, r.to_payload()) for r in results] == golden

    def test_no_peers_refused(self):
        with pytest.raises(ValueError, match="at least one peer"):
            stream_fabric([], CORPUS)

    def test_misaligned_peer_bundles_refused(self, fleet):
        with pytest.raises(ValueError, match="align"):
            stream_fabric(fleet, CORPUS, peer_bundles=("only-one",))


class TestPeerThreads:
    def test_no_process_is_started(self, fleet, monkeypatch):
        """Peer shards are coordinator threads: a host that cannot
        start a process still serves, byte-identically."""
        def refuse(self):
            raise OSError("no processes here")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            refuse)
        results = list(stream_fabric(fleet, CORPUS, ordered=True))
        assert _snap(results) == _golden()

    def test_silent_peer_outlasting_heartbeat_is_not_hung(self):
        """Only the socket timeout bounds a quiet peer: silence past
        ``heartbeat_s`` neither requeues nor re-sends a file."""
        service = _StallingService()
        server = SuggestServer({"default": service}).start()
        timer = threading.Timer(1.0, service.release.set)
        timer.start()
        try:
            results = list(stream_fabric(
                [server.address], WIDE_CORPUS, ordered=True,
                config=ServeConfig(heartbeat_s=0.2)))
        finally:
            timer.cancel()
            service.release.set()
            server.shutdown()
        assert _snap(results) == _golden(WIDE_CORPUS)
        assert sorted(service.seen) == sorted(WIDE_CORPUS)

    def test_early_close_leaves_no_thread(self):
        """Closing the stream mid-request wakes the shard thread out of
        its blocked read on a peer that has gone quiet, and joins it."""
        service = _StallingService()
        server = SuggestServer({"default": service}).start()
        try:
            # one file never stalls; it starts the peer's compute thread
            list(stream_fabric([server.address], CORPUS[:1]))
            before = threading.active_count()
            stream = stream_fabric([server.address], WIDE_CORPUS,
                                   ordered=False)
            next(stream)
            stream.close()
            assert threading.active_count() == before
        finally:
            service.release.set()
            server.shutdown()


class TestNetworkStoreEdges:
    def test_dead_daemon_degrades_to_misses(self):
        store = NetworkStore(_dead_address(), timeout=2.0)
        assert store.get_parse("k" * 64) is None
        store.put_parse("k" * 64, {"requests": []})
        stats = store.stats()
        assert stats["parse_misses"] == 1
        assert stats["write_errors"] == 1

    def test_dead_daemon_maintenance_raises(self):
        store = NetworkStore(_dead_address(), timeout=2.0)
        with pytest.raises((ClientError, OSError)):
            store.gc(max_bytes=0)

    def test_storeless_daemon_is_fatal_not_retried(self, fleet):
        # peers built without a cache share no store
        store = NetworkStore(fleet[0], timeout=5.0)
        with pytest.raises(ClientError) as exc:
            store.describe()
        assert exc.value.code == "no-store"
        # the refusal is terminal: reads degrade without re-dialing
        assert store._dead is True
        assert store.get_parse("k" * 64) is None


class TestPingCLI:
    def test_human_output(self, fleet, capsys):
        from repro.cli import ping_main

        assert ping_main([fleet[0]]) == 0
        out = capsys.readouterr().out
        assert f"pong from {fleet[0]}" in out
        assert "bundles: default" in out
        assert "fabric: peer only" in out

    def test_json_output(self, fleet, capsys):
        import json

        from repro.cli import ping_main

        assert ping_main([fleet[0], "--json"]) == 0
        probe = json.loads(capsys.readouterr().out)
        assert probe["address"] == fleet[0]
        assert probe["rtt_ms"] > 0
        assert probe["capabilities"]["fabric"] is True
        assert probe["capabilities"]["bundles"] == ["default"]

    def test_dead_daemon_exits_nonzero(self, capsys):
        from repro.cli import ping_main

        dead = _dead_address()
        assert ping_main([dead, "--timeout", "2"]) == 1
        assert f"no pong from {dead}" in capsys.readouterr().err
