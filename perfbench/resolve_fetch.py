"""resolve-fetch: register, resolve and tunnel over the default hierarchy.

Set-up builds `Hierarchy.default()` (11 domains) and registers a few
thousand identifiers of the four kinds of acceptance criterion 9.  In
the loop, one request in `register_every` registers a fresh identifier
(one consensus round in its domain, plus an `Hpt.insert` for content);
every other request resolves a Zipf-popular pre-loaded identifier from a
rotating origin and then moves a payload through a tunnel.  Mode and
size come from the request stream, never from the answer, so every
request does the same work whether or not its answer was right.

Answers are judged against the benchmark's own record of what it
registered.  The registry cache drops `forwarding` from answers it
serves (ROADMAP item 5).  Those answers are counted under the kind
`cache_forwarding_lost` and reported as `registry.forwarding_lost_share`,
but a request counts as failed only for a failure of another kind, so
`failed` flags a new fault rather than a count that grows with the number
of requests a run completes.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

import minet.apov as apov
import minet.registry as registry
import minet.tunnel as tunnel
from minet.hpt import Hpt
from minet.names import ForwardingInfo, IdKind, Identifier

from common import Host, Outcome, SetupError, closed_loop, repeat_setup

KNOWN_DEFECTS = ("cache_forwarding_lost",)
OPERATION = "request"
RATE = ("requests_per_s", "requests/s")
OWNER = Identifier.identity("operator")
MODES = list(tunnel.TunnelMode)
CHUNK = 1000


def span_targets():
    conn = tunnel.TunnelConnection
    return [(registry.Hierarchy, "register", "registry.register"),
            (registry.Hierarchy, "resolve", "registry.resolve"),
            (registry, "make_block", "apov.make_block"),
            (registry, "cast_validation_votes", "apov.cast_votes"),
            (registry, "tally_and_seal", "apov.tally_and_seal"),
            (registry, "assemble_group", "apov.assemble_group"),
            (apov, "sign_vote", "apov.sign_vote"),
            (apov.Chain, "append", "apov.chain_append"),
            (Hpt, "insert", "hpt.insert"),
            (Hpt, "lookup_lpm", "hpt.lookup_lpm"),
            (conn, "__init__", "tunnel.connect"),
            (conn, "establish", "tunnel.establish"),
            (conn, "send", "tunnel.send"),
            (conn, "terminate", "tunnel.terminate"),
            (conn, "receiver_digest", "tunnel.digest")]


def identifier(kind: int, tag: str, domain: registry.Domain) -> Identifier:
    """The four identifier kinds of acceptance criterion 9."""
    if kind == 0:
        return Identifier.content(f"{domain.name.text}/app/item{tag}")
    if kind == 1:
        return Identifier.content(f"/library/shelf{tag}")
    if kind == 2:
        return Identifier.identity(f"user{tag}")
    return Identifier.geo(f"zone/{tag}")


@dataclass
class World:
    hier: registry.Hierarchy
    domains: list
    expected: dict       # identifier -> (record, forwarding)
    heights: dict        # domain name -> chain height
    preloaded: list      # identifiers, most popular first


def register(world: World, kind: int, tag: str, domain,
             face: int) -> tuple[bool, float]:
    """Register one identifier and record what it should resolve to.
    Returns whether the registry accepted it with the right record, and
    the seconds the registry took."""
    ident = identifier(kind, tag, domain)
    fwd = ForwardingInfo(face) if ident.kind is IdKind.CONTENT else None
    request = registry.RegistrationRequest(ident, OWNER, forwarding=fwd)
    t0 = time.perf_counter()
    try:
        record = world.hier.register(domain, request)
    except registry.RegistryError:
        return False, time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    height = world.heights.get(domain.name, 0) + 1
    world.heights[domain.name] = height
    world.expected[ident] = (record, fwd)
    return (record.identifier == ident and record.owner == OWNER
            and record.domain == domain.name and record.height == height
            and record.status == "committed"), elapsed


def build_world(shape: dict, seed: int) -> World:
    hier = registry.Hierarchy.default()
    domains = sorted(hier.domains(), key=lambda d: d.name.text)
    world = World(hier, domains, {}, {}, [])
    rng = np.random.default_rng([seed, 4])
    count = shape["preload"]
    where = rng.integers(0, len(domains), count).tolist()
    faces = rng.integers(0, 4096, count).tolist()
    for i in range(count):
        if not register(world, i % 4, str(i), domains[where[i]], faces[i])[0]:
            raise SetupError(f"pre-registration {i} failed")
    order = rng.permutation(count).tolist()
    world.preloaded = [identifier(i % 4, str(i), domains[where[i]])
                       for i in order]
    return world


class Stream:
    """Request parameters, drawn in chunks from one seeded generator.

    Each chunk holds every payload class and every tunnel mode in its
    exact share, in shuffled order, so seeds differ in order and detail
    but not in the amount of work."""

    def __init__(self, shape: dict, seed: int, ids: int, domains: int):
        self.rng = np.random.default_rng([seed, 5])
        self.payload_rng = np.random.default_rng([seed, 6])
        weights = 1.0 / np.arange(1, ids + 1) ** shape["zipf_s"]
        self.cdf = np.cumsum(weights) / weights.sum()
        mix = shape["payload_mix"]           # [low, high, share] per class
        self.bounds = np.array([[lo, hi] for lo, hi, _ in mix])
        counts = [round(share * CHUNK) for _, _, share in mix]
        if sum(counts) != CHUNK:
            raise ValueError(f"payload shares do not split {CHUNK} requests")
        self.classes = np.repeat(np.arange(len(mix)), counts)
        self.modes = np.arange(CHUNK) % len(MODES)
        self.domains = domains
        self.chunk: dict = {}

    def __getitem__(self, i: int) -> dict:
        if i % CHUNK == 0:
            rng = self.rng
            bounds = self.bounds[rng.permutation(self.classes)]
            self.chunk = dict(
                target=np.minimum(np.searchsorted(self.cdf, rng.random(CHUNK)),
                                  len(self.cdf) - 1).tolist(),
                mode=rng.permutation(self.modes).tolist(),
                size=rng.integers(bounds[:, 0], bounds[:, 1] + 1).tolist(),
                domain=rng.integers(0, self.domains, CHUNK).tolist(),
                face=rng.integers(0, 4096, CHUNK).tolist())
        return {k: v[i % CHUNK] for k, v in self.chunk.items()}


def judge(expected, res: registry.ResolutionResult) -> str | None:
    """Failure kind of a resolution, or None when it is right."""
    record, fwd = expected
    if (res.outcome is registry.ResolutionOutcome.RESOLVED
            and res.record == record and res.forwarding == fwd):
        return None
    if (res.outcome is registry.ResolutionOutcome.RESOLVED
            and res.record == record and fwd is not None
            and res.forwarding is None and res.message == "served from cache"):
        return "cache_forwarding_lost"
    return "wrong_resolution"


def run(shape: dict, seed: int, seconds: float, tracer,
        host: Host) -> Outcome:
    world, setup_s = repeat_setup(lambda: build_world(shape, seed),
                                  shape["setup_reps"], tracer, host)
    spans = {"setup": tracer.take()}
    nodes = sum(len(d.fib.index) for d in world.domains)
    stream = Stream(shape, seed, len(world.preloaded), len(world.domains))
    every, window = shape["register_every"], shape["window"]
    latency = []
    busy = dict(register=0.0, resolve=0.0, tunnel=0.0)
    done = dict(register=0, resolve=0, segments=0, payload=0)
    win = dict(resolves=0, hops=0, cache_hits=0, interests=0, lost=0,
               failed=0)
    failures: dict[str, int] = {}
    failed = 0

    def step(i: int) -> None:
        nonlocal failed
        req = stream[i]
        kinds = []
        if i % every == every - 1:
            ok, elapsed = register(world, done["register"] % 4, f"fresh{i}",
                                   world.domains[req["domain"]], req["face"])
            busy["register"] += elapsed
            done["register"] += 1
            if not ok:
                kinds.append("register_failed")
        else:
            idx = tracer.begin("bench.payload")
            payload = stream.payload_rng.bytes(req["size"])
            digest = hashlib.sha256(payload).hexdigest()
            ident = world.preloaded[req["target"]]
            origin = world.domains[done["resolve"] % len(world.domains)]
            tracer.end(idx)
            t0 = time.perf_counter()
            res = world.hier.resolve(origin, ident)
            t1 = time.perf_counter()
            conn = tunnel.TunnelConnection(MODES[req["mode"]])
            conn.establish()
            segments = conn.send(payload)
            conn.terminate()
            received = conn.receiver_digest()
            t2 = time.perf_counter()
            elapsed = t2 - t0
            busy["resolve"] += t1 - t0
            busy["tunnel"] += t2 - t1
            done["resolve"] += 1
            done["segments"] += segments
            done["payload"] += len(payload)
            idx = tracer.begin("bench.check")
            wrong = judge(world.expected[ident], res)
            if wrong:
                kinds.append(wrong)
            if received != digest or conn.bytes_delivered != len(payload):
                kinds.append("digest_mismatch")
            tracer.end(idx)
            if i < window:
                win["resolves"] += 1
                win["hops"] += len(res.hops)
                win["cache_hits"] += res.message == "served from cache"
                win["interests"] += conn.interests_sent
                win["lost"] += wrong == "cache_forwarding_lost"
        latency.append(elapsed)
        for kind in kinds:
            failures[kind] = failures.get(kind, 0) + 1
        unknown = any(kind not in KNOWN_DEFECTS for kind in kinds)
        failed += unknown
        if i < window:
            win["failed"] += unknown

    requests, loop_s, rss = closed_loop(step, seconds, window, tracer, host)
    spans["loop"] = tracer.take()
    return Outcome(
        setup_s=setup_s, latency_s=latency, work=requests,
        named={"register_per_s": (done["register"] / busy["register"],
                                  "registrations/s"),
               "resolve_per_s": (done["resolve"] / busy["resolve"],
                                 "resolutions/s"),
               "tunnel_mib_per_s": (done["payload"] / busy["tunnel"] / 2**20,
                                    "MiB/s")},
        counts={"registry.hops_per_resolve": win["hops"] / win["resolves"],
                "registry.cache_hit_share":
                win["cache_hits"] / win["resolves"],
                "registry.forwarding_lost_share":
                win["lost"] / win["resolves"],
                "tunnel.interests_per_request":
                win["interests"] / win["resolves"],
                "hpt.nodes": nodes,
                "resolves_in_window": win["resolves"],
                "cache_hits_in_window": win["cache_hits"],
                "failed_in_window": win["failed"]},
        per={"rounds": done["register"], "resolves": done["resolve"],
             "segments": done["segments"]},
        attempted=requests, rss_mib=rss, failures=failures, failed=failed,
        loop_s=loop_s, spans=spans)
