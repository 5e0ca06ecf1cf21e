"""Tests for the static-analysis framework (``tools.analyze``).

Each checker is proven against a *seeded* violation in a synthetic
``repro`` package tree: a deliberately unguarded byte read for
dissector-safety, a direct ``store._memtable`` access from outside
``repro.server`` for confinement, and so on.  A guarded twin of each
seed pins the checker's precision (no false positive on correct code).
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.analyze import run_analysis  # noqa: E402
from tools.analyze.findings import Baseline, Finding  # noqa: E402

SPEC_BASE = '''
import abc


class ProtocolSpec(abc.ABC):
    name = ""

    def infer(self, payload: bytes) -> bool:
        return False

    def parse(self, payload: bytes):
        return None
'''


def _seed_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """Materialize a synthetic ``repro`` package tree under *tmp_path*.

    The root directory must be named ``repro`` — the project model maps
    the root directory name to the top package.
    """
    root = tmp_path / "repro"
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")
    for package_dir in {p.parent for p in root.rglob("*.py")} | {root}:
        init = package_dir / "__init__.py"
        if not init.exists():
            init.write_text("", encoding="utf-8")
    return root


def _analyze(root: Path, checkers: list[str]):
    return run_analysis(root=root, checker_names=checkers,
                        baseline_path=None)


# ---------------------------------------------------------------------------
# Dissector-safety: seeded unguarded byte read


def test_dissector_safety_catches_unguarded_read(tmp_path):
    root = _seed_tree(tmp_path, {
        "protocols/base.py": SPEC_BASE,
        "protocols/bad.py": '''
            from repro.protocols.base import ProtocolSpec


            class BadSpec(ProtocolSpec):
                name = "bad"

                def parse(self, payload: bytes):
                    return payload[5]
            ''',
    })
    report = _analyze(root, ["dissector-safety"])
    rules = [f.rule for f in report.findings]
    assert "ds-unguarded-read" in rules, report.findings
    hit = next(f for f in report.findings if f.rule == "ds-unguarded-read")
    assert hit.path.endswith("protocols/bad.py")
    assert hit.severity == "error"


def test_dissector_safety_accepts_guarded_read(tmp_path):
    root = _seed_tree(tmp_path, {
        "protocols/base.py": SPEC_BASE,
        "protocols/good.py": '''
            from repro.protocols.base import ProtocolSpec


            class GoodSpec(ProtocolSpec):
                name = "good"

                def parse(self, payload: bytes):
                    if len(payload) < 6:
                        return None
                    return payload[5]
            ''',
    })
    report = _analyze(root, ["dissector-safety"])
    assert report.findings == [], [str(f) for f in report.findings]


def test_dissector_safety_catches_broad_except(tmp_path):
    root = _seed_tree(tmp_path, {
        "protocols/base.py": SPEC_BASE,
        "protocols/sloppy.py": '''
            from repro.protocols.base import ProtocolSpec


            class SloppySpec(ProtocolSpec):
                name = "sloppy"

                def parse(self, payload: bytes):
                    try:
                        return payload[:1]
                    except Exception:
                        return None
            ''',
        # The ban extends to the app runtime's teardown paths; other
        # packages (the kernel's fault containment) are out of scope.
        "apps/teardown.py": '''
            def close_all(kernel, thread, fds):
                for fd in fds:
                    try:
                        kernel.close(thread, fd)
                    except Exception:
                        pass
            ''',
        "kernel/contain.py": '''
            def fire(program, event):
                try:
                    program(event)
                except Exception:
                    return None
            ''',
    })
    report = _analyze(root, ["dissector-safety"])
    found = sorted((Path(f.path).name, f.rule) for f in report.findings)
    assert found == [("sloppy.py", "ds-broad-except"),
                     ("teardown.py", "ds-broad-except")], report.findings


def test_dissector_safety_catches_stuck_loop(tmp_path):
    root = _seed_tree(tmp_path, {
        "protocols/base.py": SPEC_BASE,
        "protocols/spin.py": '''
            from repro.protocols.base import ProtocolSpec


            class SpinSpec(ProtocolSpec):
                name = "spin"

                def parse(self, payload: bytes):
                    offset = 0
                    total = 0
                    while offset < len(payload):
                        if len(payload) < offset + 1:
                            return None
                        total += payload[offset]
                    return total
            ''',
    })
    report = _analyze(root, ["dissector-safety"])
    rules = [f.rule for f in report.findings]
    assert "ds-loop-progress" in rules, report.findings


# ---------------------------------------------------------------------------
# Confinement: seeded private-state access from outside repro.server


CONFINEMENT_FILES = {
    "server/database.py": '''
        class SpanStore:
            def __init__(self):
                self._memtable = {}

            def insert(self, span):
                self._memtable[span.span_id] = span
        ''',
    "agent/leak.py": '''
        def peek(store):
            return store._memtable
        ''',
}


def test_confinement_catches_external_private_access(tmp_path):
    root = _seed_tree(tmp_path, CONFINEMENT_FILES)
    report = _analyze(root, ["confinement"])
    assert len(report.findings) == 1, report.findings
    hit = report.findings[0]
    assert hit.rule == "confinement"
    assert hit.path.endswith("agent/leak.py")
    assert "_memtable" in hit.message
    assert "SpanStore" in hit.message


def test_confinement_allows_owner_package_and_self(tmp_path):
    root = _seed_tree(tmp_path, {
        "server/database.py": CONFINEMENT_FILES["server/database.py"],
        "server/query.py": '''
            def scan(store):
                return list(store._memtable.values())
            ''',
    })
    report = _analyze(root, ["confinement"])
    assert report.findings == [], [str(f) for f in report.findings]


# ---------------------------------------------------------------------------
# Discipline: runtime-assert rule, suppression, baseline


def test_discipline_flags_bare_assert(tmp_path):
    root = _seed_tree(tmp_path, {
        "agent/check.py": '''
            def validate(x):
                assert x > 0
                return x
            ''',
    })
    report = _analyze(root, ["discipline"])
    rules = [f.rule for f in report.findings]
    assert "runtime-assert" in rules, report.findings


def test_discipline_flags_builtin_hash(tmp_path):
    """The campaign once seeded its worlds with ``hash(category)``: a
    different world per process.  repro.sim is not exempt — it owns the
    clock and the RNG, not the interpreter's string salt."""
    root = _seed_tree(tmp_path, {
        "analysis/seeds.py": '''
            def world_seed(seed, category):
                return seed + hash(category) % 1000
            ''',
        "sim/jitter.py": '''
            def jitter(name):
                return hash(name) % 7
            ''',
        "core/key.py": '''
            import zlib


            class Key:
                def __init__(self, text):
                    self.text = text

                def __hash__(self):
                    return hash(self.text)

                def stable(self):
                    return zlib.crc32(self.text.encode())
            ''',
    })
    report = _analyze(root, ["discipline"])
    flagged = sorted((f.path.rsplit("/", 1)[-1], f.rule)
                     for f in report.findings)
    assert flagged == [("jitter.py", "determinism"),
                       ("seeds.py", "determinism")], report.findings
    assert all("hash()" in f.message for f in report.findings)


def test_suppression_marker_silences_finding(tmp_path):
    root = _seed_tree(tmp_path, {
        "agent/check.py": '''
            def validate(x):
                assert x > 0  # lint: ok
                return x
            ''',
    })
    report = _analyze(root, ["discipline"])
    assert report.findings == []
    assert report.suppressed_count == 1


def test_baseline_absorbs_known_findings(tmp_path):
    root = _seed_tree(tmp_path, CONFINEMENT_FILES)
    first = _analyze(root, ["confinement"])
    assert len(first.findings) == 1
    baseline_path = tmp_path / "baseline.json"
    Baseline(fingerprints={
        f.fingerprint() for f in first.findings}).save(baseline_path)
    second = run_analysis(root=root, checker_names=["confinement"],
                          baseline_path=baseline_path)
    assert second.findings == []
    assert len(second.baselined) == 1
    assert second.exit_code == 0


def test_baseline_fingerprint_survives_line_shift(tmp_path):
    """Fingerprints omit line numbers, so unrelated edits above a
    baselined finding do not resurface it."""
    root = _seed_tree(tmp_path, CONFINEMENT_FILES)
    first = _analyze(root, ["confinement"])
    (root / "agent" / "leak.py").write_text(textwrap.dedent('''
        """Docstring pushing the access down a few lines."""


        def peek(store):
            return store._memtable
        '''), encoding="utf-8")
    second = _analyze(root, ["confinement"])
    assert (first.findings[0].fingerprint()
            == second.findings[0].fingerprint())
    assert first.findings[0].line != second.findings[0].line


# ---------------------------------------------------------------------------
# Hot-path: the overload guards and the per-span bodies must stay
# allocation-free (whole body)


def test_hot_path_flags_allocation_in_overload_guard(tmp_path):
    root = _seed_tree(tmp_path, {
        "agent/overload.py": '''
            class HeadSampler:
                def __init__(self):
                    self._sockets = {}

                def admit(self, socket_id, five_tuple, direction):
                    state = self._sockets.get(socket_id)
                    if state is None:
                        state = [direction, 0, 1, False, direction]
                        self._sockets[socket_id] = state
                    return 1
            ''',
    })
    report = _analyze(root, ["hot-path"])
    rules = [f.rule for f in report.findings]
    assert "hp-alloc-in-guard" in rules, report.findings
    hit = next(f for f in report.findings
               if f.rule == "hp-alloc-in-guard")
    assert hit.severity == "error"
    assert "admit" in hit.function


def test_hot_path_accepts_allocation_free_guard(tmp_path):
    root = _seed_tree(tmp_path, {
        "agent/overload.py": '''
            class HeadSampler:
                def __init__(self):
                    self._sockets = {}

                def admit(self, socket_id, five_tuple, direction):
                    state = self._sockets.get(socket_id)
                    if state is None:
                        state = self._open(socket_id, direction)
                    return 1 if state[2] else 0

                def _open(self, socket_id, direction):
                    state = [direction, 0, 1, False, direction]
                    self._sockets[socket_id] = state
                    return state
            ''',
    })
    report = _analyze(root, ["hot-path"])
    assert report.findings == [], [str(f) for f in report.findings]


def test_hot_path_guard_flags_fstring_and_call(tmp_path):
    root = _seed_tree(tmp_path, {
        "kernel/ebpf.py": '''
            class TokenBucket:
                def __init__(self, rate, burst):
                    self.rate = rate
                    self.tokens = burst

                def allow(self, now):
                    label = f"bucket-{now}"
                    history = list(label)
                    return bool(history)
            ''',
    })
    report = _analyze(root, ["hot-path"])
    rules = sorted(f.rule for f in report.findings)
    assert rules == ["hp-alloc-in-guard", "hp-alloc-in-guard"], \
        report.findings


def test_hot_path_covers_the_otlp_encoder_and_enrichment(tmp_path):
    """The write-path seeds: what the two-pass encoder did per
    attribute (an f-string per tag, one sort per span), reached from
    the exporter's ``export_trace``, and what enrichment did per span
    (a decoded dict rebuilt each time) are findings now; the one-pass
    shapes that replaced them are not."""
    root = _seed_tree(tmp_path, {
        "core/export.py": '''
            def _attrs(span):
                out = []
                for key, value in span.tags.items():
                    out.append((f"deepflow.tag.{key}", str(value)))
                return out


            def _ordered(span, order):
                out = []
                for key, name in order:
                    out.append({"key": name, "value": span.tags[key]})
                return out


            def trace_to_otlp_json(trace, order):
                spans = []
                for span in trace:
                    spans.append(sorted(_attrs(span)))
                    spans.append(_ordered(span, order))
                return spans


            class OtlpStreamExporter:
                def export_trace(self, trace):
                    return trace_to_otlp_json(trace, self.order)
            ''',
        "server/server.py": '''
            class DeepFlowServer:
                def _enrich(self, span):
                    for key in ("vpc", "ip"):
                        span.tags.update({k: v for k, v in self.rows})
            ''',
    })
    report = _analyze(root, ["hot-path"])
    found = sorted((f.function.rsplit(".", 1)[-1], f.rule)
                   for f in report.findings)
    assert found == [("_attrs", "hp-alloc-in-loop"),
                     ("_enrich", "hp-alloc-in-guard"),
                     ("_enrich", "hp-alloc-in-loop"),
                     ("trace_to_otlp_json", "hp-rescan-in-loop")], \
        report.findings


def test_hot_path_keeps_enrichment_allocation_free(tmp_path):
    """Enrichment's whole body is allocation-free: a per-span rebuild
    of the joined tags (``{**tags, **decoded}``) is an error, handing
    the span the endpoint's memoized map or updating its own dict in
    place is not."""
    rebuild = '''
        class DeepFlowServer:
            def _enrich(self, span, tenant):
                tags = span.tags
                decoded = self.tags.span_tags(tags["vpc"], tags["ip"])
                span.tags = {**tags, **decoded}
        '''
    shared = '''
        class DeepFlowServer:
            def _enrich(self, span, tenant):
                tags = span.tags
                vpc = tags.get("vpc")
                ip = tags.get("ip")
                if vpc is not None and ip is not None:
                    if len(tags) == 2:
                        span.tags = self.tags.span_tags(vpc, ip, tenant)
                        return
                    tags.update(self.tags.span_tags(vpc, ip))
                if tenant is not None:
                    tags.setdefault("tenant", tenant)
        '''
    root = _seed_tree(tmp_path / "rebuild", {"server/server.py": rebuild})
    report = _analyze(root, ["hot-path"])
    assert [(f.function.rsplit(".", 1)[-1], f.rule, f.severity)
            for f in report.findings] == [
        ("_enrich", "hp-alloc-in-guard", "error")], report.findings
    root = _seed_tree(tmp_path / "shared", {"server/server.py": shared})
    report = _analyze(root, ["hot-path"])
    assert report.findings == [], [str(f) for f in report.findings]


def test_hot_path_covers_the_pull_read_path(tmp_path):
    """The read-path seeds: what parent assignment did per message
    group (a ``sorted()`` and a comprehension per group), what the
    sharded read-out did per member (``self.get`` probing every shard)
    and what ``trace()`` did per span (a dict copy) are findings now;
    a ``# lint: ok`` with its reason keeps the one justified sort."""
    root = _seed_tree(tmp_path, {
        "server/assembler.py": '''
            def _pick(members, side):
                return min(m for m in members if m.side is side)


            def _chain(groups):
                for members in groups.values():
                    client = [m for m in members if m.side == "c"]
                    nets = sorted(members)
                    members.sort()  # lint: ok — only multi-tap groups
                    _pick(members, client)


            def assign_parents(spans):
                _chain({1: spans})
            ''',
        "server/sharding.py": '''
            class ShardedSpanStore:
                def component_ids(self, span_id):
                    return {span_id}

                def component_spans(self, span_id):
                    out = []
                    for member in self.component_ids(span_id):
                        for shard in self.shards:
                            out.append(self.shards[0].get(member))
                    return out

                def span_list(self, start, end):
                    out = []
                    for shard in self.shards:
                        out.extend(shard.span_list(start, end))
                        out.sort()
                    return out
            ''',
        "server/server.py": '''
            class DeepFlowServer:
                def trace(self, span_id):
                    spans = self.store.component_spans(span_id)
                    for span in spans:
                        span.tags.update(dict(self.custom))
                    return spans
            ''',
    })
    report = _analyze(root, ["hot-path"])
    assert report.suppressed_count == 1
    found = sorted((f.function.rsplit(".", 1)[-1], f.rule)
                   for f in report.findings)
    assert found == [("_chain", "hp-alloc-in-loop"),
                     ("_chain", "hp-rescan-in-loop"),
                     ("component_spans", "hp-attr-in-loop"),
                     ("span_list", "hp-rescan-in-loop"),
                     ("trace", "hp-alloc-in-loop")], report.findings


def test_hot_path_covers_the_memo_and_the_segment_maxima(tmp_path):
    """The memoized trace query and the slowest-span read are seeds: a
    per-span copy in ``assemble``'s write-back, a re-loaded attribute in
    the forest's ``component_key`` walk and in the per-entry maxima
    update that the slowest-span read reaches through the time commit
    are findings."""
    root = _seed_tree(tmp_path, {
        "server/assembler.py": '''
            class TraceAssembler:
                def assemble(self, span_id):
                    hit = self.memo[span_id]
                    for span, parent_id in zip(hit[0], hit[1]):
                        span.parent_id = parent_id
                        span.tags = dict(span.tags)
                    return hit[0]
            ''',
        "server/index.py": '''
            class TraceGraphIndex:
                def component_key(self, span_id):
                    while self._parent[span_id] != span_id:
                        span_id = self._parent[self._parent[span_id]]
                    return span_id, 1
            ''',
        "server/database.py": '''
            class SpanStore:
                def slowest_span(self, side, start, end):
                    self._commit_time_index()
                    return self._slowest

                def _commit_time_index(self):
                    self._extend_run(0, self._tail)

                def _extend_run(self, key, entries):
                    for entry in entries:
                        best = self._slowest[key].get(entry[2].side)
                        if best is None:
                            self._slowest[key][entry[2].side] = entry
            ''',
    })
    report = _analyze(root, ["hot-path"])
    found = sorted((f.function.rsplit(".", 1)[-1], f.rule)
                   for f in report.findings)
    assert found == [("_extend_run", "hp-attr-in-loop"),
                     ("assemble", "hp-alloc-in-loop"),
                     ("component_key", "hp-attr-in-loop")], report.findings


def test_hot_path_covers_the_front_half_per_event_bodies(tmp_path):
    """The per-event seeds have no loop of their own — the simulator's
    run loop is their loop — so their whole bodies are checked for what
    the front-half rewrite removed: the ``lambda`` per ``call_soon``,
    the keyword-built context and the per-fire f-string hook name in a
    generic syscall path, the f-string process name per segment.  The
    ``raise`` payload, the positional build and the retry loop's hoisted
    locals are not findings; an un-hoisted ``self.sim.now`` in that loop
    is caught by the loop rule through the same seeds."""
    root = _seed_tree(tmp_path, {
        "sim/engine.py": '''
            from heapq import heappop, heappush


            class Simulator:
                def _schedule(self, delay, fn, args=()):
                    if delay < 0:
                        raise ValueError(f"in the past: {delay}")
                    self._seq = seq = self._seq + 1
                    heappush(self._heap, (self.now + delay, seq, fn, args))

                def call_soon(self, fn, *args):
                    self._schedule(0.0, lambda: fn(*args))

                def step(self):
                    self.now, _seq, fn, args = heappop(self._heap)
                    fn(*args)
            ''',
        "kernel/kernel.py": '''
            class SyscallContext:
                pass


            class Kernel:
                def _sys_ingress(self, thread, abi, fd, max_bytes):
                    yield self.hooks.fire(ENTER[abi], SyscallContext(
                        thread.pid, thread.tid, self.sim.now, abi))

                def _sys_egress(self, thread, abi, fd, data):
                    yield self.hooks.fire(
                        f"sys_enter_{abi}",
                        SyscallContext(pid=thread.pid, tid=thread.tid,
                                       timestamp=self.sim.now, abi=abi))
            ''',
        "network/transport.py": '''
            class Flow:
                def send(self, from_sock, seq, data):
                    self.sim.spawn(self._transmit(from_sock, seq, data),
                                   name=f"flow{self.flow_id}-seg")

                def _transmit(self, from_sock, seq, data):
                    sim = self.sim
                    while True:
                        sent_at = sim.now
                        stamp = self.sim.now
                        yield sent_at + stamp
            ''',
    })
    report = _analyze(root, ["hot-path"])
    found = sorted((f.function.rsplit(".", 1)[-1], f.rule,
                    f.message.split(" in a body")[0])
                   for f in report.findings)
    assert found == [
        ("_sys_egress", "hp-make-work-per-event",
         "SyscallContext(...) built with keywords"),
        ("_sys_egress", "hp-make-work-per-event", "f-string"),
        ("_transmit", "hp-attr-in-loop",
         "attribute chain self.sim.now inside a hot loop — hoist it "
         "into a local before the loop"),
        ("call_soon", "hp-make-work-per-event", "closure"),
        ("send", "hp-make-work-per-event", "f-string"),
    ], report.findings
    assert {f.severity for f in report.findings} == {"warn"}


def test_hot_path_flags_eager_defaults_and_keyword_builds_in_the_agent(
        tmp_path):
    """The agent's per-message closure: a default built on every call
    (``setdefault(key, Ctor())`` / ``get(key, Ctor())``) is a finding
    wherever it sits in a hot body, a constant default or the
    get-test-build form is not, and a keyword-built ``Message`` / ``Span``
    in the two per-event bodies is make-work."""
    root = _seed_tree(tmp_path, {
        "agent/sessions.py": '''
            from collections import deque


            class _SocketState:
                pass


            class SessionAggregator:
                def _state(self, socket_id):
                    return self._sockets.setdefault(socket_id,
                                                    _SocketState())

                def _add_request(self, message):
                    state = self._state(message.socket_id)
                    backlog = self._backlog.get(message.socket_id, deque())
                    tags = self._tags.get(message.socket_id, ())
                    return state, backlog, tags

                def _match_response(self, message):
                    state = self._sockets.get(message.socket_id)
                    if state is None:
                        state = self._sockets[message.socket_id] = \\
                            _SocketState()
                    return state

                def flush_expired(self, now):
                    return self._sockets.setdefault(0, _SocketState())
            ''',
        "agent/agent.py": '''
            class Message:
                pass


            class Span:
                pass


            class DeepFlowAgent:
                def _ingest_message(self, record, parsed):
                    message = Message(record=record, parsed=parsed)
                    for session in self.aggregator._add_request(message):
                        self._build_span(session)

                def _build_span(self, session):
                    return Span(self.ids.next_id(), session.kind,
                                tags={})

                def hook_stats(self):
                    return Span(span_id=0)
            ''',
    })
    report = _analyze(root, ["hot-path"])
    found = sorted((f.function.rsplit(".", 1)[-1], f.rule)
                   for f in report.findings)
    assert found == [
        ("_add_request", "hp-eager-default"),
        ("_build_span", "hp-make-work-per-event"),
        ("_ingest_message", "hp-make-work-per-event"),
        ("_state", "hp-eager-default"),
    ], report.findings
    eager = [f for f in report.findings if f.rule == "hp-eager-default"]
    assert {f.severity for f in eager} == {"warn"}
    assert any("_SocketState()" in f.message for f in eager)
    assert any("deque()" in f.message for f in eager)


def test_hot_path_flags_eager_display_defaults(tmp_path):
    """A list, dict or set display as the default is built on every call
    just as ``Ctor()`` is: the kernel's fd lookup, reached per syscall
    from the generic ingress path, and the time commit's per-segment
    maxima are findings; a constant tuple default and the
    get-test-build form are not."""
    root = _seed_tree(tmp_path, {
        "kernel/kernel.py": '''
            class Kernel:
                def _sys_ingress(self, thread, abi, fd, max_bytes):
                    sock = self.socket_for_fd(thread, fd)
                    yield sock

                def socket_for_fd(self, thread, fd):
                    return self._fd_tables.get(thread.pid, {}).get(fd)
            ''',
        "server/database.py": '''
            class SpanStore:
                def slowest_span(self, side, start, end):
                    self._commit_time_index()
                    return self._slowest.get(0, ())

                def _commit_time_index(self):
                    self._extend_run(0, self._tail)
                    self._extend_run(1, self._tail)

                def _extend_run(self, key, spans):
                    maxima = self._slowest.setdefault(key, {})
                    seen = self._seen.get(key, [])
                    sides = self._sides.setdefault(key, {spans[0].side})
                    runs = self._segments
                    run = runs.get(key)
                    if run is None:
                        run = runs[key] = []
                    return maxima, seen, sides, run
            ''',
    })
    report = _analyze(root, ["hot-path"])
    found = sorted((f.function.rsplit(".", 1)[-1], f.rule, f.line)
                   for f in report.findings)
    assert [(name, rule) for name, rule, _line in found] == [
        ("_extend_run", "hp-eager-default"),
        ("_extend_run", "hp-eager-default"),
        ("_extend_run", "hp-eager-default"),
        ("socket_for_fd", "hp-eager-default"),
    ], report.findings
    messages = sorted(f.message.split(" builds")[0] for f in report.findings)
    assert messages == [".get(key, [])", ".get(key, {})",
                        ".setdefault(key, {spans[0].side})",
                        ".setdefault(key, {})"], messages


# ---------------------------------------------------------------------------
# The repo itself and the CLI


def test_repo_has_no_unbaselined_findings():
    report = run_analysis()
    assert report.findings == [], "\n".join(str(f) for f in report.findings)
    assert report.exit_code == 0


def test_cli_json_report_and_exit_code(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "tools.analyze", "src/repro",
         "--json", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["findings"] == []
    assert set(payload["checkers"]) == {
        "confinement", "discipline", "dissector-safety", "hot-path"}
