"""Wrappers the benchmark installs around the public functions of each layer.

Nothing here changes the program: a wrapper calls the original with the same
arguments and returns its result or re-raises its exception. A function is
replaced in every `trustshift` module that binds it, because several modules
import names directly (`from .messages import encode, decode`); methods are
replaced on their class. `installed()` restores every original on exit.

Two kinds of wrapper exist:

- `RunProbe` stamps entry and exit of `Simulator.run`, two clock reads per
  scenario. It is the only wrapper present during timed runs, because
  set-up time ends where the event loop starts.
- `Recorder` counts calls, inclusive time and self time (time not spent in
  another wrapped call) for every layer. It is installed only for the
  separate traced run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

from trustshift import (crypto, device, messages, operators, peers, pki,
                        session, simnet, wire)
from trustshift.errors import MalformedEncoding, ReplayDetected

clock = time.perf_counter


class Patcher:
    """Replaces functions and methods and remembers how to put them back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module, name: str, make_wrapper) -> None:
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "trustshift"
                                   or mod_name.startswith("trustshift.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def method(self, cls, name: str, make_wrapper) -> None:
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, make_wrapper(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class RunProbe:
    """Entry and exit stamps of the last `Simulator.run` call."""

    def __init__(self):
        self.entered = 0.0
        self.exited = 0.0
        self.events = 0

    def install(self, patcher: Patcher) -> None:
        def wrap(original):
            def run(sim):
                self.entered = clock()
                try:
                    return original(sim)
                finally:
                    self.exited = clock()
                    self.events = sim.events_processed
            return run
        patcher.method(simnet.Simulator, "run", wrap)


class Recorder:
    """Per-layer call counts, inclusive and self times, and a few tallies."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.tally: Counter = Counter()
        self.verify_triples: set[tuple[bytes, bytes, bytes]] = set()
        # One child-time accumulator per active wrapped call.
        self._children: list[float] = []

    def timed(self, name: str, before=None, after=None, on_error=None):
        """Wrapper factory: count and time calls under `name`.

        `before(args)` runs before the call, `after(args, result)` after a
        normal return and `on_error(exc)` when the call raises.
        """
        calls, seconds, self_seconds = self.calls, self.seconds, self.self_seconds
        children = self._children

        def make(original):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                children.append(0.0)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                except BaseException as exc:
                    if on_error is not None:
                        on_error(exc)
                    raise
                finally:
                    elapsed = clock() - start
                    child = children.pop()
                    calls[name] += 1
                    seconds[name] += elapsed
                    self_seconds[name] += elapsed - child
                    if children:
                        children[-1] += elapsed
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return make

    def install(self, patcher: Patcher) -> None:
        tally = self.tally

        def count_on(exc_type, key):
            def on_error(exc):
                if isinstance(exc, exc_type):
                    tally[key] += 1
            return on_error

        def remember_triple(args):
            self.verify_triples.add((bytes(args[0]), bytes(args[1]),
                                     bytes(args[2])))

        def chain_result(_args, result):
            if not result:
                tally["pki.verify_chain.fail"] += 1

        def encoded(_args, result):
            tally["codec.encode.bytes"] += len(result)

        def decoding(args):
            tally["codec.decode.bytes"] += len(args[1])

        f, m, t = patcher.function, patcher.method, self.timed
        f(crypto, "verify_raw", t("crypto.verify", before=remember_triple))
        m(crypto.KeyPair, "sign", t("crypto.sign"))
        f(crypto, "generate_key_pair", t("crypto.keygen"))
        f(pki, "verify_chain", t("pki.verify_chain", after=chain_result))
        f(pki, "issue_certificate", t("pki.issue"))
        m(pki.TrustStore, "add_root", t("pki.add_root"))
        m(pki.HierarchyConfig, "revocation_view", t("pki.revocation_view"))
        f(messages, "encode", t("messages.encode", after=encoded))
        f(messages, "decode", t("messages.decode", before=decoding))
        f(wire, "encode_wire", t("wire.encode"))
        f(wire, "decode_wire", t("wire.decode", on_error=count_on(
            MalformedEncoding, "wire.decode.malformed")))
        f(session, "send", t("session.send"))
        f(session, "receive", t("session.receive", on_error=count_on(
            ReplayDetected, "session.receive.replay")))
        m(peers.ResponderPeer, "handle", t("peers.handle"))
        m(simnet.Trace, "select", t("simnet.trace.select"))
        f(simnet, "adversary_apply", t("simnet.adversary_apply"))
        f(device, "handle_transfer_message",
          t("device.handle_transfer_message"))
        f(device, "reset_to_agreed_state", t("device.reset"))
        f(operators, "sp1_relay_transfer", t("operators.relay"))
        f(operators, "ra_verify", t("operators.ra_verify"))


@contextmanager
def installed(probe: RunProbe, recorder: Recorder | None = None):
    """Install the probe (and the recorder's wrappers); restore on exit."""
    patcher = Patcher()
    try:
        probe.install(patcher)
        if recorder is not None:
            recorder.install(patcher)
        yield
    finally:
        patcher.restore()
