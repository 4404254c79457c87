"""Source hygiene: no module under src/trustshift keeps a dead import, an
unused private module-level name, a catch-all exception handler, or a
public function, class or method that nothing in src/ or bench/ names; no
config key goes unset, and no config field is out of a config's reach; no
trace kind is declared without a writer; each CA
enrollment URI is spelled once, in `pki.ENROLL_URIS`; only
`scenario.build_adversary` builds an adversary rule; and only a device's
enrollment makes a CSR.

The source scans read the source with `ast` only; nothing is imported. The
config-key scan imports `scenario` for the keys its reader accepts.
"""

import ast
import dataclasses
import json
import re
from pathlib import Path

import pytest

from trustshift import scenario

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "trustshift").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
CONFIGS = sorted((ROOT / "configs").rglob("*.json"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _loaded_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, plus the names it exports in __all__."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    tree = _tree(path)
    loaded = _loaded_names(tree)
    unused = [n for n in _imported_names(tree) if n not in loaded]
    assert not unused, f"{path.name} imports but never uses {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_private_module_name(path):
    tree = _tree(path)
    loaded = _loaded_names(tree)
    unused = [n for n in _private_definitions(tree) if n not in loaded]
    assert not unused, f"{path.name} defines but never reads {unused}"


def test_no_broad_exception_handler():
    """Handlers name the errors they expect, so a programming error surfaces
    instead of becoming a protocol outcome such as a reject reason."""
    broad = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            if any(c is None or getattr(c, "id", None) in
                   ("Exception", "BaseException") for c in caught):
                broad.append(f"{path.name}:{node.lineno}")
    assert not broad, f"bare or catch-all exception handlers at {broad}"


def test_envelope_header_read_only_by_crypto():
    """Envelope acceptance (suite, profile, signature) is decided in one
    place: no module outside `crypto` and `messages` reads the header."""
    readers = [f"{path.name}:{node.lineno}" for path in SOURCES
               if path.name not in ("crypto.py", "messages.py")
               for node in ast.walk(_tree(path))
               if isinstance(node, ast.Attribute)
               and node.attr == "protected_header"]
    assert not readers, f"envelope header read outside crypto at {readers}"


def test_signature_checks_only_in_crypto():
    """Every Ed25519 verify goes through `crypto.verify_raw`, so each one may
    be answered from the record of signatures made and is counted by the
    bench's `crypto.verify` wrapper: no other
    module names `Ed25519PublicKey` or calls a `.verify` method."""
    found = set()
    for path in SOURCES:
        if path.name == "crypto.py":
            continue
        for node in ast.walk(_tree(path)):
            names = {a.name for a in node.names} \
                if isinstance(node, (ast.Import, ast.ImportFrom)) else set()
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            if "Ed25519PublicKey" in names or (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "verify"):
                found.add(f"{path.name}:{node.lineno}")
    assert not found, \
        f"signature checked outside crypto.verify_raw at {sorted(found)}"


def _name(node: ast.AST) -> str | None:
    return getattr(node, "attr", getattr(node, "id", None))


def _by_function(path: Path, what) -> set[tuple[str, str]]:
    """(what(node), innermost function around the node, "" at module
    level) for each node of `path` that `what` names, not None."""
    found = set()

    def visit(node, func):
        if isinstance(node, ast.FunctionDef):
            func = node.name
        name = what(node)
        if name is not None:
            found.add((name, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(_tree(path), "")
    return found


def _peer_profile(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute) and node.attr == "profile" \
            and _name(node.value) == "peer_cert":
        return "peer_cert.profile"
    return None


def test_peer_profile_read_only_by_admission():
    """Which peer may do what is decided in two places: the handshake
    (`session.respond`) admits the profiles of a responder's acceptance
    table, and `peers.ResponderPeer.dispatch` applies the table's rows. No
    other code reads the profile of a session peer's certificate."""
    readers = {(path.name, func) for path in SOURCES
               for _read, func in _by_function(path, _peer_profile)}
    assert readers == {("peers.py", "dispatch"), ("session.py", "respond")}, \
        f"peer profile read at {readers}"


# What only the handshake steps in `session` do: build a handshake frame,
# derive a session, check a peer's certificate chain.
_HANDSHAKE_ONLY = {"Hello", "Accept", "Reject", "derive", "check_peer"}


def _call_of(names: set[str]):
    """For `_by_function`: the name a call of one of `names` calls, bare or
    as an attribute (`wire.Hello(...)`)."""
    def what(node: ast.AST) -> str | None:
        if isinstance(node, ast.Call) and _name(node.func) in names:
            return _name(node.func)
        return None
    return what


def test_handshake_only_in_session():
    """Only `session`'s steps build `wire.Hello`, `wire.Accept` or
    `wire.Reject`, derive a session or check a peer's chain: `peers` and
    the actors move the frames the steps make."""
    found = {(path.name, *call) for path in SOURCES
             for call in _by_function(path, _call_of(_HANDSHAKE_ONLY))}
    assert found == {
        ("session.py", "Hello", "start"),
        ("session.py", "Accept", "respond"),
        ("session.py", "Reject", "respond"),
        ("session.py", "derive", "respond"),
        ("session.py", "derive", "finish"),
        ("session.py", "check_peer", "respond"),
        ("session.py", "check_peer", "finish"),
    }


def _rule_built(node: ast.AST) -> int | None:
    """The line of a call of `AdversaryRule`, else None."""
    return node.lineno if _call_of({"AdversaryRule"})(node) else None


def test_adversary_rules_built_only_by_build_adversary():
    """Every adversary schedule, named (a rule list in `scenario.SCHEDULES`)
    or inline, is parsed on one path: `AdversaryRule` is called once, in
    the loop of `scenario.build_adversary`."""
    found = sorted((path.name, func, line) for path in SOURCES
                   for line, func in _by_function(path, _rule_built))
    assert [where[:2] for where in found] \
        == [("scenario.py", "build_adversary")], f"AdversaryRule built at {found}"


def _top_level_name(path: Path, test) -> list[str]:
    """For each node of `path` that `test` accepts, the name of the
    top-level definition it is in ("" at module level)."""
    return [getattr(top, "name", "") for top in _tree(path).body
            for node in ast.walk(top) if test(node)]


def test_ed25519_verify_in_one_function():
    """Inside `crypto`, one function calls Ed25519 `.verify`: `_check`,
    which `verify_raw` runs on every triple this run did not sign."""
    calls = _top_level_name(
        ROOT / "src" / "trustshift" / "crypto.py",
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr == "verify")
    assert calls == ["_check"], f"Ed25519 verify called in {calls}"


def test_ed25519_key_derivation_in_one_function():
    """One function derives an Ed25519 key, `crypto._derive`, which
    `generate_key_pair` runs on every seed this run has not derived; and
    nothing outside `crypto` reads or writes the record of derived keys."""
    derivations = {(path.name, *use) for path in SOURCES
                   for use in _uses_by_function(path, {"from_private_bytes"})}
    assert derivations == {("crypto.py", "from_private_bytes", "_derive")}
    record = {(path.name, *use) for path in SOURCES + BENCH
              for use in _uses_by_function(path, {"_derived"})}
    assert record == {
        ("crypto.py", "_derived", ""),
        ("crypto.py", "_derived", "generate_key_pair"),
        ("crypto.py", "_derived", "forget_run"),
    }


_FORK_AND_PIPE = {"fork", "forkpty", "pipe", "pipe2", "mkfifo"}


def _starts_processes(node: ast.AST) -> bool:
    """A reference to a fork or pipe call, a call of `mmap.mmap` (naming
    the type in an annotation maps nothing), or an import of one of them
    or of `multiprocessing`."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr == "mmap"
    if isinstance(node, ast.Attribute):
        return node.attr in _FORK_AND_PIPE
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        names = {a.name for a in node.names}
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            if "mmap" in names:
                return True
        return any(name.split(".")[0] in _FORK_AND_PIPE | {"multiprocessing"}
                   for name in names)
    return False


def test_no_processes_or_pipes():
    """The library runs in one process, whose cost every end-to-end metric
    sees: no module forks, makes a pipe, calls `mmap.mmap` or imports
    `multiprocessing`."""
    found = {path.name: _top_level_name(path, _starts_processes)
             for path in SOURCES}
    found = {name: where for name, where in found.items() if where}
    assert found == {}, f"fork, pipe or mmap in {found}"


def test_code_generated_only_in_codec():
    """`exec`, `eval` and `compile` appear only in `codec._define`, which
    builds each class's reader and writer: no other code is made from
    source at run time."""
    found = [(path.name, getattr(top, "name", "")) for path in SOURCES
             for top in _tree(path).body for node in ast.walk(top)
             if isinstance(node, ast.Name)
             and node.id in ("exec", "eval", "compile")]
    assert found and set(found) == {("codec.py", "_define")}, \
        f"code generated outside codec._define: {found}"


def _top_level_where(top: ast.stmt) -> str:
    """The name a top-level statement defines or assigns to, else ""."""
    return getattr(top, "name", "") or "".join(
        _name(t) or "" for t in getattr(top, "targets", []))


def _certificate_decodes(path: Path) -> list[tuple[str, str]]:
    """Each `decode(CompactCertificate, ...)` or `partial(decode,
    CompactCertificate)` call in `path`: (file:line, name of the top-level
    function it is in, or of the name it is assigned to)."""
    found = []
    for top in _tree(path).body:
        where = _top_level_where(top)
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func, args = _name(node.func), [_name(a) for a in node.args[:2]]
            if (func == "decode" and args[:1] == ["CompactCertificate"]) or (
                    func == "partial" and args == ["decode", "CompactCertificate"]):
                found.append((f"{path.name}:{node.lineno}", where))
    return found


def test_certificates_decoded_only_through_the_memo():
    """Every certificate read off the wire goes through
    `pki.decode_certificate`, which `decode` answers from the record of
    encodings when the bytes are a certificate made in this run: no other
    code calls `decode(CompactCertificate, ...)`."""
    calls = [call for path in SOURCES for call in _certificate_decodes(path)]
    assert [where.split(":")[0] for where, _ in calls] == ["pki.py"]
    outside = [where for where, func in calls if func != "decode_certificate"]
    assert not outside, f"certificate decoded around the memo at {outside}"


# A CA's enrollment URI: the CAs are hosts ca0, ca1, ... (an adversary's
# forged endpoint, such as coaps://evil.example/est, is no CA's).
_CA_ENROLL_URI = re.compile(r"//ca\d+\.example/est")


def test_ca_enroll_uris_spelled_once_in_pki():
    """Each CA's enrollment URI is spelled once, in `pki.ENROLL_URIS`:
    every other use reads it from there."""
    found = [(path.name, _top_level_where(top), node.value)
             for path in SOURCES for top in _tree(path).body
             for node in ast.walk(top)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and _CA_ENROLL_URI.search(node.value)]
    assert found, "no CA enrollment URI found"
    outside = [f for f in found if f[:2] != ("pki.py", "ENROLL_URIS")]
    assert not outside, \
        f"CA enrollment URI spelled outside pki.ENROLL_URIS: {outside}"
    uris = [uri for *_, uri in found]
    assert len(uris) == len(set(uris)), \
        f"a CA enrollment URI spelled twice: {uris}"


def _uses_by_function(path: Path, names: set[str]) -> set[tuple[str, str]]:
    """(name, innermost function around it, "" at module level) of each
    reference in `path` to one of `names`, bare or as an attribute."""
    return _by_function(path, lambda node: _name(node) if isinstance(
        node, (ast.Name, ast.Attribute)) and _name(node) in names else None)


def test_record_of_encodings_written_by_three_read_by_two():
    """`codec.remember` is called only by the three writers of the record of
    encodings (`wire.encode_wire`, `messages.encode` and
    `CompactCertificate.encoding`), `codec.recall` only by its two readers
    (`wire.decode_wire`, `messages.decode`), `codec.owe` only by the
    simulator's run loop, for each copy of a frame it puts in flight, and
    `forget_encoded` only by the per-run reset; nothing outside `codec`'s
    own functions touches `codec._encoded` or `codec._owed`."""
    found = {(path.name, *use) for path in SOURCES for use in _uses_by_function(
        path, {"remember", "recall", "owe", "forget_encoded", "_encoded",
               "_owed"})}
    assert found == {
        ("wire.py", "remember", "encode_wire"),
        ("messages.py", "remember", "encode"),
        ("messages.py", "remember", "encoding"),
        ("wire.py", "recall", "decode_wire"),
        ("messages.py", "recall", "decode"),
        ("simnet.py", "owe", "run"),
        ("crypto.py", "forget_encoded", "forget_run"),
        ("codec.py", "_encoded", ""),
        ("codec.py", "_owed", ""),
        ("codec.py", "_encoded", "forget_encoded"),
        ("codec.py", "_owed", "forget_encoded"),
        ("codec.py", "_encoded", "remember"),
        ("codec.py", "_owed", "remember"),
        ("codec.py", "_encoded", "owe"),
        ("codec.py", "_owed", "owe"),
        ("codec.py", "_encoded", "recall"),
        ("codec.py", "_owed", "recall"),
    }


def test_csrs_only_on_the_enrollment_path():
    """Only a device asks for a certificate by CSR, and only `pki.enroll`
    checks one: set-up issues each factory and server certificate straight
    over the key it drew. `pki._signed_cert` signs for `make_ca` and for
    `issue_certificate`, the one issuance of a subject certificate."""
    found = {(path.name, *use) for path in SOURCES for use in _uses_by_function(
        path, {"make_csr", "verify_csr", "_signed_cert"})}
    assert found == {
        ("device.py", "make_csr", "_enroll"),
        ("pki.py", "verify_csr", "enroll"),
        ("pki.py", "_signed_cert", "make_ca"),
        ("pki.py", "_signed_cert", "issue_certificate"),
    }


def _trace_kinds() -> dict[str, str]:
    """`simnet.TRACE_KINDS`, read from the source: kind -> field spec."""
    for node in _tree(ROOT / "src" / "trustshift" / "simnet.py").body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TRACE_KINDS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("simnet declares no TRACE_KINDS")


def _actor_entries_outside_handle(path: Path, kinds: dict) -> list[str]:
    """Each `trace.add(kind, time, actor, ...)` call in `path` that is not
    in `NetHandle.note` and has an actor field: its kind declares `actor`
    first, whatever value is given for it (None too), or its kind is not a
    literal. As file:line."""
    tree = _tree(path)
    inside_note = {id(node) for cls in tree.body
                   if isinstance(cls, ast.ClassDef) and cls.name == "NetHandle"
                   for item in cls.body
                   if isinstance(item, ast.FunctionDef) and item.name == "note"
                   for node in ast.walk(item)}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add"
                and getattr(node.func.value, "attr", None) == "trace") \
                or id(node) in inside_note:
            continue
        kind = node.args[0].value if node.args \
            and isinstance(node.args[0], ast.Constant) else None
        if kind not in kinds or kinds[kind].split()[0].rstrip("?") == "actor":
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_actors_trace_through_their_handle():
    """Outside the simulator, only `NetHandle.note` writes a trace entry
    that names its actor: every actor, process or responder, writes its
    entries through its handle."""
    kinds = _trace_kinds()
    direct = [where for path in SOURCES if path.name != "simnet.py"
              for where in _actor_entries_outside_handle(path, kinds)]
    assert not direct, f"actor trace entries written around NetHandle at {direct}"


def test_every_trace_kind_is_written():
    """Each `simnet.TRACE_KINDS` kind is spelled as a string literal in
    src/trustshift outside its declaration, so the declaration of a kind
    goes when its last writer does."""
    literals = set()
    for path in SOURCES:
        tree = _tree(path)
        declaration = {id(n) for node in tree.body
                       if isinstance(node, ast.Assign) and any(
                           getattr(t, "id", None) == "TRACE_KINDS"
                           for t in node.targets)
                       for n in ast.walk(node)}
        literals |= {node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant)
                     and isinstance(node.value, str)
                     and id(node) not in declaration}
    unwritten = sorted(set(_trace_kinds()) - literals)
    assert not unwritten, f"trace kinds declared but never written: {unwritten}"


def _public_definitions(tree: ast.Module) -> list[str]:
    """Top-level functions and classes, and the methods of those classes."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return [n for n in names if not n.startswith("_")]


def _mentions(tree: ast.Module) -> set[str]:
    """Every name a file reads, imports, looks up as an attribute or spells
    as a string (the bench wraps functions by name; `__all__` lists names)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_definition_is_used():
    mentioned = set()
    for path in SOURCES + BENCH:
        mentioned |= _mentions(_tree(path))
    unused = [f"{path.name}:{name}" for path in SOURCES
              for name in _public_definitions(_tree(path))
              if name not in mentioned]
    assert not unused, f"defined but named nowhere in src/ or bench/: {unused}"


_SECTIONS = {"options": scenario.ScenarioOptions,
             "faults": scenario.ScenarioFaults}
# Bench workloads build configs in Python: the keyword each constructor
# takes, as the config key it stands for.
_KEYWORD_PREFIX = {cls.__name__: f"{section}."
                   for section, cls in _SECTIONS.items()}
_CONFIG_FIELD_KEY = {"variant": "hierarchy_variant",
                     "expect_default": "expectation.default",
                     "expect_overrides": "expectation.overrides"}


def _accepted_keys() -> set[str]:
    keys = scenario.CONFIG_KEYS - {"expectation", *_SECTIONS}
    keys |= {f"expectation.{k}" for k in scenario.EXPECTATION_KEYS}
    for section, cls in _SECTIONS.items():
        keys |= {f"{section}.{f.name}" for f in dataclasses.fields(cls)}
    return keys


def _keys_in_file(raw: dict) -> set[str]:
    keys = set()
    for key, value in raw.items():
        if isinstance(value, dict) and key in ("expectation", *_SECTIONS):
            keys |= {f"{key}.{sub}" for sub in value}
        else:
            keys.add(key)
    return keys


def _keys_in_bench(tree: ast.Module) -> set[str]:
    keys = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = getattr(node.func, "attr", getattr(node.func, "id", ""))
        for keyword in node.keywords:
            if func in _KEYWORD_PREFIX:
                keys.add(_KEYWORD_PREFIX[func] + keyword.arg)
            elif func in ("ScenarioConfig", "replace"):
                keys.add(_CONFIG_FIELD_KEY.get(keyword.arg, keyword.arg))
    return keys


def test_every_config_key_is_set():
    """Every accepted key is set by a shipped config or a bench workload; a
    key nothing sets is a value to make a constant or delete."""
    used = set()
    for path in CONFIGS:
        used |= _keys_in_file(json.loads(path.read_text()))
    for path in BENCH:
        used |= _keys_in_bench(_tree(path))
    unset = _accepted_keys() - used
    assert not unset, f"no config or bench workload sets {sorted(unset)}"


def test_every_config_field_is_read_from_a_config():
    """`ScenarioConfig.from_dict` sets every field of `ScenarioConfig`, so
    only a config file varies a run: a value that no config can set is a
    module constant, which a test patches."""
    reader = next(node for node in ast.walk(
        _tree(ROOT / "src" / "trustshift" / "scenario.py"))
        if isinstance(node, ast.FunctionDef) and node.name == "from_dict")
    read = {keyword.arg for node in ast.walk(reader)
            if isinstance(node, ast.Call) and _name(node.func) == "cls"
            for keyword in node.keywords}
    unread = {f.name for f in dataclasses.fields(scenario.ScenarioConfig)} \
        - read
    assert not unread, f"from_dict never sets {sorted(unread)}"
