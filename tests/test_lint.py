"""Tests for the self-hosted static-analysis layer (``repro lint``).

Per-rule positive/negative fixtures, the baseline round-trip, the JSON
output schema, CLI exit semantics, registry pluggability of third-party
rules, and the self-check that the repo's own ``src/`` is clean at HEAD.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    LINT_REGISTRY,
    LintRule,
    load_baseline,
    register_rule,
    run_lint,
    save_baseline,
)
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint(tmp_path, files, **kwargs):
    """Write ``files`` (relpath -> source) under ``tmp_path`` and lint them."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return run_lint([str(tmp_path)], root=tmp_path, **kwargs)


def codes(report):
    return [f.code for f in report.findings]


# ---------------------------------------------------------------------------
# RPR001 rng-discipline
# ---------------------------------------------------------------------------

def test_rpr001_flags_global_state_calls(tmp_path):
    report = lint(tmp_path, {"mod.py": """
        import numpy as np

        def f():
            np.random.seed(0)
            return np.random.rand(3)
    """}, select=["RPR001"])
    assert codes(report) == ["RPR001", "RPR001"]
    assert "np" not in report.findings[0].message or "numpy.random.seed" in report.findings[0].message


def test_rpr001_flags_default_rng_and_aliased_imports(tmp_path):
    report = lint(tmp_path, {"mod.py": """
        from numpy.random import default_rng
        from numpy import random as npr

        def f(seed):
            a = default_rng()
            b = default_rng(seed)
            npr.shuffle([1, 2])
            return a, b
    """}, select=["RPR001"])
    assert codes(report) == ["RPR001"] * 3
    assert "fresh OS entropy" in report.findings[0].message


def test_rpr001_allows_rng_home_and_generator_methods(tmp_path):
    rng_home = """
        import numpy as np

        def as_rng(seed=None):
            return np.random.default_rng(seed)
    """
    clean = """
        from repro.utils.rng import as_rng

        def f(seed):
            rng = as_rng(seed)
            return rng.random(3)  # Generator *method*, not global state
    """
    report = lint(tmp_path, {"utils/rng.py": rng_home, "mod.py": clean},
                  select=["RPR001"])
    assert report.findings == []


# ---------------------------------------------------------------------------
# RPR002 registry-contract
# ---------------------------------------------------------------------------

def test_rpr002_param_spec_key_and_default_mismatch(tmp_path):
    report = lint(tmp_path, {"mod.py": """
        from repro.registry import register_model

        class Walker:
            def __init__(self, graph, p=1.0):
                self.graph, self.p = graph, p
            def batch_dynamic_weight(self, prev, prev_off, cur, step, offs):
                return offs

        register_model("walker", Walker, param_spec={
            "p": {"type": "float", "default": 2.0},
            "missing": {"type": "int", "default": 3},
        })
    """}, select=["RPR002"])
    messages = sorted(f.message for f in report.findings)
    assert len(messages) == 2
    assert "param_spec default" in messages[0] and "2.0" in messages[0]
    assert "'missing' is not a parameter" in messages[1]


def test_rpr002_initializer_needs_the_batch_protocol(tmp_path):
    report = lint(tmp_path, {"mod.py": """
        from repro.registry import register_initializer

        class Scalar:
            def initialize(self, graph, model, state, rng):
                return 0

        class Batch:
            @staticmethod
            def init_chains(stepper, m, rng):
                return m

        register_initializer("scalar", Scalar)
        register_initializer("batch", Batch)
    """}, select=["RPR002"])
    messages = [f.message for f in report.findings]
    assert len(messages) == 1
    assert "Scalar does not implement required method init_chains()" in messages[0]


def test_rpr002_missing_protocol_method_and_alias_collision(tmp_path):
    report = lint(tmp_path, {"mod.py": """
        from repro.serving.codec import register_codec

        class HalfCodec:
            def fit(self, vectors):
                return self
            def encode(self, vectors):
                return vectors
            def state(self):
                return {}
            @classmethod
            def from_state(cls, state):
                return cls()

        register_codec("half", HalfCodec)
        register_codec("other", HalfCodec, aliases=("half",))
    """}, select=["RPR002"])
    messages = " | ".join(f.message for f in report.findings)
    assert "does not implement required method decode()" in messages
    assert "already registered" in messages


def test_rpr002_clean_registration_and_unresolvable_base_skipped(tmp_path):
    report = lint(tmp_path, {"mod.py": """
        from repro.serving.codec import Codec, register_codec

        class FullCodec:
            def fit(self, vectors):
                return self
            def encode(self, vectors):
                return vectors
            def decode(self, codes):
                return codes
            def state(self):
                return {}
            @classmethod
            def from_state(cls, state):
                return cls()

        class Derived(Codec):  # base outside the linted set: skip
            pass

        register_codec("full", FullCodec)
        register_codec("derived", Derived)
    """}, select=["RPR002"])
    assert report.findings == []


# ---------------------------------------------------------------------------
# RPR003 signature-drift
# ---------------------------------------------------------------------------

def test_rpr003_on_delta_canonical_protocol(tmp_path):
    report = lint(tmp_path, {"mod.py": """
        class Legacy:
            def on_delta(self, graph, delta=None):
                return {}

        class NeedsModel:
            def on_delta(self, plan, model):
                return {}

        class Canonical:
            def on_delta(self, plan, model=None, *, state_mask=None):
                return {}
    """}, select=["RPR003"])
    messages = " | ".join(f.message for f in report.findings)
    assert "Legacy.on_delta" in messages and "'graph'" in messages
    assert "NeedsModel.on_delta" in messages and "optional for base callers" in messages
    assert "Canonical" not in messages


def test_rpr003_override_drift_vs_base(tmp_path):
    report = lint(tmp_path, {"mod.py": """
        class Base:
            def step(self, walkers, rng):
                return walkers
            def encode(self, vectors):
                return vectors

        class Drifted(Base):
            def step(self, walkers, rng, budget):  # new required param
                return walkers

        class Compatible(Base):
            def encode(self, vectors, *, chunk=1024):  # defaulted extras OK
                return vectors
    """}, select=["RPR003"])
    assert len(report.findings) == 1
    assert "Drifted.step" in report.findings[0].message
    assert "'budget'" in report.findings[0].message


def test_rpr003_renamed_positional_flagged(tmp_path):
    report = lint(tmp_path, {"mod.py": """
        class Base:
            def sample(self, graph, model, state, rng):
                return 0

        class Renamed(Base):
            def sample(self, graph, model, walker_state, rng):
                return 0
    """}, select=["RPR003"])
    assert len(report.findings) == 1
    assert "keyword callers break" in report.findings[0].message


# ---------------------------------------------------------------------------
# RPR004 error-taxonomy
# ---------------------------------------------------------------------------

def test_rpr004_builtin_raise_and_taxonomy_raise(tmp_path):
    report = lint(tmp_path, {"mod.py": """
        from repro.errors import ReproError

        class MyError(ReproError):
            pass

        class OtherError(RuntimeError):
            pass

        def f(x):
            if x < 0:
                raise ValueError("bad x")
            if x == 0:
                raise MyError("taxonomy ok")
            raise OtherError("outside the taxonomy")
    """}, select=["RPR004"])
    messages = sorted(f.message for f in report.findings)
    assert len(messages) == 3
    assert "class OtherError does not derive from ReproError" in messages[0]
    assert "raises OtherError" in messages[1]
    assert "raises builtin ValueError" in messages[2]


def test_rpr004_connection_builtins_and_error_class_taxonomy(tmp_path):
    report = lint(tmp_path, {"mod.py": """
        from repro.errors import ReproError

        class WireError(ReproError):
            pass

        class TransportError:
            pass

        class Unrelated(SomeExternalBase):
            pass

        def f(closed):
            if closed:
                raise ConnectionResetError("peer gone")
            raise BrokenPipeError("half-open")
    """}, select=["RPR004"])
    messages = sorted(f.message for f in report.findings)
    assert len(messages) == 3
    # TransportError joins nothing; WireError is fine; Unrelated has an
    # unresolvable base (derives_from -> None) and is not named *Error,
    # so neither side of the check fires on it.
    assert "class TransportError does not derive from ReproError" in messages[0]
    assert "raises builtin BrokenPipeError" in messages[1]
    assert "raises builtin ConnectionResetError" in messages[2]


def test_rpr004_broad_excepts(tmp_path):
    report = lint(tmp_path, {"mod.py": """
        def swallow():
            try:
                risky()
            except Exception:
                pass

        def transport():
            try:
                risky()
            except Exception:
                raise

        def bare():
            try:
                risky()
            except:
                pass
    """}, select=["RPR004"])
    by_sev = {f.message.split()[0]: f.severity for f in report.findings}
    assert len(report.findings) == 3
    assert sum(f.severity == "error" for f in report.findings) == 2  # swallow + bare
    assert sum(f.severity == "warn" for f in report.findings) == 1   # transport


def test_rpr004_redundant_except_tuple_in_connection_modules(tmp_path):
    # the subclass-shadowed-by-base tuple is the historical bug class of
    # the connection layer (`except (OSError, BrokenPipeError)`) — flagged
    # there, left alone everywhere else
    source = """
        def shutdown(sock):
            try:
                sock.close()
            except (OSError, BrokenPipeError):
                pass

        def drain(sock):
            try:
                sock.close()
            except (ConnectionResetError, TimeoutError):
                pass  # distinct OSError leaves: no redundancy
    """
    report = lint(
        tmp_path / "conn", {"sharding/transport.py": source}, select=["RPR004"]
    )
    assert len(report.findings) == 1
    assert "BrokenPipeError alongside its base class OSError" in report.findings[0].message
    assert report.findings[0].severity == "error"
    # the same code outside the connection modules is not this rule's business
    report = lint(tmp_path / "other", {"walks/stepper.py": source}, select=["RPR004"])
    assert codes(report) == []


def test_rpr004_dunder_protocol_exempt_and_suppression(tmp_path):
    report = lint(tmp_path, {"mod.py": """
        def __getattr__(name):
            raise AttributeError(name)  # required by the protocol

        def f():
            raise TypeError("suppressed")  # repro-lint: ignore[RPR004]

        def g():
            raise TypeError("not suppressed")
    """}, select=["RPR004"])
    assert len(report.findings) == 1
    assert report.findings[0].line == 9


# ---------------------------------------------------------------------------
# RPR005 serialization-dtype
# ---------------------------------------------------------------------------

def test_rpr005_dtype_required_in_format_modules_only(tmp_path):
    bad = """
        import numpy as np

        def read(blob, n):
            a = np.frombuffer(blob)
            b = np.zeros(n)
            c = np.zeros(n, dtype=np.int64)
            d = np.full(n, -1, dtype=np.float32)
            return a, b, c, d
    """
    report = lint(tmp_path, {"serving/store.py": bad, "other/helpers.py": bad},
                  select=["RPR005"])
    assert codes(report) == ["RPR005", "RPR005"]
    assert all(f.path.endswith("serving/store.py") for f in report.findings)
    assert report.findings[0].line == 5 and "frombuffer" in report.findings[0].message
    assert report.findings[1].line == 6 and "zeros" in report.findings[1].message


def test_rpr005_covers_the_walk_corpus(tmp_path):
    # other processes read a saved corpus: its matrices state their dtype
    corpus = """
        import numpy as np

        def pad(rows, width, dtype):
            a = np.full((rows, width), -1)
            b = np.full((rows, width), -1, dtype=dtype)
            return a, b
    """
    report = lint(tmp_path, {"walks/corpus.py": corpus}, select=["RPR005"])
    assert codes(report) == ["RPR005"]
    assert report.findings[0].line == 5 and "full" in report.findings[0].message


# ---------------------------------------------------------------------------
# RPR006 hot-path-purity
# ---------------------------------------------------------------------------

def test_rpr006_warns_on_per_element_python_in_kernels(tmp_path):
    kernel = """
        import numpy as np

        def hot(arr):
            out = arr.tolist()
            for i in range(arr.size):
                out[i] += 1
            for a, b in zip(arr, arr):
                pass
            for chunk in np.array_split(arr, 4):  # coarse-grained: fine
                pass
            return out
    """
    report = lint(tmp_path, {"walks/vectorized.py": kernel, "walks/other.py": kernel},
                  select=["RPR006"])
    assert codes(report) == ["RPR006"] * 3
    assert all(f.severity == "warn" for f in report.findings)
    assert all(f.path.endswith("vectorized.py") for f in report.findings)
    # warnings alone never fail a baseline-less run
    assert not report.failed(baseline_mode=False)
    assert report.failed(baseline_mode=True)


def test_rpr006_covers_the_kernels_package(tmp_path):
    kernel = """
        def hot(arr):
            for i in range(arr.size):
                arr[i] += 1
    """
    report = lint(
        tmp_path,
        {"walks/kernels/numpy_backend.py": kernel, "walks/helpers.py": kernel},
        select=["RPR006"],
    )
    assert codes(report) == ["RPR006"]
    assert report.findings[0].path.endswith("numpy_backend.py")


# ---------------------------------------------------------------------------
# baseline mechanism
# ---------------------------------------------------------------------------

def test_baseline_round_trip_and_counts(tmp_path):
    files = {"walks/vectorized.py": """
        def hot(arr):
            a = arr.tolist()
            b = arr.tolist()
            return a, b
    """}
    report = lint(tmp_path, files, select=["RPR006"])
    assert len(report.findings) == 2

    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, report.findings)
    loaded = load_baseline(baseline_path)
    assert sum(loaded.values()) == 2

    # identical run: everything baselined, nothing new
    again = lint(tmp_path, {}, select=["RPR006"], baseline=loaded)
    assert again.findings == [] and len(again.baselined) == 2
    assert not again.failed(baseline_mode=True)

    # a third occurrence exceeds the recorded count -> new finding
    (tmp_path / "walks" / "vectorized.py").write_text(textwrap.dedent("""
        def hot(arr):
            a = arr.tolist()
            b = arr.tolist()
            c = arr.tolist()
            return a, b, c
    """))
    third = lint(tmp_path, {}, select=["RPR006"], baseline=loaded)
    assert len(third.findings) == 1 and len(third.baselined) == 2
    assert third.failed(baseline_mode=True)


def test_baseline_rejects_garbage(tmp_path):
    from repro.analysis import AnalysisError

    path = tmp_path / "b.json"
    path.write_text("not json")
    with pytest.raises(AnalysisError):
        load_baseline(path)
    path.write_text(json.dumps({"version": 99, "findings": []}))
    with pytest.raises(AnalysisError):
        load_baseline(path)


# ---------------------------------------------------------------------------
# CLI: exit codes, JSON schema, baseline flags
# ---------------------------------------------------------------------------

def test_cli_exit_codes_and_text_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mod.py").write_text("import numpy as np\nnp.random.seed(0)\n")
    code = cli_main(["lint", "mod.py"])
    out = capsys.readouterr().out
    assert code == 1
    assert "mod.py:2:1: RPR001 error:" in out

    (tmp_path / "mod.py").write_text("x = 1\n")
    assert cli_main(["lint", "mod.py"]) == 0


def test_cli_json_schema(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mod.py").write_text("import numpy as np\nnp.random.seed(0)\n")
    code = cli_main(["lint", "mod.py", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["version"] == 1 and doc["exit"] == 1
    assert doc["files"] == 1 and len(doc["rules"]) == 6
    (finding,) = doc["findings"]
    assert set(finding) == {"code", "rule", "severity", "path", "line", "col", "message"}
    assert finding["code"] == "RPR001" and finding["line"] == 2


def test_cli_update_baseline_then_enforce(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    kernel = tmp_path / "walks" / "vectorized.py"
    kernel.parent.mkdir()
    kernel.write_text("def f(a):\n    return a.tolist()\n")
    assert cli_main(["lint", ".", "--baseline", "b.json", "--update-baseline"]) == 0
    capsys.readouterr()
    # accepted: warn is baselined, exit 0
    assert cli_main(["lint", ".", "--baseline", "b.json"]) == 0
    # new debt: a second tolist goes beyond the baseline -> exit 1
    kernel.write_text("def f(a):\n    return a.tolist(), a.tolist()\n")
    assert cli_main(["lint", ".", "--baseline", "b.json"]) == 1


def test_cli_unused_baseline_budget_fails(tmp_path, capsys, monkeypatch):
    """A baseline count no live finding uses would absorb the next regression."""
    monkeypatch.chdir(tmp_path)
    kernel = tmp_path / "walks" / "vectorized.py"
    kernel.parent.mkdir()
    kernel.write_text("def f(a):\n    return a.tolist(), a.tolist()\n")
    assert cli_main(["lint", ".", "--baseline", "b.json", "--update-baseline"]) == 0
    (entry,) = json.loads((tmp_path / "b.json").read_text())["findings"]
    assert entry["count"] == 2
    kernel.write_text("def f(a):\n    return a.tolist()\n")  # one live finding
    capsys.readouterr()
    assert cli_main(["lint", ".", "--baseline", "b.json"]) == 1
    out = capsys.readouterr().out
    assert "RPR006 baseline entry unused (1 more than fired)" in out
    assert "--update-baseline" in out
    assert cli_main(["lint", ".", "--baseline", "b.json", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [item["count"] for item in doc["unused_baseline"]] == [1]
    assert doc["findings"] == [] and doc["baselined"] == 1
    # re-recording drops the surplus
    assert cli_main(["lint", ".", "--baseline", "b.json", "--update-baseline"]) == 0
    assert cli_main(["lint", ".", "--baseline", "b.json"]) == 0


def test_cli_select_unknown_rule_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mod.py").write_text("x = 1\n")
    assert cli_main(["lint", "mod.py", "--select", "RPR999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_missing_path_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["lint", "does-not-exist.py"]) == 2


# ---------------------------------------------------------------------------
# registry pluggability
# ---------------------------------------------------------------------------

def test_third_party_rule_runs_through_cli(tmp_path, capsys, monkeypatch):
    @register_rule("no-print", code="RPX001")
    class NoPrintRule(LintRule):
        severity = "error"

        def check_module(self, module, project):
            for node in module.walk():
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "print"
                ):
                    yield self.finding(module, node, "print() in library code")

    try:
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mod.py").write_text('print("hi")\n')
        code = cli_main(["lint", "mod.py", "--select", "RPX001", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        (finding,) = doc["findings"]
        assert finding["code"] == "RPX001" and finding["rule"] == "no-print"
        # selectable by name too, and ignorable
        assert cli_main(["lint", "mod.py", "--select", "no-print"]) == 1
        assert cli_main(["lint", "mod.py", "--ignore", "no-print"]) == 0
    finally:
        LINT_REGISTRY.unregister("no-print")


def test_register_rule_rejects_non_rules():
    from repro.analysis import AnalysisError

    with pytest.raises(AnalysisError):
        @register_rule("bogus", code="RPX999")
        class NotARule:
            pass


# ---------------------------------------------------------------------------
# self-check: the repo is clean at HEAD
# ---------------------------------------------------------------------------

def test_repo_src_is_clean_at_head():
    baseline = load_baseline(REPO_ROOT / ".lint-baseline.json")
    report = run_lint(["src"], root=REPO_ROOT, baseline=baseline)
    assert report.parse_errors == []
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.findings == [], f"new lint findings at HEAD:\n{rendered}"
    # and even without the baseline there must be zero *errors*
    bare = run_lint(["src"], root=REPO_ROOT)
    assert bare.errors == [], "\n".join(f.render() for f in bare.errors)


def test_repo_injections_are_caught(tmp_path):
    """The acceptance-criteria injections each produce the named rule."""
    store = (REPO_ROOT / "src/repro/serving/store.py").read_text()
    assert "np.frombuffer(blob, dtype=dtype" in store
    broken = store.replace(
        "np.frombuffer(blob, dtype=dtype, count=count, offset=offset)",
        "np.frombuffer(blob)", 1,
    )
    files = {
        "serving/store.py": broken,
        "walks/models/__init__.py": (
            "from repro.registry import register_model\n\n"
            "class M:\n"
            "    def __init__(self, graph):\n"
            "        self.graph = graph\n"
            "    def batch_dynamic_weight(self, prev, prev_off, cur, step, offs):\n"
            "        return offs\n\n"
            'register_model("m", M, param_spec={"ghost": {"default": 1}})\n'
        ),
        "graph/stats.py": "import numpy as np\nnp.random.seed(0)\n",
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    report = run_lint([str(tmp_path)], root=tmp_path)
    hit = {f.code for f in report.errors}
    assert {"RPR001", "RPR002", "RPR005"} <= hit
    assert report.failed(baseline_mode=False)
