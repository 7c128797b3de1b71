"""Tests for the self-hosted static-analysis layer (``repro lint``).

Per-rule positive/negative fixtures, inline suppressions (a stale one
fails), CLI exit semantics, and the self-check that the repo's own
``src/`` is clean at HEAD.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import run_lint
from repro.analysis.core import UNUSED_SUPPRESSION
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint(tmp_path, files, code):
    """Write ``files`` (relpath -> source) under ``tmp_path``, lint them,
    and return the findings carrying ``code``."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    report = run_lint([str(tmp_path)], root=tmp_path)
    return [f for f in report.findings if f.code == code]


def codes(found):
    return [f.code for f in found]


# ---------------------------------------------------------------------------
# RPR001 rng-discipline
# ---------------------------------------------------------------------------

def test_rpr001_flags_global_state_calls(tmp_path):
    found = lint(tmp_path, {"mod.py": """
        import numpy as np

        def f():
            np.random.seed(0)
            return np.random.rand(3)
    """}, "RPR001")
    assert codes(found) == ["RPR001", "RPR001"]
    assert "np" not in found[0].message or "numpy.random.seed" in found[0].message


def test_rpr001_flags_default_rng_and_aliased_imports(tmp_path):
    found = lint(tmp_path, {"mod.py": """
        from numpy.random import default_rng
        from numpy import random as npr

        def f(seed):
            a = default_rng()
            b = default_rng(seed)
            npr.shuffle([1, 2])
            return a, b
    """}, "RPR001")
    assert codes(found) == ["RPR001"] * 3
    assert "fresh OS entropy" in found[0].message


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
    found = lint(tmp_path, {"utils/rng.py": rng_home, "mod.py": clean}, "RPR001")
    assert found == []


# ---------------------------------------------------------------------------
# RPR002 registry-contract
# ---------------------------------------------------------------------------

def test_rpr002_param_spec_key_and_default_mismatch(tmp_path):
    found = lint(tmp_path, {"mod.py": """
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
    """}, "RPR002")
    messages = sorted(f.message for f in found)
    assert len(messages) == 2
    assert "param_spec default" in messages[0] and "2.0" in messages[0]
    assert "'missing' is not a parameter" in messages[1]


def test_rpr002_initializer_needs_the_batch_protocol(tmp_path):
    found = lint(tmp_path, {"mod.py": """
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
    """}, "RPR002")
    messages = [f.message for f in found]
    assert len(messages) == 1
    assert "Scalar does not implement required method init_chains()" in messages[0]


def test_rpr002_missing_protocol_method_and_alias_collision(tmp_path):
    found = lint(tmp_path, {"mod.py": """
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
    """}, "RPR002")
    messages = " | ".join(f.message for f in found)
    assert "does not implement required method decode()" in messages
    assert "already registered" in messages


def test_rpr002_clean_registration_and_unresolvable_base_skipped(tmp_path):
    found = lint(tmp_path, {"mod.py": """
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
    """}, "RPR002")
    assert found == []


# ---------------------------------------------------------------------------
# RPR003 signature-drift
# ---------------------------------------------------------------------------

def test_rpr003_on_delta_canonical_protocol(tmp_path):
    found = lint(tmp_path, {"mod.py": """
        class Legacy:
            def on_delta(self, graph, delta=None):
                return {}

        class NeedsModel:
            def on_delta(self, plan, model):
                return {}

        class Canonical:
            def on_delta(self, plan, model=None, *, state_mask=None):
                return {}
    """}, "RPR003")
    messages = " | ".join(f.message for f in found)
    assert "Legacy.on_delta" in messages and "'graph'" in messages
    assert "NeedsModel.on_delta" in messages and "optional for base callers" in messages
    assert "Canonical" not in messages


def test_rpr003_override_drift_vs_base(tmp_path):
    found = lint(tmp_path, {"mod.py": """
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
    """}, "RPR003")
    assert len(found) == 1
    assert "Drifted.step" in found[0].message
    assert "'budget'" in found[0].message


def test_rpr003_renamed_positional_flagged(tmp_path):
    found = lint(tmp_path, {"mod.py": """
        class Base:
            def sample(self, graph, model, state, rng):
                return 0

        class Renamed(Base):
            def sample(self, graph, model, walker_state, rng):
                return 0
    """}, "RPR003")
    assert len(found) == 1
    assert "keyword callers break" in found[0].message


# ---------------------------------------------------------------------------
# RPR004 error-taxonomy
# ---------------------------------------------------------------------------

def test_rpr004_builtin_raise_and_taxonomy_raise(tmp_path):
    found = lint(tmp_path, {"mod.py": """
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
    """}, "RPR004")
    messages = sorted(f.message for f in found)
    assert len(messages) == 3
    assert "class OtherError does not derive from ReproError" in messages[0]
    assert "raises OtherError" in messages[1]
    assert "raises builtin ValueError" in messages[2]


def test_rpr004_connection_builtins_and_error_class_taxonomy(tmp_path):
    found = lint(tmp_path, {"mod.py": """
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
    """}, "RPR004")
    messages = sorted(f.message for f in found)
    assert len(messages) == 3
    # TransportError joins nothing; WireError is fine; Unrelated has an
    # unresolvable base (derives_from -> None) and is not named *Error,
    # so neither side of the check fires on it.
    assert "class TransportError does not derive from ReproError" in messages[0]
    assert "raises builtin BrokenPipeError" in messages[1]
    assert "raises builtin ConnectionResetError" in messages[2]


def test_rpr004_broad_excepts(tmp_path):
    found = lint(tmp_path, {"mod.py": """
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
    """}, "RPR004")
    messages = [f.message for f in found]
    assert len(messages) == 3
    assert "without re-raise swallows" in messages[0]  # swallow
    assert "narrow to the exceptions" in messages[1]  # transport
    assert "bare except" in messages[2]


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
    found = lint(tmp_path / "conn", {"sharding/transport.py": source}, "RPR004")
    assert len(found) == 1
    assert "BrokenPipeError alongside its base class OSError" in found[0].message
    # the same code outside the connection modules is not this rule's business
    found = lint(tmp_path / "other", {"walks/stepper.py": source}, "RPR004")
    assert codes(found) == []


def test_rpr004_dunder_protocol_exempt_and_suppression(tmp_path):
    found = lint(tmp_path, {"mod.py": """
        def __getattr__(name):
            raise AttributeError(name)  # required by the protocol

        def f():
            raise TypeError("suppressed")  # repro-lint: ignore[RPR004]

        def g():
            raise TypeError("not suppressed")
    """}, "RPR004")
    assert len(found) == 1
    assert found[0].line == 9


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
    found = lint(tmp_path, {"serving/store.py": bad, "other/helpers.py": bad}, "RPR005")
    assert codes(found) == ["RPR005", "RPR005"]
    assert all(f.path.endswith("serving/store.py") for f in found)
    assert found[0].line == 5 and "frombuffer" in found[0].message
    assert found[1].line == 6 and "zeros" in found[1].message


def test_rpr005_covers_the_walk_corpus(tmp_path):
    # other processes read a saved corpus: its matrices state their dtype
    corpus = """
        import numpy as np

        def pad(rows, width, dtype):
            a = np.full((rows, width), -1)
            b = np.full((rows, width), -1, dtype=dtype)
            return a, b
    """
    found = lint(tmp_path, {"walks/corpus.py": corpus}, "RPR005")
    assert codes(found) == ["RPR005"]
    assert found[0].line == 5 and "full" in found[0].message


# ---------------------------------------------------------------------------
# RPR006 hot-path-purity
# ---------------------------------------------------------------------------

def test_rpr006_flags_per_element_python_in_kernels(tmp_path):
    kernel = """
        import numpy as np

        def hot(arr, chunk):
            out = arr.tolist()
            for i in range(arr.size):
                out[i] += 1
            for a, b in zip(arr, arr):
                pass
            for chunk in np.array_split(arr, 4):  # coarse-grained: fine
                pass
            for lo in range(0, arr.size, chunk):  # chunks, not elements: fine
                pass
            for i in range(0, arr.size, 1):
                pass
            return out
    """
    found = lint(tmp_path, {"walks/vectorized.py": kernel, "walks/other.py": kernel}, "RPR006")
    assert [f.line for f in found] == [5, 6, 8, 14]
    assert all(f.path.endswith("vectorized.py") for f in found)


def test_rpr006_covers_the_kernels_package(tmp_path):
    kernel = """
        def hot(arr):
            for i in range(arr.size):
                arr[i] += 1
    """
    found = lint(
        tmp_path,
        {"walks/kernels/numpy_backend.py": kernel, "walks/helpers.py": kernel}, "RPR006",
    )
    assert codes(found) == ["RPR006"]
    assert found[0].path.endswith("numpy_backend.py")


# ---------------------------------------------------------------------------
# inline suppressions
# ---------------------------------------------------------------------------

def test_a_suppression_names_its_codes_and_must_silence_one(tmp_path):
    found = lint(tmp_path, {"mod.py": """
        def f():
            raise TypeError("one of two codes used")  # repro-lint: ignore[RPR004, RPR001]

        def g():
            raise TypeError("bare form")  # repro-lint: ignore

        def h():
            return "# repro-lint: ignore[RPR004] in a string is no suppression"

        x = 1  # repro-lint: ignore[RPR004]
    """}, "RPR004")
    assert [(f.line, f.rule) for f in found] == [
        (6, "error-taxonomy"), (11, UNUSED_SUPPRESSION),
    ]
    (unused,) = lint(tmp_path, {}, "RPR001")
    assert (unused.line, unused.rule) == (3, UNUSED_SUPPRESSION)


# ---------------------------------------------------------------------------
# CLI: exit codes
# ---------------------------------------------------------------------------

def test_cli_exit_codes_and_text_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mod.py").write_text("import numpy as np\nnp.random.seed(0)\n")
    code = cli_main(["lint", "mod.py"])
    out = capsys.readouterr().out
    assert code == 1
    assert "mod.py:2:1: RPR001 numpy.random.seed" in out
    assert "[rng-discipline]" in out

    (tmp_path / "mod.py").write_text("x = 1\n")
    assert cli_main(["lint", "mod.py"]) == 0


@pytest.mark.parametrize("source", [
    "def f(a):\n    return a.tolist()\n",  # RPR006
    "def f():\n    try:\n        g()\n    except Exception:\n        raise\n",  # RPR004
], ids=["RPR006", "RPR004-reraise"])
def test_cli_fails_on_every_finding(tmp_path, capsys, monkeypatch, source):
    monkeypatch.chdir(tmp_path)
    kernel = tmp_path / "walks" / "vectorized.py"
    kernel.parent.mkdir()
    kernel.write_text(source)
    assert cli_main(["lint", "."]) == 1
    assert "1 finding(s)" in capsys.readouterr().out


def test_cli_fails_on_a_stale_suppression(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mod.py").write_text("x = 1  # repro-lint: ignore[RPR004]\n")
    assert cli_main(["lint", "mod.py"]) == 1
    out = capsys.readouterr().out
    assert "mod.py:1:1: RPR004 ignore[RPR004] silences no finding" in out
    assert f"[{UNUSED_SUPPRESSION}]" in out


@pytest.mark.parametrize("argv", [
    ("--select", "RPR001"), ("--ignore", "RPR001"), ("--baseline", "b.json"),
    ("--update-baseline",), ("--format", "json"),
], ids=lambda argv: argv[0])
def test_cli_takes_no_flags(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exited:
        cli_main(["lint", *argv])
    assert exited.value.code == 2
    assert argv[0] in capsys.readouterr().err


def test_cli_missing_path_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["lint", "does-not-exist.py"]) == 2


# ---------------------------------------------------------------------------
# self-check: the repo is clean at HEAD
# ---------------------------------------------------------------------------

def test_repo_src_is_clean_at_head():
    """Zero findings and no unused suppression, with no baseline file."""
    assert not (REPO_ROOT / ".lint-baseline.json").exists()
    report = run_lint(["src"], root=REPO_ROOT)
    assert report.parse_errors == []
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.findings == [], f"lint findings at HEAD:\n{rendered}"
    assert not report.failed


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
    hit = {f.code for f in report.findings}
    assert {"RPR001", "RPR002", "RPR005"} <= hit
    assert report.failed
