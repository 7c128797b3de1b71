"""Compile-and-cache for the C translation units loaded through ctypes.

The walk kernels (:mod:`repro.walks.kernels.cnative_backend`) and the
learn kernel (:mod:`repro.embedding.kernels`) are each one small C
source string. Both are built here, the same way: ``cc -O3 -fPIC
-shared`` at first use, the ``.so`` cached in ``tempfile.gettempdir()``
(so ``TMPDIR`` moves it) under a name keyed by a hash of source +
compiler, written through a unique temporary name and ``os.replace`` so
concurrent builders never load a half-written file. Each container pays
each (sub-second) compile once.

``-ffast-math`` is absent and contraction is off explicitly
(``-march=native`` could otherwise fuse ``a*b+c`` into FMAs with
different rounding): every kernel's results are then a function of its
source alone, which is what the walk kernels' bitwise parity with NumPy
and the learn kernel's repeatability, run to run and from one thread
count to another, both rest on. ``libs`` carries what a unit links
against (``-pthread`` for both, the learn kernel ``-lm`` too; their
threads are their own business, created and joined inside one call:
see :mod:`repro.utils.cthreads`).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import uuid

from repro.errors import ConfigError


def find_compiler() -> str | None:
    """System C compiler for the kernel translation units, if any."""
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for candidate in ("cc", "gcc", "clang"):
        path = shutil.which(candidate)
        if path:
            return path
    return None


def compile_cached(source: str, stem: str, compiler: str, *, libs: tuple[str, ...] = ()) -> str:
    """Build (or reuse) the cached ``.so`` of ``source``; returns its path.

    ``stem`` names the cache entry (``<stem>-<hash>.so``); ``libs`` are
    linker flags such as ``"-lm"``. Raises
    :class:`~repro.errors.ConfigError` naming the compiler's error when
    the build fails.
    """
    tag = hashlib.sha256((source + compiler).encode()).hexdigest()[:16]
    cache_dir = tempfile.gettempdir()
    so_path = os.path.join(cache_dir, f"{stem}-{tag}.so")
    if os.path.exists(so_path):
        return so_path
    src_path = os.path.join(cache_dir, f"{stem}-{tag}.c")
    tmp_so = os.path.join(cache_dir, f"{stem}-{tag}-{uuid.uuid4().hex}.so")
    with open(src_path, "w") as fh:
        fh.write(source)
    base = [compiler, "-O3", "-ffp-contract=off", "-fPIC", "-shared",
            "-o", tmp_so, src_path, *libs]
    proc = None
    # -march=native first (wider vectors for the scans and the d-wide
    # loops); retried portable where the toolchain rejects it
    for extra in (["-march=native"], []):
        cmd = base[:1] + extra + base[1:]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        except (OSError, subprocess.TimeoutExpired) as err:
            raise ConfigError(f"{stem}: compile failed: {err}") from err
        if proc.returncode == 0:
            break
    if proc.returncode != 0:
        raise ConfigError(
            f"{stem}: {compiler} exited with {proc.returncode}: "
            f"{proc.stderr.strip()[:500]}"
        )
    os.replace(tmp_so, so_path)  # atomic vs concurrent builders
    return so_path


__all__ = ["find_compiler", "compile_cached"]
