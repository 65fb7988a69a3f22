"""Compile-and-load runtime for rendered kernels.

Turns the C source produced by :mod:`repro.compile.renderer` into a
callable: compile with the system ``cc`` into a shared object, load it
via :mod:`ctypes`, and memoize the result in a two-level cache:

- **in-memory** — per-process dict keyed by the source fingerprint, so
  the steady-state serving path never touches the filesystem;
- **on-disk** — ``~/.cache/repro-kernels`` (override with
  ``REPRO_KERNEL_CACHE``), holding ``<key>.c`` + ``<key>.so`` pairs so
  restarts skip recompilation. Writes are atomic (temp file +
  ``os.replace``) so concurrent processes never load a torn object.

The cache key is ``sha256(rendered source + compiler identity)`` — the
source already encodes the full dtype/shape signature (it is
rendered from them), and folding in the compiler identity means a
toolchain upgrade transparently invalidates old objects.

Hygiene: on first disk access, entries older than
:data:`STALE_AFTER_DAYS` or beyond :data:`MAX_DISK_ENTRIES` (oldest
first) are evicted. Hit/miss/compile-time counters are exported through
:func:`kernel_cache_stats` and surfaced in the gateway ``/stats`` and
``/metrics`` endpoints.

Compiler discovery honors ``$CC``, then tries ``cc``/``gcc``/``clang``.
The probe actually compiles, loads, and calls a one-liner — a broken
toolchain (e.g. ``CC=/bin/false``) probes as unavailable, which is what
the graceful-fallback contract keys off.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.utils.log import get_logger

from .renderer import source_fingerprint

logger = get_logger("compile")

#: Disk-cache entries untouched for this long are evicted at startup.
STALE_AFTER_DAYS = 30

#: Hard cap on disk-cache entries (oldest evicted first).
MAX_DISK_ENTRIES = 512

_BASE_CFLAGS = ("-O3", "-shared", "-fPIC")

KERNEL_ENTRY = "repro_kernel"
QUANTIZE_ENTRY = "repro_quantize"
CONV_ENTRY = "repro_conv"
GELU_ENTRY = "repro_gelu"


class CompileError(RuntimeError):
    """Compilation or loading of a rendered kernel failed."""


def default_cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro-kernels").expanduser()


# ----------------------------------------------------------------------
# compiler probe
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Toolchain:
    """A probed, known-working C compiler."""

    path: str
    version: str
    cflags: tuple[str, ...]

    @property
    def ident(self) -> str:
        return f"{self.path} {self.version} {' '.join(self.cflags)}"


_PROBE_SRC = "int repro_probe(void) { return 42; }\n"

_probe_lock = threading.Lock()
# keyed by $CC so tests that monkeypatch the env re-probe
_probe_cache: dict[str | None, tuple[Toolchain | None, str | None]] = {}


def _try_toolchain(path: str, cflags: tuple[str, ...], workdir: str) -> bool:
    src = os.path.join(workdir, "probe.c")
    so = os.path.join(workdir, f"probe-{abs(hash(cflags)) % 10**8}.so")
    with open(src, "w") as fh:
        fh.write(_PROBE_SRC)
    try:
        proc = subprocess.run(
            [path, *cflags, "-o", so, src],
            capture_output=True, timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired):
        return False
    if proc.returncode != 0 or not os.path.exists(so):
        return False
    try:
        lib = ctypes.CDLL(so)
        fn = lib.repro_probe
        fn.restype = ctypes.c_int
        return fn() == 42
    except OSError:
        return False


def _compiler_version(path: str) -> str:
    try:
        proc = subprocess.run([path, "--version"], capture_output=True,
                              timeout=10, text=True)
        first = (proc.stdout or proc.stderr).splitlines()
        return first[0].strip() if first else "unknown"
    except (OSError, subprocess.TimeoutExpired, IndexError):
        return "unknown"


def _probe() -> tuple[Toolchain | None, str | None]:
    env_cc = os.environ.get("CC")
    candidates = [env_cc] if env_cc else ["cc", "gcc", "clang"]
    tried: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-cc-probe-") as workdir:
        for cand in candidates:
            path = shutil.which(cand)
            if path is None:
                tried.append(f"{cand}: not found")
                continue
            # Prefer -march=native (big win for the int16 GEMM); fall
            # back to the portable flag set if the compiler rejects it.
            for cflags in ((*_BASE_CFLAGS, "-march=native"), _BASE_CFLAGS):
                if _try_toolchain(path, cflags, workdir):
                    tc = Toolchain(path, _compiler_version(path), cflags)
                    return tc, None
            tried.append(f"{cand}: probe compile failed")
    return None, "no working C compiler (" + "; ".join(tried) + ")"


def find_toolchain() -> Toolchain | None:
    """The probed toolchain, or ``None``. Memoized per ``$CC`` value."""
    key = os.environ.get("CC")
    with _probe_lock:
        if key not in _probe_cache:
            _probe_cache[key] = _probe()
        return _probe_cache[key][0]


def compiler_probe() -> dict:
    """Probe summary for ``repro inspect`` and backend availability."""
    key = os.environ.get("CC")
    with _probe_lock:
        if key not in _probe_cache:
            _probe_cache[key] = _probe()
        tc, err = _probe_cache[key]
    if tc is None:
        return {"available": False, "error": err,
                "cache_dir": str(default_cache_dir())}
    return {
        "available": True,
        "compiler": tc.path,
        "version": tc.version,
        "cflags": list(tc.cflags),
        "cache_dir": str(default_cache_dir()),
    }


def compiler_available() -> bool:
    return find_toolchain() is not None


def reset_compiler_probe() -> None:
    """Forget probe results (tests that flip ``$CC`` mid-process)."""
    with _probe_lock:
        _probe_cache.clear()


# ----------------------------------------------------------------------
# kernel cache
# ----------------------------------------------------------------------

class KernelCache:
    """Two-level (memory + disk) cache of compiled kernel functions."""

    def __init__(self, directory: Path | None = None) -> None:
        self._dir = directory
        self._lock = threading.Lock()
        self._mem: dict[str, ctypes.CDLL] = {}  # loaded objects, kept alive
        self._failed: dict[str, str] = {}  # key -> why it did not build
        self._swept = False
        self.mem_hits = 0
        self.disk_hits = 0
        self.compiles = 0
        self.compile_s = 0.0
        self.evictions = 0

    @property
    def directory(self) -> Path:
        return self._dir if self._dir is not None else default_cache_dir()

    # -- hygiene -------------------------------------------------------
    def _sweep(self, root: Path) -> None:
        """Evict stale and over-cap entries (runs once per process)."""
        entries: list[tuple[float, Path]] = []
        for so in root.glob("*.so"):
            try:
                entries.append((so.stat().st_mtime, so))
            except OSError:
                continue
        now = time.time()
        cutoff = now - STALE_AFTER_DAYS * 86400
        entries.sort()  # oldest first
        over_cap = max(0, len(entries) - MAX_DISK_ENTRIES)
        for idx, (mtime, so) in enumerate(entries):
            if idx >= over_cap and mtime >= cutoff:
                continue
            for victim in (so, so.with_suffix(".c")):
                try:
                    victim.unlink(missing_ok=True)
                except OSError:
                    pass
            self.evictions += 1

    def _ensure_dir(self) -> Path:
        root = self.directory
        root.mkdir(parents=True, exist_ok=True)
        if not self._swept:
            self._swept = True
            self._sweep(root)
        return root

    # -- compile + load ------------------------------------------------
    def _compile(self, source: str, tc: Toolchain, root: Path, key: str,
                 libs: tuple[str, ...]) -> Path:
        c_path = root / f"{key}.c"
        so_path = root / f"{key}.so"
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="repro-cc-", dir=root) as tmp:
            tmp_c = Path(tmp) / "kernel.c"
            tmp_so = Path(tmp) / "kernel.so"
            tmp_c.write_text(source)
            proc = subprocess.run(
                [tc.path, *tc.cflags, "-o", str(tmp_so), str(tmp_c), "-lm",
                 *(f"-l{lib}" for lib in libs)],
                capture_output=True, text=True, timeout=120,
            )
            if proc.returncode != 0 or not tmp_so.exists():
                raise CompileError(
                    f"{tc.path} failed on rendered kernel {key}:\n{proc.stderr}"
                )
            # Atomic publish: concurrent processes either see the old
            # file or the complete new one, never a partial write.
            os.replace(tmp_c, c_path)
            os.replace(tmp_so, so_path)
        elapsed = time.perf_counter() - start
        self.compiles += 1
        self.compile_s += elapsed
        logger.debug("compiled kernel %s in %.1f ms", key, elapsed * 1e3)
        return so_path

    def _build(self, source: str, tc: Toolchain, key: str,
               libs: tuple[str, ...]) -> ctypes.CDLL:
        root = self._ensure_dir()
        so_path = root / f"{key}.so"
        if so_path.exists():
            try:
                lib = ctypes.CDLL(str(so_path))
                self.disk_hits += 1
                return lib
            except OSError:
                pass  # torn/foreign object: recompile over it
        so_path = self._compile(source, tc, root, key, libs)
        try:
            return ctypes.CDLL(str(so_path))
        except OSError as exc:
            raise CompileError(f"cannot load rendered kernel {key}: {exc}") from exc

    def get(self, source: str, entry: str = KERNEL_ENTRY, libs: tuple[str, ...] = ()):
        """The compiled ``entry`` symbol of ``source`` (memoized).

        ``libs`` are extra libraries to link (``-l<name>``); they are
        part of the cache key. A source that fails to compile or load
        raises :class:`CompileError`, and so does every later ``get`` of
        it in this process, without a second attempt.
        """
        tc = find_toolchain()
        if tc is None:
            raise CompileError("no working C compiler available")
        key = source_fingerprint(source, " ".join((tc.ident, *(f"-l{lib}" for lib in libs))))
        with self._lock:
            lib = self._mem.get(key)
            if lib is not None:
                self.mem_hits += 1
            elif key in self._failed:
                raise CompileError(self._failed[key])
            else:
                try:
                    lib = self._build(source, tc, key, libs)
                except CompileError as exc:
                    self._failed[key] = str(exc)
                    raise
                self._mem[key] = lib
            fn = getattr(lib, entry)
            fn.restype = ctypes.c_int
            return fn

    def stats(self) -> dict:
        with self._lock:
            return {
                "mem_hits": self.mem_hits,
                "disk_hits": self.disk_hits,
                "hits": self.mem_hits + self.disk_hits,
                "misses": self.compiles,
                "compiles": self.compiles,
                "compile_s": self.compile_s,
                "evictions": self.evictions,
                "entries": len(self._mem),
                "dir": str(self.directory),
            }


_cache_lock = threading.Lock()
_cache: KernelCache | None = None


def kernel_cache() -> KernelCache:
    """The process-wide kernel cache (created on first use)."""
    global _cache
    with _cache_lock:
        if _cache is None:
            _cache = KernelCache()
        return _cache


def reset_kernel_cache() -> None:
    """Drop the process-wide cache (tests that redirect the cache dir)."""
    global _cache
    with _cache_lock:
        _cache = None


def kernel_cache_stats() -> dict:
    """Counters for ``/stats`` + metrics; zeros before first use."""
    with _cache_lock:
        cache = _cache
    if cache is None:
        return {
            "mem_hits": 0, "disk_hits": 0, "hits": 0, "misses": 0,
            "compiles": 0, "compile_s": 0.0, "evictions": 0, "entries": 0,
            "dir": str(default_cache_dir()),
        }
    return cache.stats()
