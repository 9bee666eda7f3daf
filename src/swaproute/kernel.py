"""The compiled search kernel: build it once per user, load it once per process.

``_kernel.c`` is the search of :mod:`swaproute.maxsat` in C.  The first
solve of a process calls :func:`load`, which finds a build of the
current source in the user's cache or compiles one there with the
system's ``cc -O2 -shared -fPIC``, and loads it with :mod:`ctypes`.
Nothing here runs at import, so parsing, encoding, ``emit-wcnf`` and
``verify`` never touch a compiler or :mod:`ctypes`.

The cache is ``$XDG_CACHE_HOME/swaproute``, else ``~/.cache/swaproute``,
else ``swaproute-<uid>`` in the temp directory; it is made with mode 0700
and used only while it is owned by this user and closed to everyone
else.  A build is named by the SHA-256 of the source and the compile
command, and by the SHA-256 of its own bytes.  It is compiled to a
temporary file that :func:`os.replace` then renames, and a file whose
bytes do not hash to its name is never loaded, so a partly written or
foreign file is skipped (and a fresh build replaces it).  With no
compiler, a failed build or an unusable cache, :func:`load` returns None
and the Python kernel runs.
"""

from __future__ import annotations

import functools
import logging
import os
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path

logger = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_kernel.c")
COMMAND = ("cc", "-O2", "-shared", "-fPIC", "-x", "c", "-")  # the source comes in on stdin
COMPILE_TIMEOUT = 120.0  # seconds


def _compiler() -> str | None:
    """The C compiler's path, or None when there is none."""
    return shutil.which("cc")


def cache_dir() -> Path:
    """Where builds are kept (see the module docstring)."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg and os.path.isabs(xdg):
        return Path(xdg) / "swaproute"
    try:
        return Path.home() / ".cache" / "swaproute"
    except RuntimeError:  # no home directory
        return Path(tempfile.gettempdir()) / f"swaproute-{os.getuid()}"


def _private(directory: Path) -> Path:
    """``directory``, made if missing; OSError unless it is this user's and closed to others."""
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = os.lstat(directory)
    if not stat.S_ISDIR(st.st_mode) or st.st_uid != os.getuid():
        raise OSError(f"{directory} is not a directory of this user")
    if st.st_mode & 0o077:
        os.chmod(directory, 0o700)
    return directory


def _digest(data: bytes) -> str:
    import hashlib  # its OpenSSL backend costs about 4 MB of RSS, which commands that never solve skip

    return hashlib.sha256(data).hexdigest()[:32]


def build(directory: Path) -> Path:
    """The path of a verified build of the current source in ``directory``,
    compiled there first if none is found.  Raises OSError or
    :class:`subprocess.SubprocessError` when there is none and none can be made."""
    source = SOURCE.read_bytes()
    cc = _compiler()
    key = _digest(b"\0".join([source, os.uname().machine.encode(), *map(str.encode, COMMAND)]))
    directory = _private(directory)
    for path in sorted(directory.glob(f"kernel-{key}-*.so")):
        if _verified(path):
            return path
    if cc is None:
        raise OSError("no C compiler (cc) on PATH")
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run([cc, *COMMAND[1:], "-o", tmp], input=source, capture_output=True, check=True,
                       timeout=COMPILE_TIMEOUT)
        os.chmod(tmp, 0o700)
        path = directory / f"kernel-{key}-{_digest(Path(tmp).read_bytes())}.so"
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _verified(path: Path) -> bool:
    """True when ``path`` is this user's regular file and its bytes hash to its name."""
    try:
        st = os.lstat(path)
        data = path.read_bytes()
    except OSError:
        return False
    if not stat.S_ISREG(st.st_mode) or st.st_uid != os.getuid() or st.st_mode & 0o022:
        return False
    return path.stem.rsplit("-", 1)[-1] == _digest(data)


def _open(path: Path):
    """Load a build and declare its functions.

    The library is a :class:`ctypes.PyDLL`, whose calls return holding
    the interpreter lock and raise the exception a call leaves set.  The
    kernel searches without the lock (``PyEval_SaveThread``), so the
    process's other threads keep running, and takes it back
    (``PyEval_RestoreThread``) every few thousand propagations to call
    ``PyErr_CheckSignals``: a signal handler's exception, Ctrl-C's
    KeyboardInterrupt, ends the call.  ``lib.interpreter`` holds the
    three functions' addresses.
    """
    import ctypes

    lib = ctypes.PyDLL(str(path))
    ptr, i64p = ctypes.c_void_p, ctypes.POINTER(ctypes.c_longlong)
    lib.sr_new.argtypes = [ctypes.c_int, ptr, ctypes.c_long, ptr, ptr, ctypes.c_int, ptr, ptr, ctypes.c_int,
                           ctypes.c_int, ctypes.c_int, ptr, ptr, ptr, ctypes.POINTER(ctypes.c_int)]
    lib.sr_new.restype = ptr
    lib.sr_run.argtypes = [ptr]
    lib.sr_run.restype = ctypes.c_int
    lib.sr_result.argtypes = [ptr, i64p, ctypes.c_char_p]
    lib.sr_result.restype = None
    lib.sr_free.argtypes = [ptr]
    lib.sr_free.restype = None
    api = ctypes.pythonapi
    lib.interpreter = tuple(ctypes.cast(f, ptr) for f in (api.PyEval_SaveThread, api.PyEval_RestoreThread,
                                                           api.PyErr_CheckSignals))
    return lib


@functools.cache
def load():
    """The compiled kernel of this process, or None when it cannot be had
    (it is built only on POSIX systems)."""
    if os.name != "posix":
        return None
    try:
        return _open(build(cache_dir()))
    except (OSError, subprocess.SubprocessError) as exc:
        logger.info("compiled search kernel unavailable (%s); the Python kernel runs", exc)
        return None


def name() -> str:
    """The kernel the built-in solver runs in this process: ``"c"`` or ``"python"``."""
    return "python" if load() is None else "c"
