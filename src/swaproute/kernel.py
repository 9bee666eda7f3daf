"""The compiled kernel: build it once per user, load it once per process.

``_kernel.c`` is the search of :mod:`swaproute.maxsat` in C, one search
per call over its own clause set-up, with the two other passes over a
whole clause list: the check of every new
:class:`~swaproute.cnf.MaxSatInstance`'s hard clauses and the writer of
their WCNF lines.  The first of these a process runs calls :func:`load`,
which finds a build of the current source in the user's cache or
compiles one there with the system's ``cc -O2 -shared -fPIC``, and
loads it with :mod:`ctypes`.  Nothing here runs at import, so parsing a
circuit and ``verify`` never touch a compiler or :mod:`ctypes`; encoding,
``emit-wcnf`` and ``map`` do.

The cache is ``$XDG_CACHE_HOME/swaproute``, else ``~/.cache/swaproute``,
else ``swaproute-<uid>`` in the temp directory; it is made with mode 0700
and used only while it is owned by this user and closed to everyone
else.  A build is named by the SHA-256 of the source and the compile
command, and by the SHA-256 of its own bytes.  It is compiled to a
temporary file that :func:`os.replace` then renames, and a file whose
bytes do not hash to its name is never loaded, so a partly written or
foreign file is skipped (and a fresh build replaces it).  With no
compiler, a failed build or an unusable cache, :func:`load` returns None
and the Python code of each pass runs.
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
    """The first 32 hex digits of ``data``'s SHA-256, from the interpreter's
    built-in SHA-256 module: :mod:`hashlib`'s OpenSSL backend would add
    about 4 MB to the process's RSS."""
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:  # an interpreter built without them
            from hashlib import sha256
    return sha256(data).hexdigest()[:32]


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
    """Load a build, declare its functions and hand it the interpreter's.

    The library is a :class:`ctypes.PyDLL`, whose calls return holding
    the interpreter lock and raise the exception a call leaves set.  The
    kernel searches without the lock (``PyEval_SaveThread``), so the
    process's other threads keep running, and takes it back
    (``PyEval_RestoreThread``) every few thousand propagations to call
    ``PyErr_CheckSignals``: a signal handler's exception, Ctrl-C's
    KeyboardInterrupt, ends the call.  It reads a clause list's items
    with ``PyList_GetItem`` and ``PyLong_AsLong`` while it holds the lock.
    """
    import ctypes

    lib = ctypes.PyDLL(str(path))
    ptr, obj, long, i64p = ctypes.c_void_p, ctypes.py_object, ctypes.c_long, ctypes.POINTER(ctypes.c_longlong)
    lib.sr_init.argtypes = [ctypes.POINTER(ptr)]
    lib.sr_init.restype = None
    lib.sr_check.argtypes = [obj, long, long, long]
    lib.sr_check.restype = long
    lib.sr_wcnf.argtypes = [obj, long, long, ctypes.c_char_p, long, ctypes.c_char_p, long]
    lib.sr_wcnf.restype = obj
    lib.sr_new.argtypes = [ctypes.c_int, obj, long, ptr, ptr, ctypes.c_int, ctypes.c_longlong, ctypes.c_double,
                           ctypes.c_longlong, ptr, ctypes.c_int, ctypes.c_int, ctypes.POINTER(ctypes.c_int)]
    lib.sr_new.restype = ptr
    lib.sr_run.argtypes = [ptr]
    lib.sr_run.restype = ctypes.c_int
    lib.sr_result.argtypes = [ptr, i64p, ctypes.c_char_p, ptr]
    lib.sr_result.restype = None
    lib.sr_free.argtypes = [ptr]
    lib.sr_free.restype = None
    api = ctypes.pythonapi
    functions = (api.PyEval_SaveThread, api.PyEval_RestoreThread, api.PyErr_CheckSignals, api.PyList_GetItem,
                 api.PyLong_AsLong, api.PyErr_Occurred, api.PyErr_Clear, api.PyUnicode_DecodeLatin1)
    lib.sr_init((ptr * len(functions))(*(ctypes.cast(f, ptr) for f in functions)))
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
