"""The compiled kernels: one C library, built, loaded and called here.

Seven modules run a kernel of it when it loads, and their readable Python
reference when it does not: `sls` (the probSAT flip loop, `_probsat.c`),
`cdcl` (the miner's CDCL search, `_cdcl.c`), `quality` (the backbone's
queries, the only searches with unit clauses, in one call of `_cdcl.c`),
`cnf` and `pipeline` (the `Formula` index build, the DIMACS scan and emit,
the model check and `augment`'s duplicate check, `_cnf.c`), `generators`
(`_gen.c`) and `resolution` (the level-1, level-2 and ternary pools,
`_resolve.c`).  The C files share the Mersenne Twister of `random.Random`
(`_mt.h`), seeded from `seed_key(seed)`, and the clause store (`_clauses.h`).

The one switch between kernel and reference is `load()`: a module runs
its reference when it returns None.  Inputs are checked where they are
made (`seed_key` rejects a seed that is not an int, `GenSpec` and
`Formula` sizes that int32 cannot hold), so both engines take the same
ones.  With the library loaded, a reference still runs only for input
no kernel reads, all of it in `cnf`: DIMACS text outside the scanner's
subset, clauses that do not flatten to int32 and model values that are
not bytes.

`load` builds the library on first use with the system C compiler, into
`$XDG_CACHE_HOME/satlab` (by default `~/.cache/satlab`) under a file name
keyed by the sources, the flags and the platform, and returns None when
no compiler or cache directory is usable.  Every module calls it as
`_native.load()`, so replacing this one attribute sends them all to
their references.  Arrays cross as the `address` of `array.array`
buffers, and output buffers are `zeros`.  A kernel run is one call.  Its
results come back in the caller's buffers where the caller knows their
size (probSAT's assignment, which also carries its start); a result
whose size the run decides (a CDCL search, a backbone, a resolvent pool)
is read by one `_info` call, which gives its counts, and one `_copy`
call, then freed.  Every flip or conflict budget crosses as a count, and
`limit` alone turns None (none) into `NO_LIMIT`.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from array import array
from pathlib import Path

NO_LIMIT = 1 << 62  # a count no kernel reaches: a larger budget is passed as this one

# every compiled kernel of the package: one library, one build, one cache key
# (the key reads the shared headers too; the compiler is given the .c files)
_KERNEL_SOURCES = tuple(Path(__file__).with_name(name)
                        for name in ("_probsat.c", "_cdcl.c", "_cnf.c", "_gen.c", "_resolve.c", "_mt.h",
                                     "_clauses.h"))
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_KERNEL_LIBS = ("-lm",)  # after the sources, so that pow resolves under --as-needed

_ptr, _i64, _i32 = ctypes.c_void_p, ctypes.c_longlong, ctypes.c_int
# (name, restype, argtypes) of every function the library exports
_KERNEL_FUNCTIONS = (
    ("probsat_solve", _i64, [_i32, _i32, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _i32, _i64, ctypes.c_double, _ptr, _ptr]),
    ("cdcl_new", _ptr, [_i32, _i32, _ptr, _ptr, _ptr, _i32]),
    ("cdcl_solve", _i32, [_ptr, _i64, ctypes.c_double, _i64, _i64]),
    ("cdcl_info", None, [_ptr, _ptr]),
    ("cdcl_copy", None, [_ptr, _ptr, _ptr, _ptr, _ptr]),
    ("cdcl_free", None, [_ptr]),
    ("cdcl_backbone", _ptr, [_i32, _i32, _ptr, _ptr, _ptr, _i32, _i64]),
    ("backbone_info", None, [_ptr, _ptr]),
    ("backbone_copy", None, [_ptr, _ptr, _ptr, _ptr]),
    ("backbone_free", None, [_ptr]),
    ("formula_index", _i32, [_i32, _i64, _ptr, _ptr, _ptr, _ptr, _ptr]),
    ("dimacs_scan", _i32, [ctypes.c_char_p, _i64, _ptr, _ptr, _ptr]),
    ("dimacs_emit", _i64, [_i64, _ptr, _ptr, _ptr]),
    ("formula_satisfied", _i32, [_i64, _ptr, _ptr, ctypes.c_char_p]),
    ("augment_keep", _i64, [_i32, _ptr, _ptr, _ptr, _ptr, _i32, _i64, _ptr, _ptr]),
    ("gen_clauses", _i32, [_i32, _i32, _i64, _i32, ctypes.c_double, _ptr, _ptr, _i32, _ptr, _ptr]),
    ("level1_pool", _ptr, [_i32, _i32, _ptr, _ptr, _i32]),
    ("level2_pool", _ptr, [_i32, _i32, _ptr, _ptr, _i32, _i64]),
    ("ternary_pool", _ptr, [_i32, _i32, _ptr, _ptr]),
    ("pool_info", None, [_ptr, _ptr]),
    ("pool_copy", None, [_ptr, _ptr, _ptr, _ptr]),
    ("pool_free", None, [_ptr]),
)


def address(buf: array) -> int:
    """The address of the items of `buf`, which a kernel reads or fills."""
    return buf.buffer_info()[0]


def zeros(typecode: str, count: int) -> array:
    """`count` zero items of `typecode`: a buffer for a kernel to fill."""
    return array(typecode, [0]) * count


def flat(formula) -> tuple[int, int, int, int]:
    """A formula as kernels take it: n, m and the addresses of `offsets` and `literals`."""
    return formula.num_vars, formula.num_clauses, address(formula.offsets), address(formula.literals)


def limit(count: int | None) -> int:
    """`count` as a kernel takes a budget: `NO_LIMIT` for None (no budget)
    and for any larger count, `count` otherwise."""
    return NO_LIMIT if count is None else min(count, NO_LIMIT)


def seed_key(seed) -> array:
    """The key with which `random.Random(seed)` seeds its Mersenne Twister
    (`random_seed` in CPython's `_randommodule.c`): the 32-bit words of
    `abs(seed)`, least significant first, or the one word 0 for seed 0.
    A seed that is not an int is a ValueError that names it, on either
    engine."""
    if not isinstance(seed, int):
        raise ValueError(f"the seed must be an int, got {seed!r}")
    n = abs(seed)
    return array("I", [n >> shift & 0xFFFFFFFF for shift in range(0, max(n.bit_length(), 1), 32)])


def _c_files(sources) -> list[str]:
    """The paths of the C files among `sources`, which the compiler builds."""
    return [str(source) for source in sources if source.suffix == ".c"]


def _compiler() -> str | None:
    """Path of the system C compiler, or None when there is none."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


@functools.cache
def load() -> ctypes.CDLL | None:
    """The compiled library, built on first use into the cache named in the
    module docstring; None when no compiler or cache directory is usable.
    The compiler writes a temporary file that is then renamed into place,
    so concurrent processes never load a partial library.
    """
    compiler = _compiler()
    if compiler is None:
        return None
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "satlab"
    try:
        key = hashlib.sha256()
        for source in _KERNEL_SOURCES:
            key.update(source.read_bytes())
        key.update(" ".join(_KERNEL_FLAGS + _KERNEL_LIBS).encode())
        key.update(sysconfig.get_platform().encode())
        path = cache / f"kernels-{key.hexdigest()[:16]}.so"
        if not path.exists():
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache, prefix=".kernels-", suffix=".so")
            os.close(fd)
            try:
                subprocess.run([compiler, *_KERNEL_FLAGS, "-o", tmp, *_c_files(_KERNEL_SOURCES), *_KERNEL_LIBS],
                               check=True, capture_output=True)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.CalledProcessError) as exc:
        warnings.warn(f"compiled kernels unavailable, every module runs its Python reference: {exc}",
                      RuntimeWarning)
        return None
    for name, restype, argtypes in _KERNEL_FUNCTIONS:
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib
