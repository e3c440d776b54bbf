"""Small shared helpers: stable hashing, binary framing, atomic writes,
text reads, deterministic parallel maps on threads and on processes."""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import features as ft
from .errors import ChecksumMismatch, VersionMismatch


def hash64(text: str) -> int:
    """Stable 64-bit hash of a string (blake2b, little-endian)."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def seal(header, magic, version, variant, *fields, body=()):
    """Binary file framing: header (magic, version, variant code as the
    index into features.VARIANTS, fields), the body's bytes-like parts, and
    an 8-byte blake2b of both, joined with one copy. A format without a
    schema variant passes variant=None and has no code in its header."""
    code = () if variant is None else (ft.VARIANTS.index(variant),)
    parts = [header.pack(magic, version, *code, *fields), *body]
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(part)
    return b"".join([*parts, digest.digest()])


def unseal(blob, header, magic, version, what, has_variant=True):
    """(variant, other header fields, memoryview of header + body) of a
    sealed blob, after the length, checksum, magic, version and variant-code
    checks. Without a variant code in the header the variant is None."""
    if len(blob) < header.size + 8:
        raise ChecksumMismatch(f"{what} truncated")
    framed = memoryview(blob)[:-8]
    if hashlib.blake2b(framed, digest_size=8).digest() != blob[-8:]:
        raise ChecksumMismatch(f"{what} checksum does not match contents")
    got_magic, got_version, *fields = header.unpack_from(framed)
    if got_magic != magic or got_version != version:
        raise VersionMismatch(f"bad {what} magic/version {got_magic!r}/{got_version}")
    if not has_variant:
        return None, fields, framed
    code, *fields = fields
    if code >= len(ft.VARIANTS):
        raise VersionMismatch(f"unknown {what} variant code {code}")
    return ft.VARIANTS[code], fields, framed


def write_atomic(path, data):
    """Write bytes to a sibling temporary file, then rename it over path,
    so readers never see a partly written file. A failed write or rename
    removes the temporary file before the error propagates."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_lines(path, lines):
    """Text lines, each ended by a newline, written as UTF-8 by write_atomic."""
    write_atomic(path, "".join(line + "\n" for line in lines).encode("utf-8"))


def read_text(path, error):
    """A UTF-8 text file's contents; bytes that are not UTF-8 raise error,
    a DeathcastError subclass, naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8 at byte {exc.start}") from None


def spawn_rngs(seed, n):
    """n independent, reproducible generators derived from one seed."""
    seqs = np.random.SeedSequence(seed).spawn(n)
    return [np.random.default_rng(s) for s in seqs]


def ordered_map(fn, items, threads=1):
    """Apply fn to items, results in input order.

    threads > 1 uses a thread pool; fn must be a pure function of its item
    for the output to be identical to the sequential path.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def ordered_process_map(fn, items, processes=1):
    """Yield fn(item) for each item, in input order.

    processes > 1 runs fn in that many forked worker processes, so fn must
    be a module-level function whose items and results pickle; keep both
    small, and have a worker write its large outputs itself. Forking is
    safe only while this process runs no other threads, as the CLI's synth
    and ingest do not. When the generator ends or is closed (close it, as
    contextlib.closing does, when the loop over it may stop early), items
    not yet started are dropped, and it returns once the running ones are
    done and the workers have exited. processes <= 1 applies fn in this
    process.
    """
    items = list(items)
    if processes <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    pool = ProcessPoolExecutor(min(processes, len(items)),
                               mp_context=multiprocessing.get_context("fork"))
    try:
        yield from pool.map(fn, items)
    finally:
        pool.shutdown(cancel_futures=True)
