"""Small shared helpers: stable hashing, binary framing, deterministic parallel map."""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ChecksumMismatch, VersionMismatch
from .features import VARIANTS


def hash64(text: str) -> int:
    """Stable 64-bit hash of a string (blake2b, little-endian)."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def seal(header, magic, version, variant, *fields, body=()):
    """Binary file framing: header (magic, version, variant code as the
    index into features.VARIANTS, fields), the body's bytes-like parts, and
    an 8-byte blake2b of both, joined with one copy."""
    parts = [header.pack(magic, version, VARIANTS.index(variant), *fields), *body]
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(part)
    return b"".join([*parts, digest.digest()])


def unseal(blob, header, magic, version, what):
    """(variant, other header fields, memoryview of header + body) of a
    sealed blob, after the length, checksum, magic, version and variant-code
    checks."""
    if len(blob) < header.size + 8:
        raise ChecksumMismatch(f"{what} truncated")
    framed = memoryview(blob)[:-8]
    if hashlib.blake2b(framed, digest_size=8).digest() != blob[-8:]:
        raise ChecksumMismatch(f"{what} checksum does not match contents")
    got_magic, got_version, code, *fields = header.unpack_from(framed)
    if got_magic != magic or got_version != version:
        raise VersionMismatch(f"bad {what} magic/version {got_magic!r}/{got_version}")
    if code >= len(VARIANTS):
        raise VersionMismatch(f"unknown {what} variant code {code}")
    return VARIANTS[code], fields, framed


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
