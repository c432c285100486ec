"""Little-endian records shared by the REWC, RFIM and RDAT file formats.

Every file opens with a 4-byte magic and a u32 version.  Integers are
little-endian; names are UTF-8 with a u32 byte-length prefix; arrays are raw
``<f8`` (RDAT labels: ``<i8``).  A shaped array is ``ndim u8 | dims u32...``
then its payload; an RDAT array puts a dtype tag u8 (0 float64, 1 int64) in
front.  ``Reader`` is the one place that checks magic, version, short reads,
name decoding, tags and the end of the data (no byte may follow the last
record): each fault raises ``DataFormatError``.
"""

import struct

import numpy as np

from .errors import DataFormatError

TAG_DTYPES = ("<f8", "<i8")  # indexed by the RDAT dtype tag


class Writer:
    """Writes one file; use as a context manager."""

    def __init__(self, path, magic, version):
        self._f = open(path, "wb")
        self._f.write(magic)
        self.u32(version)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def pack(self, fmt, *vals):
        self._f.write(struct.pack("<" + fmt, *vals))

    def u32(self, *vals):
        self.pack("I" * len(vals), *vals)

    def name(self, text):
        raw = text.encode()
        self.u32(len(raw))
        self._f.write(raw)

    def dims(self, shape):
        self.pack("B", len(shape))
        self.u32(*shape)

    def payload(self, arr, dtype="<f8"):
        self._f.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())

    def array(self, arr, tagged=False):
        """Shaped record; ``tagged`` writes int64 arrays as tag 1, all else as float64."""
        arr = np.asarray(arr)
        tag = int(tagged and arr.dtype == np.int64)
        if tagged:
            self.pack("B", tag)
        self.dims(arr.shape)
        self.payload(arr, TAG_DTYPES[tag])


class Reader:
    """Reads one whole file written by ``Writer`` and checks its header."""

    def __init__(self, path, magic, version, what):
        with open(path, "rb") as f:
            self._buf = memoryview(f.read())
        self._what = what
        if self._buf[: len(magic)] != magic:
            raise DataFormatError(f"bad {what} magic (expected {magic.decode()})")
        self._pos = len(magic)
        found = self.u32()
        if found != version:
            raise DataFormatError(
                f"unsupported {what} version {found} (this build reads version {version})"
            )

    def _take(self, n):
        if n > len(self._buf) - self._pos:
            raise DataFormatError(f"{self._what} truncated")
        self._pos += n
        return self._buf[self._pos - n : self._pos]

    def end(self):
        """Require that the whole file was read."""
        extra = len(self._buf) - self._pos
        if extra:
            raise DataFormatError(f"{self._what} has {extra} bytes after its last record")

    def unpack(self, fmt):
        fmt = "<" + fmt
        return struct.unpack(fmt, self._take(struct.calcsize(fmt)))

    def u32(self):
        return self.unpack("I")[0]

    def name(self):
        raw = self._take(self.u32())
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{self._what} name is not UTF-8: {bytes(raw[:32])!r}") from e

    def dims(self):
        return self.unpack("I" * self.unpack("B")[0])

    def payload(self, shape, dtype="<f8"):
        count = np.prod(shape, dtype=object)  # a Python int: u32 dims cannot overflow it
        return np.frombuffer(self._take(8 * count), dtype=dtype).astype(dtype[1:]).reshape(shape)

    def array(self, tag=None):
        """Shaped record; with ``tag`` given, read its tag and require that one,
        which also rejects every unknown tag."""
        if tag is not None:
            found = self.unpack("B")[0]
            if found != tag:
                raise DataFormatError(f"{self._what}: array tag {found}, expected tag {tag}")
        return self.payload(self.dims(), TAG_DTYPES[tag or 0])
