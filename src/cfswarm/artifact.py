"""The one on-disk format: a numpy ``.npz`` zip of named arrays plus metadata.

The zip directory gives each entry's name and offset, each ``.npy`` header
its dtype and shape, and a CRC-32 guards each entry's bytes, so a truncated
or corrupted file fails to load instead of loading as wrong data.  Metadata
is one JSON string stored under a reserved key.  Entries are stamped with a
fixed date, so identical inputs give byte-identical files.
"""

import json
import zipfile

import numpy as np

from .errors import ContractError

META_KEY = "__meta__"


def save(path, arrays: dict, meta: dict) -> None:
    """Write ``arrays`` (name -> array) and JSON-serializable ``meta``.

    ``path`` should end in ``.npz``; numpy appends the suffix otherwise.
    """
    np.savez(path, allow_pickle=False, **arrays,
             **{META_KEY: np.array(json.dumps(meta, sort_keys=True))})


def _fits(value, kind) -> bool:
    """Whether a JSON value is of kind: None (any value), a type (a bool is
    no int), a tuple of kinds (any of them), [kind] (a list of them) or
    {str: kind} (a map of them)."""
    if kind is None:
        return True
    if isinstance(kind, tuple):
        return any(_fits(value, k) for k in kind)
    if isinstance(kind, list):
        return isinstance(value, list) and all(_fits(v, kind[0])
                                               for v in value)
    if isinstance(kind, dict):
        return isinstance(value, dict) and all(_fits(v, kind[str])
                                               for v in value.values())
    return type(value) is kind


def load(path, names, fmt: str | None = None,
         meta_kinds: dict | None = None) -> tuple[dict, dict]:
    """Read every array and the metadata; each of ``names`` must be present.

    With ``fmt``, the metadata's "format" must equal it (checked first, so
    a file of another format is named as such); each key of ``meta_kinds``
    must be in the metadata and hold a value of its kind (see ``_fits``).
    Any failure (missing file, key or metadata key, malformed metadata,
    truncation, checksum mismatch, junk, a NaN or inf in a float array) is
    a ContractError naming the file.
    """
    try:
        with np.load(path, allow_pickle=False) as npz:
            arrays = {key: npz[key] for key in npz.files}
        meta = json.loads(arrays.pop(META_KEY)[()])
    except FileNotFoundError as exc:
        raise ContractError(f"artifact {str(path)!r} not found") from exc
    except (OSError, EOFError, KeyError, TypeError, ValueError,
            RuntimeError, zipfile.BadZipFile) as exc:
        raise ContractError(
            f"artifact {str(path)!r} is truncated or corrupt: {exc}") from exc
    if not isinstance(meta, dict):
        raise ContractError(f"artifact {str(path)!r} has no metadata map")
    if fmt is not None and meta.get("format") != fmt:
        raise ContractError(f"artifact {str(path)!r} has format "
                            f"{meta.get('format')!r}, expected {fmt!r}")
    missing = [name for name in names if name not in arrays]
    if missing:
        raise ContractError(f"artifact {str(path)!r} lacks {missing}")
    meta_kinds = meta_kinds or {}
    missing = [key for key in meta_kinds if key not in meta]
    if missing:
        raise ContractError(f"artifact {str(path)!r} lacks metadata {missing}")
    wrong = [key for key, kind in meta_kinds.items()
             if not _fits(meta[key], kind)]
    if wrong:
        raise ContractError(f"artifact {str(path)!r} has malformed metadata "
                            f"{wrong}")
    bad = [key for key, arr in arrays.items()
           if arr.dtype.kind == "f" and not np.isfinite(arr).all()]
    if bad:
        raise ContractError(f"artifact {str(path)!r}: {bad} hold NaN or inf")
    return arrays, meta
