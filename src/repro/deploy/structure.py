"""Structural manifests: rebuild a module tree from its recorded structure.

At save time the module tree is walked into a JSON spec — per module its
import path, JSON-able constructor attributes, parameter/buffer shapes, and
children — and at load time the tree is rebuilt generically: the class is
imported, instantiated without running ``__init__`` (its recorded
attributes are restored instead), and its children/parameters/buffers
re-registered. Quantized layers are recorded as their *float* skeletons
(via the layer-handler registry), since the engine swaps integer executors
into those positions anyway. This is the only way a served model is
rebuilt.

The contract: the model's classes must be importable at load time —
classes defined in a script run as ``__main__`` record their source file
and are reloaded by executing it — and whatever their ``forward`` reads
must be modules, parameters, buffers, or JSON-able attributes (plus RNGs,
restored as fresh generators).
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from repro import nn


class StructureError(RuntimeError):
    """Raised when a module tree cannot be (de)serialized structurally."""


_SCALARS = (bool, int, float, str, type(None))
#: Instance attributes that are runtime state, not structure.
_SKIP_ATTRS = {"training"}


# ----------------------------------------------------------------------
# value encoding
# ----------------------------------------------------------------------
def _encode_value(value):
    """JSON-able tagged encoding, or ``None`` when not representable."""
    if isinstance(value, _SCALARS):
        return {"t": "raw", "v": value}
    if isinstance(value, (tuple, list)):
        items = [_encode_value(v) for v in value]
        if any(i is None for i in items):
            return None
        return {"t": "tuple" if isinstance(value, tuple) else "list", "v": items}
    if isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            return None
        items = {k: _encode_value(v) for k, v in value.items()}
        if any(i is None for i in items.values()):
            return None
        return {"t": "dict", "v": items}
    if isinstance(value, np.random.Generator):
        # Fresh generator at load: only training-mode stochastic layers
        # (dropout) consume these, and rebuilt models serve in eval mode.
        return {"t": "rng"}
    return None


def _decode_value(enc):
    t = enc["t"]
    if t == "raw":
        return enc["v"]
    if t == "tuple":
        return tuple(_decode_value(v) for v in enc["v"])
    if t == "list":
        return [_decode_value(v) for v in enc["v"]]
    if t == "dict":
        return {k: _decode_value(v) for k, v in enc["v"].items()}
    if t == "rng":
        return np.random.default_rng(0)
    raise StructureError(f"unknown encoded value tag {t!r}")


def _class_entry(obj) -> tuple[str, str | None]:
    """(import path, optional source file) identifying a module's class.

    Classes defined in a script run as ``__main__`` are not importable by
    module name from any other process, so their defining file is recorded
    too and the loader falls back to executing it.
    """
    cls = type(obj)
    path = f"{cls.__module__}.{cls.__qualname__}"
    source = None
    if cls.__module__ == "__main__":
        source = getattr(sys.modules.get("__main__"), "__file__", None)
        if source is not None:
            source = str(Path(source).resolve())
    return path, source


#: Script modules loaded for `__main__` class fallback, keyed by file path.
_SOURCE_MODULES: dict[str, object] = {}


def _module_from_source(source: str):
    module = _SOURCE_MODULES.get(source)
    if module is None:
        spec = importlib.util.spec_from_file_location(
            f"_repro_structural_{Path(source).stem}", source
        )
        if spec is None or spec.loader is None:
            raise StructureError(f"cannot load model source file {source!r}")
        module = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(module)
        except Exception as exc:  # missing file, import errors inside, ...
            raise StructureError(
                f"cannot execute model source file {source!r} recorded by the "
                f"structural manifest: {exc}"
            ) from exc
        _SOURCE_MODULES[source] = module
    return module


def _getattr_path(module, name: str, where: str):
    obj = module
    for part in name.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError as exc:
            raise StructureError(f"no class {name!r} in {where}") from exc
    return obj


def _resolve_class(path: str, source: str | None = None):
    module_path, _, name = path.rpartition(".")
    if not module_path:
        raise StructureError(f"unqualified class path {path!r}")
    try:
        module = importlib.import_module(module_path)
        return _getattr_path(module, name, f"module {module_path!r}")
    except (ImportError, StructureError) as exc:
        # A class defined in a script (saved as __main__.X) resolves in the
        # saving process but not elsewhere; fall back to the recorded file.
        if source is not None:
            return _getattr_path(
                _module_from_source(source), name, f"source file {source!r}"
            )
        if isinstance(exc, StructureError):
            raise
        raise StructureError(
            f"cannot import {module_path!r} to rebuild {path!r}; structural "
            "loading needs the model's classes importable"
        ) from exc


# ----------------------------------------------------------------------
# serialize
# ----------------------------------------------------------------------
def module_structure(module: nn.Module) -> dict:
    """Recursive structural spec of a module tree (JSON-able)."""
    from repro.quant.plan import get_handler
    from repro.quant.qlayers import QuantizedLayer, QuantMultiHeadAttention

    if isinstance(module, QuantizedLayer):
        # Record the float skeleton; the engine replaces this position with
        # an integer executor built from the plan + payload anyway.
        handler = get_handler(module.spec.kind)
        return {
            "quant": {"kind": module.spec.kind, "geometry": dict(module.spec.geometry)},
            "class": handler.float_class,
        }

    class_path, class_source = _class_entry(module)
    spec: dict = {"class": class_path}
    if class_source is not None:
        spec["class_source"] = class_source
    if isinstance(module, QuantMultiHeadAttention):
        # The wrapper adds operand quantizers at runtime; structurally it
        # is its float attention class.
        spec["class"] = "repro.nn.attention.MultiHeadAttention"
        spec.pop("class_source", None)

    attrs: dict = {}
    for key, value in vars(module).items():
        if key in _SKIP_ATTRS or key in module._params or key in module._buffers:
            continue
        if key in module._modules:
            continue
        enc = _encode_value(value)
        if enc is not None:
            attrs[key] = enc
    spec["attrs"] = attrs
    spec["params"] = {
        name: {"shape": list(p.shape), "dtype": str(p.data.dtype)}
        for name, p in module._params.items()
    }
    spec["buffers"] = {
        name: {"shape": list(np.shape(b)), "dtype": str(np.asarray(b).dtype)}
        for name, b in module._buffers.items()
    }
    spec["children"] = {
        name: module_structure(child) for name, child in module._modules.items()
    }
    return spec


# ----------------------------------------------------------------------
# rebuild
# ----------------------------------------------------------------------
def build_from_structure(spec: dict) -> nn.Module:
    """Rebuild a float module tree from :func:`module_structure` output.

    Parameters and buffers come back zero-filled at their recorded shapes;
    the caller (the engine) fills them from the artifact payload.
    """
    quant = spec.get("quant")
    if quant:
        from repro.quant.plan import LayerQuantSpec, get_handler

        lspec = LayerQuantSpec(name="", kind=quant["kind"], geometry=dict(quant["geometry"]))
        return get_handler(lspec.kind).skeleton(lspec)

    cls = _resolve_class(spec["class"], spec.get("class_source"))
    if not (isinstance(cls, type) and issubclass(cls, nn.Module)):
        raise StructureError(f"{spec['class']!r} is not an nn.Module subclass")
    module = cls.__new__(cls)
    nn.Module.__init__(module)
    for key, enc in spec.get("attrs", {}).items():
        object.__setattr__(module, key, _decode_value(enc))
    for name, child in spec.get("children", {}).items():
        setattr(module, name, build_from_structure(child))
    for name, meta in spec.get("params", {}).items():
        setattr(
            module,
            name,
            nn.Parameter(np.zeros([int(d) for d in meta["shape"]], dtype=meta["dtype"])),
        )
    for name, meta in spec.get("buffers", {}).items():
        module.register_buffer(
            name, np.zeros([int(d) for d in meta["shape"]], dtype=meta["dtype"])
        )
    return module
