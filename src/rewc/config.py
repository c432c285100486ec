"""Flat key=value experiment configuration with typed validation."""

import hashlib
from dataclasses import dataclass, field

from .continual import METHODS as _METHODS
from .errors import ConfigError
from .fim import FIM_MODES as _FIM_MODES
from .network import ARCHS as _ARCHS
from .rotation import RotationScope

_SCOPES = tuple(s.value for s in RotationScope)
_DATASETS = ("synthetic", "mnist")


def _parse_bool(s):
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_int_list(s):
    s = s.strip()
    if not s:
        return []
    return [int(p) for p in s.split(",")]


# key -> (parser, default); defaults follow the documented experiment setup.
_SCHEMA = {
    "dataset": (str, "synthetic"),
    "mnist_dir": (str, ""),
    "mnist_pad": (_parse_bool, True),
    "synth_dim": (int, 8),
    "synth_separation": (float, 10.0),
    "synth_noise_cond": (float, 1.0),
    "synth_image": (str, ""),
    "classes_per_task": (int, 2),
    "tasks": (int, 2),
    "arch": (str, "mlp-custom"),
    "mlp_hidden": (_parse_int_list, [32]),
    "method": (str, "ewc"),
    "lambda": (float, 100.0),
    "scope": (str, "all_no_last"),
    "epochs": (int, 5),
    "batch": (int, 64),
    "lr": (float, 0.001),
    "seeds": (_parse_int_list, [0, 1, 2]),
    "fim_samples": (int, 200),
    "fim_mode": (str, "sampled"),
    "diag_layers": (_parse_int_list, []),
    "store_fim_blocks": (_parse_bool, False),
    "checkpoints": (_parse_bool, False),
    "outdir": (str, "results"),
}


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    def hash(self):
        """Stable digest of everything that affects results (outdir excluded)."""
        items = sorted(
            (k, repr(v)) for k, v in self.values.items() if k != "outdir"
        )
        blob = ";".join(f"{k}={v}" for k, v in items)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def as_dict(self):
        return dict(self.values)


def parse_config_text(text, source="<config>"):
    values = {k: default for k, (_, default) in _SCHEMA.items()}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(val)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {e}") from e
    cfg = ExperimentConfig(values)
    _validate(cfg, source)
    return cfg


def parse_config(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config_text(text, source=str(path))


def _validate(cfg, source):
    v = cfg.values

    def bad(msg):
        raise ConfigError(f"{source}: {msg}")

    if v["dataset"] not in _DATASETS:
        bad(f"dataset must be one of {_DATASETS}, got {v['dataset']!r}")
    if v["arch"] not in _ARCHS:
        bad(f"arch must be one of {_ARCHS}, got {v['arch']!r}")
    if v["method"] not in _METHODS:
        bad(f"method must be one of {_METHODS}, got {v['method']!r}")
    if v["scope"] not in _SCOPES:
        bad(f"scope must be one of {_SCOPES}, got {v['scope']!r}")
    if v["fim_mode"] not in _FIM_MODES:
        bad(f"fim_mode must be one of {_FIM_MODES}, got {v['fim_mode']!r}")
    if not v["seeds"]:
        bad("seeds must be non-empty")
    if v["tasks"] < 1:
        bad("tasks must be >= 1")
    if v["epochs"] < 1 or v["batch"] < 1:
        bad("epochs and batch must be >= 1")
    if v["lr"] <= 0:
        bad("lr must be positive")
    if v["lambda"] < 0:
        bad("lambda must be non-negative")
    if v["fim_samples"] < 1:
        bad("fim_samples must be >= 1")
    if v["dataset"] == "mnist" and not v["mnist_dir"]:
        bad("dataset=mnist requires mnist_dir")
    if v["arch"] == "mlp-custom" and not v["mlp_hidden"]:
        bad("arch=mlp-custom requires mlp_hidden")
    if v["classes_per_task"] < 1:
        bad("classes_per_task must be >= 1")
    if v["synth_dim"] < 1:
        bad("synth_dim must be >= 1")
    if v["synth_separation"] <= 0:
        bad("synth_separation must be positive")
    if any(w < 1 for w in v["mlp_hidden"]):
        bad(f"mlp_hidden widths must be >= 1, got {v['mlp_hidden']}")
    if v["synth_noise_cond"] < 1:
        bad("synth_noise_cond must be >= 1")
    if v["synth_image"]:
        dims = v["synth_image"].lower().split("x")
        if len(dims) not in (2, 3) or not all(p.isdigit() and int(p) > 0 for p in dims):
            bad(f"synth_image must look like 8x8 or 8x8x1, got {v['synth_image']!r}")
