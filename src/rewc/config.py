"""Flat key=value experiment configuration with typed validation."""

import hashlib
import math
from dataclasses import dataclass, field

from .continual import METHODS, Hyper, Method, check_rotation
from .data import MNIST_CLASSES, SYNTH_TRAIN_PER_CLASS
from .errors import ConfigError, DimensionError
from .network import ARCHS as _ARCHS
from .network import build_network

_DATASETS = ("synthetic", "mnist")


def _parse_bool(s):
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float(s):
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"not a finite number: {s.strip()!r}")
    return v


def _parse_int_list(s):
    s = s.strip()
    if not s:
        return []
    return [int(p) for p in s.split(",")]


# key -> (parser, default, where it is read: None if by every run, else
# (setting, test): where ``setting`` is read and ``test`` holds on its value).
_MNIST = ("dataset", lambda dataset: dataset == "mnist")
_SYNTHETIC = ("dataset", lambda dataset: dataset == "synthetic")
_CONSOLIDATES = ("method", lambda method: method != "ft")
_SCHEMA = {
    "dataset": (str, "synthetic", None),
    "mnist_dir": (str, "", _MNIST),
    "mnist_pad": (_parse_bool, True, _MNIST),
    "synth_dim": (int, 8, ("synth_image", lambda image: not image)),
    "synth_separation": (_parse_float, 10.0, _SYNTHETIC),
    "synth_noise_cond": (_parse_float, 1.0, _SYNTHETIC),
    "synth_image": (str, "", _SYNTHETIC),
    "classes_per_task": (int, 2, _SYNTHETIC),
    "tasks": (int, 2, None),
    "arch": (str, "mlp-custom", None),
    "mlp_hidden": (_parse_int_list, [32], ("arch", lambda arch: arch == "mlp-custom")),
    "method": (str, "ewc", ("tasks", lambda tasks: tasks > 1)),
    "lambda": (_parse_float, Method.lam, _CONSOLIDATES),
    "scope": (str, Method.scope, ("method", lambda m: m == "rewc")),
    "epochs": (int, Hyper.epochs, None),
    "batch": (int, Hyper.batch_size, None),
    "lr": (_parse_float, Hyper.lr, None),
    "seeds": (_parse_int_list, [0, 1, 2], None),
    "fim_samples": (int, Method.fim_samples, _CONSOLIDATES),
    "fim_mode": (str, Method.fim_mode, _CONSOLIDATES),
    "diag_layers": (_parse_int_list, list(Hyper.diag_layers), ("method", lambda m: m == "rewc")),
    "store_fim_blocks": (_parse_bool, Hyper.store_fim_blocks, ("diag_layers", bool)),
    "checkpoints": (_parse_bool, False, None),
    "outdir": (str, "results", None),
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

    def method(self):
        """The continual-learning method this config runs (ft reads no lambda: λ = 0)."""
        v = self.values
        return Method(v["method"], lam=0.0 if v["method"] == "ft" else v["lambda"],
                      scope=v["scope"], fim_samples=v["fim_samples"], fim_mode=v["fim_mode"])

    def stream_shape(self):
        """The input shape of this config's task stream and the class count
        of its first task, which sizes the head; from the settings alone,
        before any data exists."""
        v = self.values
        if v["dataset"] == "mnist":
            side = 32 if v["mnist_pad"] else 28
            return (side, side, 1), MNIST_CLASSES // v["tasks"]
        if not v["synth_image"]:
            return (v["synth_dim"],), v["classes_per_task"]
        dims = tuple(int(p) for p in v["synth_image"].lower().split("x"))
        return (dims if len(dims) == 3 else dims + (1,)), v["classes_per_task"]

    def network(self, seed):
        """The seeded network that this config's run at ``seed`` starts from."""
        arch = self.values["arch"]
        input_shape, head = self.stream_shape()
        if arch == "mlp-custom":
            hidden = list(self.values["mlp_hidden"]) + [head]
            return build_network(arch, input_shape=input_shape, hidden=hidden, seed=seed)
        return build_network(arch, head_classes=head, input_shape=input_shape, seed=seed)

    def hyper(self):
        """The training settings of this config's runs, at every seed."""
        v = self.values
        return Hyper(epochs=v["epochs"], batch_size=v["batch"], lr=v["lr"],
                     diag_layers=tuple(v["diag_layers"]),
                     store_fim_blocks=v["store_fim_blocks"])


def parse_config_text(text, source="<config>"):
    values = {k: default for k, (_, default, _) in _SCHEMA.items()}
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
        try:
            values[key] = _SCHEMA[key][0](val)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {e}") from e
    cfg = ExperimentConfig(values)
    _validate(cfg, source, seen)
    return cfg


def parse_config(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config_text(text, source=str(path))


def _unread_under(values, key):
    """The setting that leaves ``key`` unread, or None where it is read."""
    where = _SCHEMA[key][2]
    if where:
        setting, test = where
        return _unread_under(values, setting) or (None if test(values[setting]) else setting)


def _validate(cfg, source, written):
    """Check ``cfg``: first the settings that decide where keys are read, then that
    no key in ``written`` (those the file sets) goes unread, then the values read."""
    v = cfg.values

    def bad(msg):
        raise ConfigError(f"{source}: {msg}")

    for key, allowed in (("dataset", _DATASETS), ("arch", _ARCHS), ("method", METHODS)):
        if v[key] not in allowed:
            bad(f"{key} must be one of {allowed}, got {v[key]!r}")
    if v["tasks"] < 1:
        bad("tasks must be >= 1")
    unread = [(s, k) for k in sorted(written) if (s := _unread_under(v, k))]
    if unread:
        setting = unread[0][0]
        keys = ", ".join(k for s, k in unread if s == setting)
        shown = ",".join(map(str, v[setting])) if isinstance(v[setting], list) else v[setting]
        where = f"under {setting} = {shown}" if shown else f"with {setting} empty"
        bad(f"{keys} not read {where}; remove {keys}")
    if v["scope"] == "all":
        bad("scope = all rotates the same layers as all_no_last (the growing head is "
            "never rotated); use scope = all_no_last")
    try:
        method = cfg.method()
        cfg.hyper()
    except ValueError as e:
        bad(str(e))
    if not v["seeds"]:
        bad("seeds must be non-empty")
    if len(set(v["seeds"])) != len(v["seeds"]):
        bad(f"seeds {v['seeds']} repeat a seed, whose record would be written and "
            "counted twice; list each seed once")
    outside = [s for s in v["seeds"] if not 0 <= s < 2**32]
    if outside:
        # rng_for keeps a seed's low 32 bits: such a seed reruns another's streams.
        bad(f"seeds {outside} are outside [0, 2^32), where each seed draws its own streams")
    if v["dataset"] == "mnist" and MNIST_CLASSES % v["tasks"]:
        divisors = [d for d in range(1, MNIST_CLASSES + 1) if MNIST_CLASSES % d == 0]
        bad(f"tasks = {v['tasks']} does not split MNIST's {MNIST_CLASSES} classes into "
            f"equal groups; use one of {divisors}")
    if v["dataset"] == "mnist" and not v["mnist_dir"]:
        bad("dataset=mnist requires mnist_dir")
    if v["arch"] == "mlp-custom" and not v["mlp_hidden"]:
        bad("arch=mlp-custom requires mlp_hidden")
    if v["classes_per_task"] < 1:
        bad("classes_per_task must be >= 1")
    if v["dataset"] == "synthetic" and v["tasks"] * v["classes_per_task"] < 2:
        bad("a synthetic stream needs tasks * classes_per_task >= 2 classes, got "
            f"{v['tasks'] * v['classes_per_task']}")
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
    input_shape, first_classes = cfg.stream_shape()
    if v["dataset"] == "synthetic" and not _unread_under(v, "fim_samples"):
        rows = first_classes * SYNTH_TRAIN_PER_CLASS  # in every task
        if v["fim_samples"] > rows:
            bad(f"fim_samples {v['fim_samples']} exceeds the {rows} training rows of a "
                f"synthetic task ({SYNTH_TRAIN_PER_CLASS} per class); use at most {rows}")
    try:
        net = cfg.network(seed=0)
    except DimensionError as e:
        bad(f"arch = {v['arch']} cannot run on this stream's {input_shape} inputs: {e}")
    if v["method"] == "rewc":
        try:
            check_rotation(net, method, v["diag_layers"])
        except DimensionError as e:
            bad(f"arch = {v['arch']}: {e}")
