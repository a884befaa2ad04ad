"""The frozen run specs, one per command that runs something, and the JSON
object files they are built from, all checked.

SynthSpec sets synth, CoregCfg impute, ModelSpec one trained model and
SweepSpec a sweep. A spec's field is the one place a run parameter is
declared: its name, type and default are the field's, its rule is checked in
__post_init__, and the CLI derives its flag from it. This module imports no
numerical module beyond dataprep, so building the parser or a sweep's spec
loads no LSTM code.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field

from .dataprep import CLIMATE_FEATURES, VARIANTS
from .errors import ValidationError

ARCHITECTURES = ("plain", "stacked", "bidir", "bidir_stacked")

# each sweep kind and the header of its MSE table's first column
SWEEP_KINDS = {"variant": "Variant", "timestep": "Time step",
               "predictor": "Predictor", "architecture": "Model"}
# the ModelSpec field each kind's default grid sweeps; the architecture
# grid's num_layers is not one, as its stacked cells read it from base
KIND_FIELDS = {"variant": "variant", "timestep": "timesteps",
               "predictor": "predictors", "architecture": "arch"}


@dataclass(frozen=True)
class SynthSpec:
    """The synthetic bundle: its size, the larval effect beta on cases, the
    noise scale and the share of larval surveys left out."""
    districts: int = 26
    months: int = 84
    beta: float = 1.0
    noise: float = 1.0
    missing_rate: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.districts < 1:
            raise ValidationError(f"districts must be >= 1, got {self.districts}")
        if self.months < 3:
            raise ValidationError(f"months must be >= 3, got {self.months}")
        if self.beta < 0:
            raise ValidationError(f"beta must be >= 0, got {self.beta}")
        if self.noise < 0:
            raise ValidationError(f"noise must be >= 0, got {self.noise}")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValidationError(
                f"missing_rate must lie in [0, 1), got {self.missing_rate}"
            )


@dataclass(frozen=True)
class CoregCfg:
    """COREG imputation: both regressors use k neighbours, the first Minkowski
    order p1 and the second p2."""
    k: int = 3
    p1: float = 2.0
    p2: float = 5.0
    max_iters: int = 100
    pool_size: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValidationError(
                f"co-training needs k >= 2, got k={self.k}: with k=1 each "
                "training point is its own nearest neighbour, so every "
                "confidence delta is 0 and nothing is ever picked"
            )
        for name in ("p1", "p2"):
            if getattr(self, name) < 1:
                raise ValidationError(
                    f"Minkowski order {name} must be >= 1, got {getattr(self, name)}")
        if self.p1 == self.p2:
            raise ValidationError(
                "the two regressors must use different Minkowski orders"
            )
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.pool_size < 1:
            raise ValidationError(f"pool_size must be >= 1, got {self.pool_size}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ModelSpec:
    """One trained model: the network, its windows (timesteps, variant,
    predictors), and how it is trained: the train share ratio of the
    chronological split, the validation carve off its end and Adam's rate."""
    arch: str = "stacked"
    num_layers: int = 4
    hidden: int = 32
    dropout: float = 0.2
    epochs: int = 3000
    l2_lambda: float = 0.0
    timesteps: int = 3
    variant: str = "II"
    seed: int = 0
    predictors: tuple[str, ...] = CLIMATE_FEATURES  # distinct climate columns of a row
    ratio: float = 0.85
    validation_fraction: float = 0.15
    lr: float = 1e-3

    def __post_init__(self):
        # a tuple, so a spec given a list compares equal to one given a tuple
        object.__setattr__(self, "predictors", tuple(self.predictors))
        if self.arch not in ARCHITECTURES:
            raise ValidationError(
                f"unknown architecture {self.arch!r}, not one of {ARCHITECTURES}")
        if self.arch in ("plain", "bidir") and self.num_layers != 1:
            raise ValidationError(f"{self.arch} requires num_layers=1, got {self.num_layers}")
        if self.arch in ("stacked", "bidir_stacked") and self.num_layers < 2:
            raise ValidationError(f"{self.arch} requires num_layers>=2, got {self.num_layers}")
        if self.hidden < 1:
            raise ValidationError(f"hidden width must be >= 1, got {self.hidden}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.l2_lambda < 0:
            raise ValidationError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if self.timesteps < 2:
            raise ValidationError(f"timesteps must be >= 2, got {self.timesteps}")
        if self.variant not in VARIANTS:
            raise ValidationError(
                f"variant must be {' or '.join(VARIANTS)}, got {self.variant!r}")
        for i, p in enumerate(self.predictors):
            if p not in CLIMATE_FEATURES:
                raise ValidationError(f"unknown predictor {p!r}")
            if p in self.predictors[:i]:
                raise ValidationError(f"predictor {p!r} repeats")
        if not 0.0 < self.ratio < 1.0:
            raise ValidationError(f"ratio must lie in (0, 1), got {self.ratio}")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValidationError(
                f"validation_fraction must lie in [0, 1), got {self.validation_fraction}")
        if not self.lr > 0.0:
            raise ValidationError(f"lr must be > 0, got {self.lr}")

    @property
    def bidirectional(self):
        return self.arch in ("bidir", "bidir_stacked")

    @property
    def columns(self):
        """Record fields of one window row, in column order: the climate
        predictors, the larval index under variant II, then the incidence."""
        larval = ("larval_index",) if self.variant == "II" else ()
        return (*self.predictors, *larval, "cases")


@dataclass(frozen=True)
class SweepSpec:
    """A sweep trains each cell of its grid once per seed. base holds the
    ModelSpec fields the sweep changes from the defaults, and a grid cell a
    label and the fields the cell changes from base; grid None is the default
    grid of kind. A base field that every cell sets would be read by none, so
    it is refused: the kind's field (KIND_FIELDS) for a default grid, any key
    every cell sets for a given one. Every spec is built and checked here,
    before any training; an error in base or a cell names the part, and the
    build of the SweepSpec itself (specs.build) names its source."""
    kind: str = None  # one of SWEEP_KINDS; None (no kind given) is refused
    base: dict = field(default_factory=dict)
    grid: tuple[dict, ...] = None
    seeds: tuple[int, ...] = (0, 1, 2)
    cells: list = field(init=False, repr=False)  # (label, ModelSpec) per grid cell

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValidationError(f"sweep kind must be one of {tuple(SWEEP_KINDS)}")
        if self.grid is None:
            every_cell_sets = {KIND_FIELDS[self.kind]}
        elif not self.grid:
            raise ValidationError("sweep grid must be non-empty")
        else:
            every_cell_sets = set.intersection(*map(set, self.grid)) - {"label"}
        unread = sorted(every_cell_sets & set(self.base))
        if unread:
            raise ValidationError(
                f"sweep base: every grid cell sets {', '.join(unread)}, "
                "so the base value would be ignored")
        base = build(ModelSpec, self.base, "sweep base")
        grid = default_grid(self.kind, base) if self.grid is None else self.grid
        if not self.seeds:
            raise ValidationError("sweep needs at least one seed")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValidationError(f"sweep seeds repeat: {list(self.seeds)}")
        cells = []
        by_slug = {}  # a run's files are named by the slug of its label
        for overrides in map(dict, grid):
            label = overrides.pop("label", None)
            if not isinstance(label, str):
                raise ValidationError(f"grid cell label must be a str, got {label!r}")
            slug = slugify(label)
            if not slug:
                raise ValidationError(
                    f"grid cell label {label!r} has no letter or digit to name files by")
            if slug in by_slug:
                raise ValidationError(f"grid cells {by_slug[slug]!r} and {label!r} share files")
            by_slug[slug] = label
            values = self.base | overrides
            # each run's seed is derived from its seed in seeds and the cell label
            if "seed" in values:
                at = "sweep base" if "seed" in self.base else f"grid cell {label!r}"
                raise ValidationError(f"{at}: unknown keys ['seed']")
            cells.append((label, build(ModelSpec, values, f"grid cell {label!r}")))
        object.__setattr__(self, "cells", cells)


def slugify(label):
    """label in lower case, each run of characters other than letters and
    digits one dash, with none at either end."""
    dashed = "".join(ch if ch.isalnum() else "-" for ch in label.lower())
    return "-".join(part for part in dashed.split("-") if part)


def timestep_grid(timesteps=(2, 3, 4, 5)):
    return [{"label": f"t = {t}", "timesteps": int(t)} for t in timesteps]


def default_grid(kind, base):
    """The grid of a sweep kind, one of SWEEP_KINDS, over a base ModelSpec."""
    if kind == "timestep":
        return timestep_grid()
    if kind == "predictor":
        return [
            {"label": "Temperature", "predictors": ("temp_mean",)},
            {"label": "Rainfall", "predictors": ("rain_total",)},
            {"label": "Relative Humidity", "predictors": ("rh_mean",)},
            {"label": "All three parameters", "predictors": CLIMATE_FEATURES},
        ]
    if kind == "architecture":
        deep = max(2, base.num_layers)
        return [
            {"label": "LSTM", "arch": "plain", "num_layers": 1},
            {"label": "Stacked LSTM", "arch": "stacked", "num_layers": deep},
            {"label": "Bidirectional LSTM", "arch": "bidir", "num_layers": 1},
            {"label": "Bidirectional Stacked LSTM", "arch": "bidir_stacked",
             "num_layers": deep},
        ]
    return [  # variant
        {"label": "Variant I", "variant": "I"},
        {"label": "Variant II", "variant": "II"},
    ]


def read_object(path, what):
    """The JSON object in the file at path. A file that cannot be read, is not
    JSON or holds another value raises ValidationError naming what and path."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise ValidationError(f"cannot read {what} {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object, got {data!r}")
    return data


def typed(cls, data, where):
    """The values of a dict data of cls's init fields (a read_object result
    or a dict-typed field of one), each of its field's annotated type: int
    (not bool), float (an int is stored as a float), str, dict, or
    tuple[T, ...] given as a list of T. A missing field without a default, an
    unknown key or a value of another type raises ValidationError naming
    where and the key."""
    hints = typing.get_type_hints(cls)
    init = [f for f in dataclasses.fields(cls) if f.init]
    unknown = sorted(set(data) - {f.name for f in init})
    if unknown:
        raise ValidationError(f"{where}: unknown keys {unknown}")
    missing = [f.name for f in init if f.name not in data
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValidationError(f"{where}: missing keys {missing}")
    values = {}
    for key, value in data.items():
        tp = hints[key]
        try:
            values[key] = _typed(tp, value)
        except TypeError:
            raise ValidationError(
                f"{where}: {key} must be {_name(tp)}, got {value!r}") from None
    return values


def build(cls, data, where, flags=()):
    """cls(**typed(cls, data, where)). A rule of cls that a value breaks
    raises ValidationError prefixed with where and then flags, the names of
    the CLI flags that set some of data's values; with no where (flags
    alone) there is no prefix."""
    values = typed(cls, data, where)
    try:
        return cls(**values)
    except ValidationError as exc:
        raise ValidationError(
            f"{' '.join([where, *flags])}: {exc}" if where else str(exc)) from None


def _name(tp):
    if typing.get_origin(tp) is tuple:
        return f"a list of {_name(typing.get_args(tp)[0])}"
    return tp.__name__


def _typed(tp, value):
    if typing.get_origin(tp) is tuple and type(value) in (list, tuple):
        return tuple(_typed(typing.get_args(tp)[0], v) for v in value)
    if tp is float and type(value) is int:
        return float(value)
    if type(value) is not tp:
        raise TypeError(tp)
    return value
