"""Parameter and FLOP accounting: the formula sheet that the configs' closed
forms in elakit.modules follow, an enumeration oracle, and placement audits.

FLOP convention (normative for this artifact): one multiply-accumulate = 1,
divisions and exponentials = 1 each. Per-op formula sheet, per sample:

    strip pool over extent L' of a (C, H, W) map   C*H*W + C*L_out
    global average pool                             C*H*W + C
    grouped 1D conv, length L                       C_out*(C_in/g)*k*L (+C_out*L bias)
    1x1 conv over P positions                       C_out*C_in*P (+C_out*P bias)
    BN/GN over (C, L)                               4*C*L
    sigmoid                                         3 per element (exp, add, div)
    hard swish                                      2 per element; relu 1
    two-directional gating (outer product of maps)  2*C*H*W
    per-channel gating                              C*H*W

Reconciliation against published whole-network tables is a soft check with
a x2 tolerance band: insertion points, bias usage, and bottleneck flooring
in the published numbers are unknown, so the assumption log in every report
records exactly what this audit assumed.
"""

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

# the activation costs are re-exported beside the formula sheet they follow
from elakit.modules import HARD_SWISH_COST, RELU_COST, SIGMOID_COST  # noqa: F401
from elakit.modules import build_attention, lookup

ASSUMPTIONS = [
    "one attention module inserted per listed site; no other changes",
    "ELA 1D convs bias-free; GN affine per direction (2 gamma/beta pairs)",
    "ELA uses two independent directional convs (separate F_h and F_w)",
    "CA: F1 bias-free (norm follows); F_h/F_w carry biases; norm affine counted",
    "CA bottleneck width mip = max(8, round(C/r))",
    "FLOPs are MACs (1 each); div/exp count 1; see formula sheet",
]


def param_count(kind, channels):
    """Closed-form learnable parameter count for one module at C channels."""
    return lookup(kind)[1].param_count(channels)


def param_count_enumerated(kind, channels):
    """Oracle: instantiate the module and walk its parameter store."""
    return build_attention(kind, channels).params.total_params()


def flop_count(kind, channels, height, width):
    """Per-sample multiply-accumulate count for one module at one site."""
    return lookup(kind)[1].flop_count(channels, height, width)


# ---------------------------------------------------------------------------
# network audits
# ---------------------------------------------------------------------------

@dataclass
class Site:
    name: str
    channels: int
    height: int
    width: int

    def __post_init__(self):
        dims = (self.channels, self.height, self.width)
        if not all(type(d) is int for d in dims):
            raise ValueError(f"site {self.name!r}: dims must be integers, got {dims}")
        if min(dims) < 1:
            raise ValueError(f"site {self.name!r}: all dims must be >= 1")


SITE_KEYS = ("name", "channels", "height", "width")


@dataclass
class PlacementSpec:
    network: str
    module: str
    sites: list
    baseline_params_m: float | None = None  # millions of params, whole network
    published_total_params_m: float | None = None

    @classmethod
    def from_dict(cls, data):
        """Validate a parsed placement file; every defect is a ValueError."""
        if not isinstance(data, dict):
            raise ValueError("placement must be a JSON object")
        cfg = lookup(data.get("module"))[1]  # an unknown or missing name fails here
        raw_sites = data.get("sites", [])
        if not isinstance(raw_sites, list) or not all(
            isinstance(s, dict) and all(k in s for k in SITE_KEYS) for s in raw_sites
        ):
            raise ValueError(f"'sites' must be a list of objects with keys {SITE_KEYS}")
        sites = [Site(*(s[k] for k in SITE_KEYS)) for s in raw_sites]
        names = [s.name for s in sites]
        if not all(isinstance(n, str) for n in names) or len(set(names)) != len(names):
            raise ValueError("site names must be unique strings")
        for site in sites:
            try:  # the closed form raises the config's own error for a C it rejects
                cfg.param_count(site.channels)
            except ValueError as exc:
                raise ValueError(f"site {site.name!r}: {exc}") from None
        for key in ("baseline_params_m", "published_total_params_m"):
            value = data.get(key)
            # NaN, Infinity and an int beyond the float range all fail the bound
            if value is not None and not (
                type(value) in (int, float) and abs(value) <= sys.float_info.max
            ):
                raise ValueError(f"{key!r} must be a finite number, got {value!r}")
        figures = data.get("published_total_params_m"), data.get("baseline_params_m")
        if None not in figures:
            published, baseline = map(float, figures)
            # the audit reports their difference, which can overflow although both are finite
            if not math.isfinite(published - baseline):
                raise ValueError("'published_total_params_m' minus 'baseline_params_m' "
                                 f"is not finite: {published!r} - {baseline!r}")
        network = data.get("network", "unnamed")
        if not isinstance(network, str):
            raise ValueError(f"'network' must be a string, got {network!r}")
        return cls(
            network=network,
            module=data["module"].lower(),  # as the registry names it
            sites=sites,
            baseline_params_m=data.get("baseline_params_m"),
            published_total_params_m=data.get("published_total_params_m"),
        )

    @classmethod
    def from_json_file(cls, path):
        """Read and validate a placement file; any defect is a ValueError naming the file."""
        with open(path, "rb") as fh:
            blob = fh.read()
        try:
            return cls.from_dict(json.loads(blob.decode("utf-8")))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {exc.lineno}: {exc.msg}") from None
        except ValueError as exc:  # bad UTF-8, or a defect that from_dict names
            raise ValueError(f"{path}: {exc}") from None


@dataclass
class AuditReport:
    network: str
    module: str
    rows: list  # (site, params, flops)
    total_params: int
    total_flops: int
    enumeration_ok: bool
    assumptions: list = field(default_factory=list)
    reconciliation: dict | None = None

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["site", "module", "params", "flops"])
        for site, params, flops in self.rows:
            writer.writerow([site, self.module, params, flops])
        writer.writerow(["TOTAL", self.module, self.total_params, self.total_flops])
        writer.writerow(["DELTA", self.module, self.total_params, self.total_flops])
        return buf.getvalue()

    def to_json(self):
        return json.dumps(
            {
                "network": self.network,
                "module": self.module,
                "sites": [
                    {"site": s, "params": p, "flops": f} for s, p, f in self.rows
                ],
                "total_params": self.total_params,
                "total_flops": self.total_flops,
                "delta_params": self.total_params,
                "enumeration_ok": self.enumeration_ok,
                "assumptions": self.assumptions,
                "reconciliation": self.reconciliation,
            },
            indent=2,
            allow_nan=False,  # strict JSON: NaN and Infinity are not JSON tokens
        )


def audit_network(spec):
    """Audit every site in a placement, cross-checking closed-form counts
    against the parameter-store enumeration oracle."""
    rows = []
    enumeration_ok = True
    for site in spec.sites:
        params = param_count(spec.module, site.channels)
        try:
            enumerated = param_count_enumerated(spec.module, site.channels)
        except MemoryError as exc:
            raise MemoryError(f"site {site.name!r}: {exc}") from None
        if params != enumerated:
            enumeration_ok = False
        rows.append((site.name, params, flop_count(spec.module, site.channels, site.height, site.width)))
    total_params = sum(p for _, p, _ in rows)
    total_flops = sum(f for _, _, f in rows)

    reconciliation = None
    if spec.baseline_params_m is not None and spec.published_total_params_m is not None:
        published_delta_m = spec.published_total_params_m - spec.baseline_params_m
        our_delta_m = total_params / 1e6
        # a published total at or below the baseline has no ratio to report
        ratio = our_delta_m / published_delta_m if published_delta_m > 0 else None
        reconciliation = {
            "published_delta_params_m": round(published_delta_m, 6),
            "audit_delta_params_m": round(our_delta_m, 6),
            "ratio": None if ratio is None else round(ratio, 4),
            "within_2x": ratio is not None and 0.5 <= ratio <= 2.0,
            "note": (
                "published insertion details are unknown; agreement within a "
                "x2 band is the acceptance bar, exact equality is not expected"
            ),
        }
    return AuditReport(
        network=spec.network,
        module=spec.module,
        rows=rows,
        total_params=total_params,
        total_flops=total_flops,
        enumeration_ok=enumeration_ok,
        assumptions=list(ASSUMPTIONS),
        reconciliation=reconciliation,
    )
