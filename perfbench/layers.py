"""Which haarq functions the traced run wraps, and the per-layer metrics.

Each layer is a public function, wrapped at the module attribute through
which the CLI reaches it: `cli` binds its imports by name, so the wrapper
on `haarq.cli.read_signal` sees every call the CLI makes, while
`haar_analyze`, `dft` and `dumps_canonical` are reached through the module
that calls them.  Nothing under `src/` changes.
"""

from statistics import median

# (span name, module, attribute, positional index of the written path or None,
#  fields reported as per-layer metrics)
LAYERS = (
    ("report_io.read_signal", "haarq.cli", "read_signal", None,
     ("s", "calls", "ns_per_sample")),
    ("report_io.write_values", "haarq.cli", "write_values", 0, ("s", "bytes")),
    ("report_io.write_report", "haarq.cli", "write_report", 1, ("self_s", "bytes")),
    ("report_io.dumps_canonical", "haarq.report_io", "dumps_canonical", None, ("s",)),
    ("report_io.write_spectrum_csv", "haarq.cli", "write_spectrum_csv", 1,
     ("s", "bytes")),
    ("quantizer.quantize_haar_optimal", "haarq.cli", "quantize_haar_optimal", None,
     ("s", "calls", "ns_per_sample")),
    ("quantizer.verify_haar_bounds", "haarq.cli", "verify_haar_bounds", None,
     ("self_s", "calls")),
    ("haar.haar_analyze", "haarq.quantizer", "haar_analyze", None, ("s", "calls")),
    ("spectral.dft", "haarq.spectral", "dft", None, ("s", "calls", "ns_per_sample")),
    ("spectral.spectrum_error", "haarq.cli", "spectrum_error", None, ("self_s",)),
)
MAIN = "cli.main"

UNITS = {"s": "s", "self_s": "s", "calls": "count", "bytes": "bytes",
         "ns_per_sample": "ns"}

# Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    **{f"{name}.{field}": UNITS[field]
       for name, _, _, _, fields in LAYERS for field in fields},
    "process.cpu_s": "s",
    "process.cpu_per_wall": "ratio",
    "trace.overhead_ratio": "ratio",
}


def layer_table(totals: dict[str, dict], samples: int) -> dict[str, dict]:
    """Every traced name's s, self_s, calls, bytes and ns_per_sample; names
    that were never called read 0."""
    table = {}
    for name in (MAIN, *(layer[0] for layer in LAYERS)):
        t = dict(totals.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "bytes": 0}))
        t["ns_per_sample"] = t["s"] * 1e9 / samples
        table[name] = t
    return table


def accounting_gap(totals: dict[str, dict]) -> float:
    """Traced cli.main duration minus the self times of every traced name;
    0 (to rounding) when the layers account for the whole main span."""
    return totals[MAIN]["s"] - sum(t["self_s"] for t in totals.values())


def per_layer_metrics(tables, import_s, cpu_s, untraced_walls, traced_walls) -> dict:
    """Medians over the traced invocations' layer tables, plus process and
    trace figures from the untraced invocations of the same run."""
    out = {
        "cli.import_s": median(import_s),
        "cli.main.s": median(t[MAIN]["s"] for t in tables),
        "cli.main.self_s": median(t[MAIN]["self_s"] for t in tables),
    }
    for name, _, _, _, fields in LAYERS:
        for field in fields:
            out[f"{name}.{field}"] = median(t[name][field] for t in tables)
    wall = median(untraced_walls)
    out["process.cpu_s"] = median(cpu_s)
    out["process.cpu_per_wall"] = out["process.cpu_s"] / wall
    out["trace.overhead_ratio"] = median(traced_walls) / wall - 1.0
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER.items()}
