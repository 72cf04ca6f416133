"""Output check for one `polarface experiment` invocation.

`check_outputs` verifies that the invocation left exactly the expected
files (the canonical config copy, the summary and the workload's own
CSV, all under one config hash), that the summary holds the expected
rows with values in the workload's plausible band, and -- when
`references.json` has an entry for the workload and seed -- that the
values match the reference within its stated tolerance.  It returns a
digest of the output bytes; callers compare the digests of reruns of
one configuration, which must be identical.

Recording references (after a change that alters results on purpose):

    python3 perfbench/check.py SEED [SEED ...]

runs every workload once per seed on its generated tree and rewrites
the reference entries for those seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"


def _band_error_rate(rows):
    return [f"{k} mean {v[0]!r} outside (0, 50)" for k, v in rows.items() if not 0.0 < v[0] < 50.0]


def _band_roc(rows):
    return [f"{k} eer {v[2]!r} outside (0, 0.5)" for k, v in rows.items()
            if v[2] is None or not 0.0 < v[2] < 0.5]


def _band_feature_map(rows):
    best, worst = rows["feature-map-dft-best"][0], rows["feature-map-dft-worst"][0]
    return [] if 0.0 < best <= worst < 100.0 else [f"feature-map best {best!r} worst {worst!r}"]


# Per workload: summary row ids, extra output files, plausible band.
EXPECTED = {
    "dft-error-rate": (("error-rate-dft",), (), _band_error_rate),
    "dft-feature-map": (
        ("feature-map-dft-best", "feature-map-dft-worst"),
        ("feature_map_dft_{tag}.csv",),
        _band_feature_map,
    ),
    "fused-roc-normalized": (("roc-fused",), ("roc_fused_{tag}.csv",), _band_roc),
}


def read_summary(path: Path) -> dict[str, tuple[float, float, float | None]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "experiment_id,mean,sem,eer":
        raise ValueError(f"{path.name}: bad header")
    rows = {}
    for line in lines[1:]:
        exp_id, mean, sem, eer = line.split(",")
        rows[exp_id] = (float(mean), float(sem), float(eer) if eer else None)
    return rows


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def compare_reference(rows, ref_rows, tolerance) -> list[str]:
    problems = []
    for exp_id, ref in ref_rows.items():
        got = rows.get(exp_id)
        if got is None:
            problems.append(f"{exp_id} missing")
            continue
        for field, g, r in zip(("mean", "sem", "eer"), got, ref):
            if g is None or r is None:
                same = g is r
            else:
                same = math.isclose(g, r, rel_tol=0.0, abs_tol=tolerance[field])
            if not same:
                problems.append(f"{exp_id} {field} {g!r} differs from reference {r!r}")
    return problems


def check_outputs(out_dir: Path, workload: str, references: dict | None, seed: int | None):
    """Return (problems, digest) for one invocation's output directory.

    With `references` None (the set-up tree) only the files and row ids
    are checked, not the values.
    """
    row_ids, extra, band = EXPECTED[workload]
    configs = sorted(out_dir.glob("run_config_*.ini"))
    if len(configs) != 1:
        return [f"expected one run_config_*.ini, found {len(configs)}"], ""
    tag = configs[0].stem[len("run_config_"):]
    expected = sorted([configs[0].name, f"summary_{tag}.csv", *(f.format(tag=tag) for f in extra)])
    present = sorted(p.name for p in out_dir.iterdir())
    if present != expected:
        return [f"output files {present} differ from expected {expected}"], ""
    try:
        rows = read_summary(out_dir / f"summary_{tag}.csv")
    except ValueError as exc:
        return [f"unreadable summary: {exc}"], ""
    if sorted(rows) != sorted(row_ids):
        return [f"summary rows {sorted(rows)} differ from expected {sorted(row_ids)}"], ""
    problems = []
    if references is not None:
        problems += band(rows)
        ref_rows = references["values"].get(workload, {}).get(str(seed))
        if ref_rows is not None:
            problems += compare_reference(rows, ref_rows, references["tolerance"])
    digest = hashlib.sha256()
    for name in expected:
        digest.update(name.encode() + b"\0" + (out_dir / name).read_bytes() + b"\0")
    return problems, digest.hexdigest()


def format_references(refs: dict) -> str:
    """JSON text with one line per workload and seed."""
    blocks = []
    for name, by_seed in refs["values"].items():
        lines = ",\n".join(f"   {json.dumps(seed)}: {json.dumps(rows)}" for seed, rows in by_seed.items())
        blocks.append(f"  {json.dumps(name)}: {{\n{lines}\n  }}")
    values = ",\n".join(blocks)
    return f'{{\n "tolerance": {json.dumps(refs["tolerance"])},\n "values": {{\n{values}\n }}\n}}\n'


def record(seeds: list[int]) -> None:
    import run

    refs = load_references()
    for seed in seeds:
        with run.workdir("references", seed) as work:
            trees = run.make_inputs(work, seed)
            for name in EXPECTED:
                out = work / f"out-{name}"
                sample = run.invoke(run.cli_command(name, trees, out), work)
                if sample["code"] != 0:
                    raise SystemExit(f"{name} seed {seed}: exit code {sample['code']}")
                rows = read_summary(next(out.glob("summary_*.csv")))
                refs["values"].setdefault(name, {})[str(seed)] = {k: list(v) for k, v in rows.items()}
                print(f"{name} seed {seed}: {rows}", flush=True)
        for name in refs["values"]:
            refs["values"][name] = dict(sorted(refs["values"][name].items(), key=lambda kv: int(kv[0])))
        REFERENCES.write_text(format_references(refs), encoding="utf-8")


if __name__ == "__main__":
    record([int(s) for s in sys.argv[1:]])
