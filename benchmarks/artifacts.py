"""Where the system benches save their tables: ``benchmarks/out/<name>.txt``
beside their ``BENCH_*.json``, or the directory ``REPRO_BENCH_OUT`` names."""

import os
from pathlib import Path


def out_dir() -> Path:
    """Directory for bench artifacts (created on demand)."""
    base = Path(os.environ.get("REPRO_BENCH_OUT", Path(__file__).resolve().parent / "out"))
    base.mkdir(parents=True, exist_ok=True)
    return base


def emit(name: str, text: str) -> None:
    """Print a bench's table and save it under :func:`out_dir`."""
    payload = f"\n=== {name} ===\n{text}\n"
    print(payload)
    (out_dir() / f"{name}.txt").write_text(payload)
