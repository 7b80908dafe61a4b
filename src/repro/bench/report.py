"""Aggregate benchmark artifacts into one report.

``pytest benchmarks/ --benchmark-only`` leaves one text artifact per
figure under ``benchmarks/out/``; :func:`build_report` stitches them
into a single markdown document (``python -m repro report``), ordered
to follow the paper's evaluation section.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.figures import out_dir

#: preferred artifact order (anything else is appended alphabetically)
ORDER = [
    "fig1_gemm",
    "fig2_profile",
    "fig3_2xK40c_complex64",
    "fig3_2xK40c_complex128",
    "fig3_2xP100_complex64",
    "fig3_2xP100_complex128",
    "fig3_8xP100_complex64",
    "fig3_8xP100_complex128",
    "fig4_kernel_fractions",
    "fig5_efficiency",
    "fig6_ml_dependence",
    "fig7_p_dependence",
    "fig8_b_dependence",
    "fig9_q_cost",
    "fig9_q_accuracy",
    "accuracy_claims",
    "model_validation",
    "multinode_projection",
    "multinode_crossover",
    "energy_projection",
]


def available_artifacts(directory: Path | None = None) -> list[Path]:
    """Artifact files in report order."""
    d = Path(directory) if directory is not None else out_dir()
    files = {p.stem: p for p in sorted(d.glob("*.txt"))}
    ordered = [files.pop(name) for name in ORDER if name in files]
    return ordered + list(files.values())


def build_report(directory: Path | None = None) -> str:
    """Concatenate all artifacts into one markdown document."""
    arts = available_artifacts(directory)
    if not arts:
        return (
            "# Benchmark report\n\n(no artifacts found — run "
            "`pytest benchmarks/ --benchmark-only` first)\n"
        )
    parts = ["# Benchmark report", "",
             f"{len(arts)} artifacts from `benchmarks/out/`.", ""]
    for p in arts:
        parts.append(f"## {p.stem}")
        parts.append("```")
        parts.append(p.read_text().strip())
        parts.append("```")
        parts.append("")
    return "\n".join(parts)


def write_report(path: str | Path, directory: Path | None = None) -> Path:
    """Render and save the report; returns the output path."""
    out = Path(path)
    out.write_text(build_report(directory))
    return out
